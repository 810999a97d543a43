"""Feature normalization and amplitude encoding."""

import numpy as np
import pytest

from qfedsim.core import probabilities
from qfedsim.encoding import amplitude_encode, encode_batch, l2_normalize
from qfedsim.exceptions import CapacityError, DegenerateInputError, ShapeError


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)

    def test_unit_vector_unchanged(self):
        x = np.array([0.0, 1.0, 0.0])
        assert np.allclose(l2_normalize(x), x, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            l2_normalize(np.zeros(4))

    def test_direction_preserved(self):
        x = np.array([-1.0, 2.0, -2.0])
        out = l2_normalize(x)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.cross([-1, 2, -2], out), 0, atol=1e-12)


class TestAmplitudeEncode:
    def test_basis_vector(self):
        state = amplitude_encode(np.array([1.0, 0.0, 0.0, 0.0]), 2)
        assert np.allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_uniform_vector(self):
        state = amplitude_encode(np.array([1.0, 1.0, 1.0, 1.0]), 2)
        assert np.allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_padding_then_normalization(self):
        # norm of [1, 2, 2] is 3; tail-padded to length 4
        state = amplitude_encode(np.array([1.0, 2.0, 2.0]), 2)
        assert np.allclose(state.amplitudes, [1 / 3, 2 / 3, 2 / 3, 0.0], atol=1e-15)

    def test_too_long_vector(self):
        with pytest.raises(CapacityError):
            amplitude_encode(np.ones(5), 2)

    def test_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            amplitude_encode(np.zeros(3), 2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=6)
        a = amplitude_encode(x, 3).amplitudes
        for c in (0.001, 7.0, 123456.0):
            b = amplitude_encode(c * x, 3).amplitudes
            assert np.allclose(a, b, atol=1e-12)

    def test_negative_features_allowed(self):
        state = amplitude_encode(np.array([-3.0, 4.0]), 1)
        assert np.allclose(state.amplitudes, [-0.6, 0.8], atol=1e-15)

    def test_probability_round_trip(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=5)
        state = amplitude_encode(x, 3)
        padded = np.concatenate([x, np.zeros(3)])
        expected = l2_normalize(padded) ** 2
        assert np.allclose(probabilities(state), expected, atol=1e-12)


class TestEncodeBatch:
    def test_matches_single_encoding(self):
        rng = np.random.default_rng(11)
        batch = rng.normal(size=(4, 6))
        encoded = encode_batch(batch, 3)
        assert encoded.shape == (4, 8)
        for row, x in zip(encoded, batch):
            assert np.allclose(row, amplitude_encode(x, 3).amplitudes, atol=1e-12)

    def test_zero_row_rejected(self):
        batch = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            encode_batch(batch, 1)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            encode_batch(np.ones(4), 2)

