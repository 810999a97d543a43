"""Amplitude encoding of feature rows: normalization, padding, batches."""

import numpy as np
import pytest

from qfedsim.core import ShotSpec
from qfedsim.encoding import encode_batch
from qfedsim.exceptions import CapacityError, DataError, DegenerateInputError, ShapeError
from qfedsim.model import readout_batch


def encode_one(x, n_qubits):
    return encode_batch(np.asarray(x, dtype=np.float64)[None, :], n_qubits)[0]


def reference_encoding(x, n_qubits):
    """Pad with zeros, then divide by the Euclidean norm, entry by entry."""
    padded = list(x) + [0.0] * ((1 << n_qubits) - len(x))
    norm = sum(v * v for v in padded) ** 0.5
    return np.array([v / norm for v in padded])


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(encode_one([3.0, 4.0], 1), [0.6, 0.8], atol=1e-15)

    def test_unit_vector_unchanged(self):
        assert np.allclose(encode_one([0.0, 1.0, 0.0, 0.0], 2), [0, 1, 0, 0], atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            encode_one(np.zeros(4), 2)

    def test_direction_preserved(self):
        out = encode_one([-1.0, 2.0, -2.0], 2)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        assert out[3] == 0.0
        assert np.allclose(np.cross([-1, 2, -2], out[:3]), 0, atol=1e-12)


class TestAmplitudeEncode:
    def test_basis_vector(self):
        assert np.allclose(encode_one([1.0, 0.0, 0.0, 0.0], 2), [1, 0, 0, 0], atol=1e-15)

    def test_uniform_vector(self):
        assert np.allclose(encode_one([1.0, 1.0, 1.0, 1.0], 2), [0.5] * 4, atol=1e-15)

    def test_padding_then_normalization(self):
        # norm of [1, 2, 2] is 3; tail-padded to length 4
        out = encode_one([1.0, 2.0, 2.0], 2)
        assert np.allclose(out, [1 / 3, 2 / 3, 2 / 3, 0.0], atol=1e-15)

    def test_too_long_vector(self):
        with pytest.raises(CapacityError):
            encode_one(np.ones(5), 2)

    def test_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            encode_one(np.zeros(3), 2)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=6)
        a = encode_one(x, 3)
        for c in (0.001, 7.0, 123456.0):
            assert np.allclose(a, encode_one(c * x, 3), atol=1e-12)

    def test_negative_features_allowed(self):
        assert np.allclose(encode_one([-3.0, 4.0], 1), [-0.6, 0.8], atol=1e-15)

    def test_probability_round_trip(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=5)
        probs = readout_batch(encode_batch(x[None, :], 3), ShotSpec.exact(), None)[0]
        assert np.allclose(probs, reference_encoding(x, 3) ** 2, atol=1e-12)


class TestEncodeBatch:
    def test_matches_single_encoding(self):
        rng = np.random.default_rng(11)
        batch = rng.normal(size=(4, 6))
        encoded = encode_batch(batch, 3)
        assert encoded.shape == (4, 8)
        assert encoded.dtype == np.float64
        for row, x in zip(encoded, batch):
            assert np.allclose(row, reference_encoding(x, 3), atol=1e-12)

    def test_zero_row_rejected(self):
        batch = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            encode_batch(batch, 1)

    def test_first_zero_row_is_named(self):
        batch = np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="^row 2 is a zero vector"):
            encode_batch(batch, 1)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            encode_batch(np.ones(4), 2)


class TestExtremeScales:
    """Rows whose sum of squares overflows or underflows float64 are encoded
    as their direction; ordinary rows keep the bits of x / ||x||."""

    @pytest.mark.parametrize("scale", [1e300, 1e-170, 1e-320])
    def test_extreme_rows_encode_as_their_direction(self, scale):
        x = np.array([3.0, -4.0, 0.0, 12.0, 5.0])
        out = encode_one(scale * x, 3)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, reference_encoding(x, 3), rtol=0, atol=1e-15)

    def test_ordinary_rows_keep_their_bits(self):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(9, 6))
        plain = encode_batch(batch, 3)
        batch[2] *= 1e300
        batch[5] *= 1e-170
        mixed = encode_batch(batch, 3)
        ordinary = [0, 1, 3, 4, 6, 7, 8]
        assert np.array_equal(mixed[ordinary], plain[ordinary])
        assert np.array_equal(plain[ordinary, :6], batch[ordinary] / np.linalg.norm(
            batch[ordinary], axis=1)[:, None])
        assert np.allclose(mixed[[2, 5]], plain[[2, 5]], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_row_is_named(self, bad):
        batch = np.ones((5, 3))
        batch[3, 1] = bad
        with pytest.raises(DataError, match="^row 3 holds a non-finite value"):
            encode_batch(batch, 2)

    def test_the_first_unencodable_row_is_named(self):
        batch = np.ones((5, 3))
        batch[1] = [1e300, np.inf, 0.0]
        batch[3] = 0.0
        with pytest.raises(DataError, match="^row 1 "):
            encode_batch(batch, 2)
        batch[1] = 1e300
        with pytest.raises(DegenerateInputError, match="^row 3 is a zero vector"):
            encode_batch(batch, 2)
