"""Hybrid model: ansatz geometry, circuit runs, head, softmax, checkpoints."""

import numpy as np
import pytest

import oracles
from qfedsim.core import NoiseSpec, QuantumState, ShotSpec
from qfedsim.encoding import encode_batch
from qfedsim.exceptions import (
    CapacityError,
    ConfigError,
    DataError,
    NumericError,
    ParseError,
    ShapeError,
)
from qfedsim.model import (
    LINEAR_CHAIN,
    RING,
    CircuitSpec,
    ModelParams,
    class_probabilities,
    head_scores,
    init_params,
    load_params,
    probability_batch,
    run_ansatz_kernel,
    run_circuit,
    save_params,
)

EXACT = ShotSpec.exact()
CLEAN = NoiseSpec.off()


def make_params(spec, n_classes, seed=0):
    return init_params(spec, n_classes, np.random.default_rng(seed))


def zero_state(n):
    amps = np.zeros(1 << n)
    amps[0] = 1.0
    return QuantumState(n, amps)


def scores(spec, params, rows, shots=EXACT, rng=None):
    """Class scores of raw feature rows: encode, run, read out, head."""
    encoded = encode_batch(np.atleast_2d(rows), spec.n_qubits)
    return head_scores(params, probability_batch(spec, params.angles, encoded, shots, CLEAN, rng))


class TestCircuitSpec:
    def test_quantum_param_count(self):
        assert CircuitSpec(4, 3).quantum_param_count == 12
        assert CircuitSpec(2, 5).quantum_param_count == 10

    def test_chain_pairs(self):
        assert CircuitSpec(4, 1).entangler_pairs() == ((0, 1), (1, 2), (2, 3))
        assert CircuitSpec(1, 1).entangler_pairs() == ()

    def test_ring_adds_closure(self):
        assert CircuitSpec(4, 1, RING).entangler_pairs() == ((0, 1), (1, 2), (2, 3), (3, 0))

    def test_two_qubit_ring_equals_chain(self):
        assert CircuitSpec(2, 1, RING).entangler_pairs() == CircuitSpec(2, 1).entangler_pairs()

    def test_validation(self):
        with pytest.raises(CapacityError):
            CircuitSpec(0, 1)
        with pytest.raises(CapacityError):
            CircuitSpec(21, 1)
        with pytest.raises(ConfigError):
            CircuitSpec(2, 0)
        with pytest.raises(ConfigError):
            CircuitSpec(2, 1, "star")


class TestModelParams:
    def test_finite_required(self):
        with pytest.raises(NumericError):
            ModelParams(np.array([[np.nan]]), np.zeros((2, 2)), np.zeros(2))

    def test_vector_round_trip(self):
        # to_vector lays out [angles layer-major, W row-major, b]
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 4, seed=5)
        vec = params.to_vector()
        assert vec.shape == (6 + 4 * 8 + 4,)
        assert np.array_equal(vec[:6].reshape(2, 3), params.angles)
        assert np.array_equal(vec[6:38].reshape(4, 8), params.head_weights)
        assert np.array_equal(vec[38:], params.head_bias)

    def test_vector_length_checked(self):
        with pytest.raises(ShapeError):
            ModelParams(np.zeros((1, 2)), np.zeros((2, 4)), np.zeros(3))
        with pytest.raises(ShapeError):
            ModelParams(np.zeros(2), np.zeros((2, 4)), np.zeros(2))

    def test_init_ranges(self):
        spec = CircuitSpec(4, 3)
        params = make_params(spec, 3, seed=9)
        assert params.angles.shape == (3, 4)
        assert np.all((params.angles >= 0) & (params.angles < np.pi))
        assert np.all(np.abs(params.head_weights) <= 0.1)
        assert np.array_equal(params.head_bias, np.zeros(3))

    def test_init_deterministic(self):
        spec = CircuitSpec(2, 2)
        a = init_params(spec, 2, np.random.default_rng(3))
        b = init_params(spec, 2, np.random.default_rng(3))
        assert np.array_equal(a.angles, b.angles)
        assert np.array_equal(a.head_weights, b.head_weights)


class TestRunCircuit:
    def test_zero_angles_on_zero_state(self):
        # Ry(0) is the identity and CX with control 0 acts trivially
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 2).with_angles(np.zeros((2, 3)))
        out = run_circuit(spec, params, zero_state(3))
        assert np.allclose(out.amplitudes, zero_state(3).amplitudes, atol=1e-12)

    def test_zero_angles_equal_entangler_only(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2).with_angles(np.zeros((1, 2)))
        rng = np.random.default_rng(2)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = QuantumState(2, amps / np.linalg.norm(amps))
        out = run_circuit(spec, params, state)
        dense = oracles.cx_matrix(2, 0, 1) @ state.amplitudes
        assert np.allclose(out.amplitudes, dense, atol=1e-12)

    def test_single_qubit_single_layer(self):
        spec = CircuitSpec(1, 1)
        theta = 0.83
        params = ModelParams(np.array([[theta]]), np.zeros((2, 2)), np.zeros(2))
        out = run_circuit(spec, params, zero_state(1))
        assert np.allclose(
            out.amplitudes, [np.cos(theta / 2), np.sin(theta / 2)], atol=1e-12
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        for n, layers, entangler in ((2, 1, LINEAR_CHAIN), (3, 2, LINEAR_CHAIN), (3, 2, RING)):
            spec = CircuitSpec(n, layers, entangler)
            angles = rng.uniform(-np.pi, np.pi, size=(layers, n))
            params = ModelParams(angles, np.zeros((2, 1 << n)), np.zeros(2))
            x = rng.normal(size=1 << n)
            state = QuantumState(n, encode_batch(x[None, :], n)[0])
            out = run_circuit(spec, params, state)
            dense = oracles.ansatz_matrix(n, angles, spec.entangler_pairs()) @ state.amplitudes
            assert np.allclose(out.amplitudes, dense, atol=1e-10)

    def test_shape_mismatch(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2)
        with pytest.raises(ShapeError):
            run_circuit(spec, params, zero_state(3))

    def test_noise_needs_generator(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2)
        with pytest.raises(ConfigError):
            run_circuit(spec, params, zero_state(2), NoiseSpec(0.1), None)


class TestRunAnsatzKernel:
    """One pass over an (S, layers, qubits) angle stack."""

    @pytest.mark.parametrize("entangler", [LINEAR_CHAIN, RING])
    def test_stack_equals_block_by_block_passes(self, entangler):
        spec = CircuitSpec(3, 2, entangler)
        rng = np.random.default_rng(5)
        stack = rng.uniform(-np.pi, np.pi, size=(4, 2, 3))
        encoded = encode_batch(rng.normal(size=(5, 8)), 3)
        amps = np.tile(encoded, (4, 1))
        run_ansatz_kernel(amps, spec, stack, NoiseSpec.off(), None)
        for s in range(4):
            block = encoded.copy()
            run_ansatz_kernel(block, spec, stack[s], NoiseSpec.off(), None)
            assert np.array_equal(amps[5 * s : 5 * s + 5], block)

    @pytest.mark.parametrize("epsilon, draws", [(0.0, False), (1e-9, True), (0.3, True)])
    def test_noise_draws_the_whole_trajectory_up_front(self, epsilon, draws):
        # 2 layers of 3 Ry sites and 3 ring CX gates of 2 sites each: 18
        # sites, one uniform and then one Pauli choice per (site, row).
        spec = CircuitSpec(3, 2, RING)
        rng = np.random.default_rng(3)
        amps = encode_batch(rng.normal(size=(7, 8)), 3)
        run_ansatz_kernel(amps, spec, np.ones((2, 3)), NoiseSpec(epsilon), rng)
        twin = np.random.default_rng(3)
        twin.normal(size=(7, 8))
        if draws:
            twin.random((18, 7))
            twin.integers(0, 3, (18, 7))
        assert rng.bit_generator.state == twin.bit_generator.state


class TestForward:
    """Class scores of encoded rows: head_scores over probability_batch."""

    def test_identity_head_returns_probabilities(self):
        spec = CircuitSpec(1, 1)
        theta = 1.1
        params = ModelParams(np.array([[theta]]), np.eye(2), np.zeros(2))
        y = scores(spec, params, [1.0, 0.0])
        column = oracles.ansatz_matrix(1, params.angles, spec.entangler_pairs())[:, 0]
        assert np.allclose(y, [np.abs(column) ** 2], atol=1e-12)

    def test_zero_weights_return_bias(self):
        spec = CircuitSpec(2, 1)
        params = ModelParams(
            np.array([[0.4, 1.2]]), np.zeros((2, 4)), np.array([0.3, 0.7])
        )
        y = scores(spec, params, np.random.default_rng(1).normal(size=(3, 4)))
        assert np.allclose(y, [[0.3, 0.7]] * 3, atol=1e-15)

    def test_finite_shots_reproducible(self):
        spec = CircuitSpec(2, 2)
        params = make_params(spec, 3, seed=4)
        x = np.array([0.2, -0.4, 0.9, 0.1])
        a = scores(spec, params, x, ShotSpec(1000), np.random.default_rng(6))
        b = scores(spec, params, x, ShotSpec(1000), np.random.default_rng(6))
        assert np.array_equal(a, b)

    def test_exact_mode_is_pure(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=8)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(scores(spec, params, x), scores(spec, params, x))


class TestClassProbabilities:
    def test_symmetric_scores(self):
        assert np.allclose(class_probabilities(np.zeros(2)), [0.5, 0.5], atol=1e-15)

    def test_large_scores_stable(self):
        probs = class_probabilities(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_recomputation(self):
        y = np.array([1.0, 2.0, 3.0])
        direct = np.exp(y) / np.exp(y).sum()
        assert np.allclose(class_probabilities(y), direct, atol=1e-12)

    def test_monotone_in_scores(self):
        probs = class_probabilities(np.array([0.2, 1.5, -0.3]))
        assert probs[1] > probs[0] > probs[2]

    def test_batch_rows_sum_to_one(self):
        rng = np.random.default_rng(14)
        probs = class_probabilities(rng.normal(size=(5, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            class_probabilities(np.array([np.inf, 0.0]))


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 4, seed=13)
        path = tmp_path / "params.bin"
        save_params(path, spec, params)
        n_layers, n_qubits, n_classes, vec = load_params(path)
        assert (n_layers, n_qubits, n_classes) == (2, 3, 4)
        assert np.array_equal(vec, params.to_vector())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ParseError):
            load_params(path)

    def test_truncated_payload(self, tmp_path):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=1)
        path = tmp_path / "params.bin"
        save_params(path, spec, params)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataError):
            load_params(path)

    def test_wrong_geometry_rejected_on_save(self, tmp_path):
        spec = CircuitSpec(2, 1)
        params = make_params(CircuitSpec(3, 1), 2, seed=1)
        with pytest.raises(ShapeError):
            save_params(tmp_path / "params.bin", spec, params)
