"""Hybrid model: ansatz geometry, circuit runs, head, softmax, checkpoints."""

import struct

import numpy as np
import pytest

import oracles
from oracles import probability_batch
from qfedsim import model
from qfedsim.core import (
    NoiseSpec,
    QuantumState,
    ShotSpec,
)
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
    circuit_matrix,
    circuit_matrix_pays,
    class_probabilities,
    draw_trajectory,
    head_scores,
    head_softmax,
    init_params,
    load_params,
    readout_batch,
    run_ansatz_kernel,
    run_circuit,
    save_params,
)

EXACT = ShotSpec.exact()


def make_params(spec, n_classes, seed=0):
    return init_params(spec, n_classes, np.random.default_rng(seed))


def zero_state(n):
    amps = np.zeros(1 << n)
    amps[0] = 1.0
    return QuantumState(n, amps)


def scores(spec, params, rows, shots=EXACT, rng=None):
    """Class scores of raw feature rows: encode, run, read out, head. The
    exact readout is probability_batch; a finite-shot one samples the
    noiseless ansatz output."""
    encoded = encode_batch(np.atleast_2d(rows), spec.n_qubits)
    if shots.is_exact:
        return head_scores(params.head_weights, params.head_bias,
                           probability_batch(spec, params.angles, encoded))
    run_ansatz_kernel(encoded, spec, params.angles)
    return head_scores(params.head_weights, params.head_bias, readout_batch(encoded, shots, rng))


def softmax_of(y):
    """head_softmax of class scores y, through a head that passes its
    readout through unchanged (W = I, b = 0)."""
    y = np.asarray(y, dtype=np.float64)
    k = y.shape[-1]
    return head_softmax(ModelParams(np.zeros((1, 1)), np.eye(k), np.zeros(k)), y)


class TestCircuitSpec:
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
        # one check over the whole vector; the message names the part
        parts = {"angles": np.zeros((1, 2)), "head_weights": np.zeros((2, 4)),
                 "head_bias": np.zeros(2)}
        for name in parts:
            for bad in (np.nan, np.inf):
                args = {k: v.copy() for k, v in parts.items()}
                args[name].flat[-1] = bad
                with pytest.raises(NumericError, match=f"^{name} "):
                    ModelParams(**args)

    def test_vector_round_trip(self):
        # vector lays out [angles layer-major, W row-major, b]
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 4, seed=5)
        vec = params.vector
        assert vec.shape == (6 + 4 * 8 + 4,) and vec.dtype == np.float64
        assert np.array_equal(vec[:6].reshape(2, 3), params.angles)
        assert np.array_equal(vec[6:38].reshape(4, 8), params.head_weights)
        assert np.array_equal(vec[38:], params.head_bias)

    def test_parts_are_read_only_views_of_the_vector(self):
        params = make_params(CircuitSpec(2, 2), 3, seed=2)
        for part in (params.vector, params.angles, params.head_weights, params.head_bias):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[...] = 0.0
        for part in (params.angles, params.head_weights, params.head_bias):
            assert np.shares_memory(part, params.vector)

    def test_caller_arrays_do_not_alias(self):
        angles, weights, bias = np.ones((1, 2)), np.ones((2, 4)), np.ones(2)
        params = ModelParams(angles, weights, bias)
        angles[0, 0] = weights[0, 0] = bias[0] = 7.0
        for part in (params.angles, params.head_weights, params.head_bias):
            assert np.all(part == 1.0)

    def test_with_vector_keeps_geometry_and_copies(self):
        params = make_params(CircuitSpec(3, 2), 2, seed=4)
        raw = np.arange(params.vector.size, dtype=np.float64)
        out = params.with_vector(raw)
        assert out.shapes == params.shapes
        assert np.array_equal(out.vector, raw)
        raw[0] = 99.0
        assert out.vector[0] == 0.0
        with pytest.raises(ShapeError):
            params.with_vector(raw[:-1])
        with pytest.raises(NumericError, match="head_bias"):
            params.with_vector(np.where(np.arange(raw.size) == raw.size - 1, np.nan, raw))

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


class TestRunAnsatzKernel:
    """One pass over an (S, layers, qubits) angle stack."""

    @pytest.mark.parametrize("entangler", [LINEAR_CHAIN, RING])
    def test_stack_equals_block_by_block_passes(self, entangler):
        spec = CircuitSpec(3, 2, entangler)
        rng = np.random.default_rng(5)
        stack = rng.uniform(-np.pi, np.pi, size=(4, 2, 3))
        encoded = encode_batch(rng.normal(size=(5, 8)), 3)
        amps = np.tile(encoded, (4, 1))
        run_ansatz_kernel(amps, spec, stack)
        for s in range(4):
            block = encoded.copy()
            run_ansatz_kernel(block, spec, stack[s])
            assert np.array_equal(amps[5 * s : 5 * s + 5], block)

    @pytest.mark.parametrize("epsilon, draws", [(0.0, False), (1e-9, True), (0.3, True)])
    def test_noise_draws_the_whole_trajectory_up_front(self, epsilon, draws):
        # 2 layers of 3 Ry sites and 3 ring CX gates of 2 sites each: 18
        # sites, one uniform and then one Pauli choice per (site, row).
        spec = CircuitSpec(3, 2, RING)
        rng = np.random.default_rng(3)
        amps = encode_batch(rng.normal(size=(7, 8)), 3)
        run_ansatz_kernel(amps, spec, np.ones((2, 3)),
                          draw_trajectory(spec, NoiseSpec(epsilon), rng, len(amps)))
        twin = np.random.default_rng(3)
        twin.normal(size=(7, 8))
        if draws:
            twin.random((18, 7))
            twin.integers(0, 3, (18, 7))
        assert rng.bit_generator.state == twin.bit_generator.state


def frame_and_reference_passes(spec, angles, rows, epsilon, seed):
    """The same noisy pass by run_ansatz_kernel and by the gate-by-gate
    reference, oracles.per_gate_ansatz on oracles.one_qubit_kernel, from twin
    generators. The reference draws its trajectory as the pass documents: one
    uniform, then one Pauli choice, per (site, row). Returns both outputs and
    both generators."""
    rng = np.random.default_rng(seed)
    encoded = encode_batch(rng.normal(size=(rows, spec.dim)), spec.n_qubits)
    amps = np.tile(encoded, (len(angles), 1)) if angles.ndim == 3 else encoded.copy()
    ref = amps.copy()
    fast_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    run_ansatz_kernel(amps, spec, angles,
                      draw_trajectory(spec, NoiseSpec(epsilon), fast_rng, len(amps)))

    sites = (spec.n_layers * (spec.n_qubits + 2 * len(spec.entangler_pairs())), len(ref))
    hit, which = np.zeros(sites, dtype=bool), np.zeros(sites, dtype=np.int64)
    if epsilon > 0:
        hit = ref_rng.random(sites) < epsilon
        which = ref_rng.integers(0, 3, sites)
    mats = oracles.ry_matrices(angles)
    blocks = ref.reshape(len(angles), -1, spec.dim) if angles.ndim == 3 else ref

    def apply_ry(_, layer, qubit):
        mat = mats[:, layer, qubit, None] if angles.ndim == 3 else mats[layer, qubit]
        oracles.one_qubit_kernel(blocks, qubit, mat)

    oracles.per_gate_ansatz(ref, spec.n_qubits, spec.n_layers, spec.entangler_pairs(),
                            apply_ry, hit, which)
    return amps, ref, fast_rng, ref_rng


def assert_bit_identical(amps, ref, fast_rng, ref_rng):
    assert np.array_equal(amps, ref)
    assert np.array_equal(np.signbit(amps), np.signbit(ref))
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


class TestFramePassAgainstPerGatePass:
    """run_ansatz_kernel, which folds each layer's noise into Pauli frames
    applied with one gather, against the per-gate reference: bit for bit,
    signs included, with the same generator state afterwards."""

    @pytest.mark.parametrize("n, layers", [(1, 1), (2, 1), (3, 2), (4, 1), (4, 3),
                                           (5, 2), (6, 2)])
    @pytest.mark.parametrize("entangler", [LINEAR_CHAIN, RING])
    def test_grid(self, n, layers, entangler):
        spec = CircuitSpec(n, layers, entangler)
        rng = np.random.default_rng(100 * n + layers)
        for epsilon in (0.0, 0.001, 0.3, 0.5, 0.9, 1.0):
            for stack in (None, 3):
                shape = (layers, n) if stack is None else (stack, layers, n)
                angles = rng.uniform(-np.pi, np.pi, size=shape)
                for seed in range(4):
                    assert_bit_identical(*frame_and_reference_passes(
                        spec, angles, 5, epsilon, seed))

    def test_random_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n, layers = int(rng.integers(1, 8)), int(rng.integers(1, 4))
            spec = CircuitSpec(n, layers, (LINEAR_CHAIN, RING)[int(rng.integers(2))])
            stack = int(rng.integers(1, 5))
            shape = (layers, n) if stack == 1 else (stack, layers, n)
            angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=shape)
            epsilon = float(rng.choice([rng.uniform(0.0, 0.05), rng.uniform(0.0, 1.0)]))
            assert_bit_identical(*frame_and_reference_passes(
                spec, angles, int(rng.integers(1, 9)), epsilon, int(rng.integers(1 << 30))))


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
    """head_softmax: class probabilities and log-probabilities of a readout."""

    def test_symmetric_scores(self):
        probs, log_probs = softmax_of(np.zeros(2))
        assert np.allclose(probs, [0.5, 0.5], atol=1e-15)
        assert np.allclose(log_probs, np.log([0.5, 0.5]), atol=1e-15)

    def test_large_scores_stable(self):
        probs, log_probs = softmax_of(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert log_probs[0] == pytest.approx(0.0, abs=1e-12)
        assert log_probs[1] == pytest.approx(-1000.0, abs=1e-12)

    def test_matches_direct_recomputation(self):
        y = np.array([1.0, 2.0, 3.0])
        direct = np.exp(y) / np.exp(y).sum()
        probs, log_probs = softmax_of(y)
        assert np.allclose(probs, direct, atol=1e-12)
        assert np.allclose(log_probs, np.log(direct), atol=1e-12)

    def test_monotone_in_scores(self):
        probs, _ = softmax_of(np.array([0.2, 1.5, -0.3]))
        assert probs[1] > probs[0] > probs[2]

    def test_batch_rows_sum_to_one(self):
        rng = np.random.default_rng(14)
        readout = rng.uniform(size=(5, 4))
        params = ModelParams(np.zeros((1, 2)), rng.normal(size=(3, 4)), rng.normal(size=3))
        probs, log_probs = head_softmax(params, readout)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0)
        assert np.allclose(np.exp(log_probs), probs, atol=1e-15)

    def test_non_finite_rejected(self):
        with np.errstate(invalid="ignore"):  # inf * 0 in the identity head
            with pytest.raises(NumericError, match="class scores"):
                softmax_of(np.array([np.inf, 0.0]))
        # Finite parameters whose class score overflows to inf.
        params = ModelParams(np.zeros((1, 1)), np.array([[1e308, 1e308], [0.0, 0.0]]),
                             np.zeros(2))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="class scores"):
                head_softmax(params, np.array([[1.0, 1.0]]))


def force_path(monkeypatch, path):
    """Make class_probabilities take the circuit matrix ("matrix") or the
    kernels ("kernels") whatever the shape."""
    monkeypatch.setattr(model, "circuit_matrix_pays", lambda spec, rows: path == "matrix")


def unblocked_class_probabilities(spec, params, encoded):
    """head_softmax over one unblocked kernel pass of every row."""
    return head_softmax(params, probability_batch(spec, params.angles, encoded))


class TestExactEvaluation:
    """class_probabilities: the circuit matrix against the dense unitary and
    the kernels, row blocks against one pass, and the shape rule."""

    @pytest.mark.parametrize("entangler", [LINEAR_CHAIN, RING])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_circuit_matrix_is_the_transposed_unitary(self, n, layers, entangler):
        spec = CircuitSpec(n, layers, entangler)
        angles = np.random.default_rng(n * 10 + layers).uniform(-np.pi, np.pi, (layers, n))
        unitary = oracles.ansatz_matrix(n, angles, spec.entangler_pairs())
        assert np.max(np.abs(circuit_matrix(spec, angles) - unitary.T)) <= 1e-12

    @pytest.mark.parametrize("entangler", [LINEAR_CHAIN, RING])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matrix_path_matches_the_kernels(self, n, layers, entangler, monkeypatch):
        # 1e-12 bounds the rounding of a 2**n-term dot product of unit
        # vectors, several hundred ulps at 8 qubits.
        spec = CircuitSpec(n, layers, entangler)
        rng = np.random.default_rng(n * 10 + layers)
        params = init_params(spec, 3, rng)
        encoded = encode_batch(rng.normal(size=(37, spec.dim)), n)
        kernels = unblocked_class_probabilities(spec, params, encoded)
        unitary = oracles.ansatz_matrix(n, params.angles, spec.entangler_pairs())
        dense = head_softmax(params, np.abs(encoded @ unitary.T) ** 2)
        force_path(monkeypatch, "matrix")
        monkeypatch.setattr(model, "EVAL_BLOCK_AMPLITUDES", 5 * spec.dim)
        fast = class_probabilities(spec, params, encoded)
        for got, want, ref in zip(fast, kernels, dense):
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("block_rows", [1, 2, 5, 16, 23, 24, 100])
    @pytest.mark.parametrize("spec", [CircuitSpec(3, 2), CircuitSpec(4, 1, RING), CircuitSpec(6, 3)])
    def test_kernel_blocks_give_the_readout_bits_of_one_pass(self, spec, block_rows,
                                                             monkeypatch):
        # 23 rows: every block size but 1, 23 and 100 leaves a ragged last
        # block. The kernels treat rows independently, so the blocks'
        # readouts are the bits of one pass. The head's BLAS matmul may
        # round a row differently with another row count, so the class
        # probabilities are compared to rounding.
        rng = np.random.default_rng(block_rows)
        params = init_params(spec, 4, rng)
        encoded = encode_batch(rng.normal(size=(23, spec.dim)), spec.n_qubits)
        readouts = []

        def spy(amps, shots, rng):
            readouts.append(readout_batch(amps, shots, rng))
            return readouts[-1]

        force_path(monkeypatch, "kernels")
        monkeypatch.setattr(model, "readout_batch", spy)
        monkeypatch.setattr(model, "EVAL_BLOCK_AMPLITUDES", block_rows * spec.dim)
        got = class_probabilities(spec, params, encoded)
        assert [len(r) for r in readouts[:-1]] == [block_rows] * (len(readouts) - 1)
        assert np.array_equal(np.concatenate(readouts),
                              probability_batch(spec, params.angles, encoded))
        for part, want in zip(got, unblocked_class_probabilities(spec, params, encoded)):
            assert np.max(np.abs(part - want)) <= 1e-15

    def test_blocks_are_at_least_one_row(self, monkeypatch):
        spec = CircuitSpec(3, 1)
        params = make_params(spec, 2)
        encoded = encode_batch(np.random.default_rng(0).normal(size=(3, 8)), 3)
        force_path(monkeypatch, "kernels")
        monkeypatch.setattr(model, "EVAL_BLOCK_AMPLITUDES", 1)
        for got, want in zip(class_probabilities(spec, params, encoded),
                             unblocked_class_probabilities(spec, params, encoded)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("path", ["matrix", "kernels"])
    @pytest.mark.parametrize("row", [0, 9, 19])
    def test_non_finite_score_in_any_block_raises(self, row, path, monkeypatch):
        # Zero angles leave basis state 0 alone. Its class-0 score is
        # 1.7e308 + 0.5e308, which overflows; every other row's p0 is below
        # 0.4, so its score stays finite.
        spec = CircuitSpec(2, 1)
        features = np.random.default_rng(1).uniform(0.5, 1.0, size=(20, 4))
        features[row] = [1.0, 0.0, 0.0, 0.0]
        params = ModelParams(np.zeros((1, 2)), np.array([[1.7e308, 0, 0, 0], [0, 0, 0, 0]]),
                             np.array([0.5e308, 0.0]))
        force_path(monkeypatch, path)
        monkeypatch.setattr(model, "EVAL_BLOCK_AMPLITUDES", 8 * spec.dim)
        encoded = encode_batch(features, 2)
        others = np.delete(encoded, row, axis=0)
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(class_probabilities(spec, params, others)[1]))
            with pytest.raises(NumericError, match="^class scores contain non-finite entries$"):
                class_probabilities(spec, params, encoded)

    @pytest.mark.parametrize("n, layers, rows, expected", [
        (4, 1, 36_000, True),     # ingest's validation set
        (4, 1, 88, True),         # gentle's
        (4, 1, 62, False),        # noisy's: under 4 * 2**n rows
        (10, 3, 62, False),       # wide's
        (10, 3, 8_000, True),
        (10, 1, 100_000, False),  # 2**n > 32 * L * (n + 1)
        (12, 1, 4096, False),
        (12, 16, 100_000, False),  # wider than the cap
    ])
    def test_shape_rule(self, n, layers, rows, expected):
        assert circuit_matrix_pays(CircuitSpec(n, layers), rows) is expected


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 4, seed=13)
        path = tmp_path / "params.bin"
        save_params(path, spec, params)
        n_layers, n_qubits, n_classes, vec = load_params(path)
        assert (n_layers, n_qubits, n_classes) == (2, 3, 4)
        assert np.array_equal(vec, params.vector)

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

    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_payload_cut_inside_a_value_names_the_file(self, tmp_path, cut):
        spec = CircuitSpec(2, 1)
        path = tmp_path / "params.bin"
        save_params(path, spec, make_params(spec, 2, seed=1))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(DataError, match="params.bin: checkpoint payload"):
            load_params(path)

    @pytest.mark.parametrize("n_qubits", [21, 20000])
    def test_header_qubit_count_above_the_limit_names_the_field(self, tmp_path, n_qubits):
        path = tmp_path / "params.bin"
        path.write_bytes(b"QFSP" + struct.pack("<IIII", 1, 1, n_qubits, 2) + bytes(16))
        with pytest.raises(ParseError, match=f"n_qubits = {n_qubits}"):
            load_params(path)

    def test_wrong_geometry_rejected_on_save(self, tmp_path):
        spec = CircuitSpec(2, 1)
        params = make_params(CircuitSpec(3, 1), 2, seed=1)
        with pytest.raises(ShapeError):
            save_params(tmp_path / "params.bin", spec, params)
