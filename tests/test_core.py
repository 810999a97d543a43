"""Statevector engine: gate kernels, expectations, sampling, trajectory noise."""

import numpy as np
import pytest

import oracles
from qfedsim.core import (
    NoiseSpec,
    Observable,
    QuantumState,
    ShotSpec,
    apply_cx_kernel,
    apply_one_qubit_kernel,
    depolarize_kernel,
    expectation,
    ry_matrices,
)
from qfedsim.exceptions import CapacityError, ConfigError, ContractError, ShapeError
from qfedsim.model import LINEAR_CHAIN, RING, CircuitSpec, readout_batch

SQ2 = np.sqrt(0.5)

# Widths 1..5 put every qubit stride (1, 2, 4, 8, 16) under test, so the
# kernel's gather branch (strides 2 and 4) and its strided-view branch both run.
WIDTHS = (1, 2, 3, 4, 5)


def random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return QuantumState(n, amps / np.linalg.norm(amps))


def basis_state(n, index=0):
    amps = np.zeros(1 << n)
    amps[index] = 1.0
    return QuantumState(n, amps)


def real_states(n, rows, rng):
    amps = rng.normal(size=(rows, 1 << n))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def basis_batch(n, index=0, rows=1):
    amps = np.zeros((rows, 1 << n))
    amps[:, index] = 1.0
    return amps


def ry(amps, qubit, angle):
    out = amps.copy()
    apply_one_qubit_kernel(out, qubit, ry_matrices(angle))
    return out


def cx(amps, n, control, target):
    out = amps.copy()
    apply_cx_kernel(out, n, control, target)
    return out


def draw_paulis(rows, epsilon, rng):
    """One noise site's (hit, which) for every row: uniforms, then Pauli choices."""
    return rng.random(rows) < epsilon, rng.integers(0, 3, rows)


def depolarize(amps, qubit, epsilon, rng):
    """One trajectory sample of the channel on every row, in place."""
    depolarize_kernel(amps, qubit, *draw_paulis(amps.shape[0], epsilon, rng))


def random_observable(n, rng, max_terms=4):
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(n_terms):
        string = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        terms.append((float(rng.normal()), string))
    return Observable(tuple(terms))


class TestQuantumState:
    def test_zero_state_one_qubit(self):
        state = basis_state(1)
        assert state.amplitudes.dtype == np.complex128
        assert np.array_equal(state.amplitudes, [1, 0])

    def test_zero_state_two_qubits(self):
        real = np.array([1.0, 0.0, 0.0, 0.0])
        state = QuantumState(2, real)
        real[0] = 0.0
        assert state.dim == 4
        assert np.array_equal(state.amplitudes, [1, 0, 0, 0])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            QuantumState(0, np.array([1.0]))
        with pytest.raises(CapacityError):
            CircuitSpec(21, 1)

    def test_length_must_match_qubits(self):
        with pytest.raises(ShapeError):
            QuantumState(2, np.array([1.0, 0.0]))

    def test_norm_enforced(self):
        with pytest.raises(ContractError):
            QuantumState(1, np.array([1.0, 1.0]))


class TestObservable:
    def test_width_consistency(self):
        with pytest.raises(ShapeError):
            Observable(((1.0, "ZZ"), (1.0, "Z")))

    def test_label_validation(self):
        with pytest.raises(ContractError):
            Observable(((1.0, "ZA"),))

    def test_needs_terms(self):
        with pytest.raises(ShapeError):
            Observable(())


class TestApplyRy:
    """apply_one_qubit_kernel(amps, q, ry_matrices(a)) on (rows, 2**n) batches."""

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(1)
        for n in WIDTHS:
            amps = real_states(n, 5, rng)
            for qubit in range(n):
                assert np.allclose(ry(amps, qubit, 0.0), amps, atol=1e-15)

    def test_pi_flips_zero_to_one(self):
        for n in WIDTHS:
            for qubit in range(n):
                out = ry(basis_batch(n, rows=3), qubit, np.pi)
                assert np.allclose(out, basis_batch(n, 1 << qubit, rows=3), atol=1e-15)

    def test_half_pi_makes_equal_superposition(self):
        out = ry(basis_batch(1), 0, np.pi / 2)
        assert np.allclose(out, [[SQ2, SQ2]], atol=1e-15)

    def test_index_out_of_range(self):
        # A qubit past the array's width fails loudly in both kernel branches.
        for n in WIDTHS:
            for qubit in (n, n + 1, n + 2):
                with pytest.raises((IndexError, ValueError)):
                    ry(basis_batch(n), qubit, 0.3)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for n in WIDTHS:
            real = real_states(n, 6, rng)
            complex_rows = np.stack([random_state(n, rng).amplitudes for _ in range(3)])
            for qubit in range(n):
                angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
                dense = oracles.lift_one(n, qubit, oracles.ry_matrix(angle))
                for amps in (real, complex_rows):
                    out = ry(amps, qubit, angle)
                    assert out.dtype == amps.dtype
                    assert np.allclose(out, amps @ dense.T, atol=1e-12)

    def test_matrix_stack_gives_each_block_its_matrix(self):
        # An (S, 1, 2, 2) stack on (S, B, 2**n) rows equals the shared-matrix
        # kernel run block by block, bit for bit, in both kernel branches.
        rng = np.random.default_rng(8)
        for n in WIDTHS:
            blocks = real_states(n, 12, rng).reshape(3, 4, 1 << n)
            angles = rng.uniform(-np.pi, np.pi, size=3)
            for qubit in range(n):
                out = blocks.copy()
                apply_one_qubit_kernel(out, qubit, ry_matrices(angles)[:, None])
                for s in range(3):
                    assert np.array_equal(out[s], ry(blocks[s], qubit, angles[s]))

    def test_inverse_rotation_restores(self):
        rng = np.random.default_rng(3)
        for n in WIDTHS:
            amps = real_states(n, 4, rng)
            for qubit in range(n):
                out = ry(ry(amps, qubit, 1.234), qubit, -1.234)
                assert np.allclose(out, amps, atol=1e-12)


class TestApplyCx:
    """apply_cx_kernel on (rows, 2**n) batches."""

    def test_control_on_flips_target(self):
        # basis index 1 = qubit 0 set; CX(0, 1) sends it to index 3
        assert np.array_equal(cx(basis_batch(2, 1), 2, 0, 1), basis_batch(2, 3))

    def test_control_off_is_identity(self):
        assert np.array_equal(cx(basis_batch(2), 2, 0, 1), basis_batch(2))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for n in WIDTHS[1:]:
            amps = real_states(n, 5, rng)
            for control in range(n):
                for target in range(n):
                    if control == target:
                        continue
                    dense = oracles.cx_matrix(n, control, target)
                    assert np.array_equal(cx(amps, n, control, target), amps @ dense.T.real)

    def test_self_inverse(self):
        rng = np.random.default_rng(13)
        amps = real_states(3, 4, rng)
        assert np.array_equal(cx(cx(amps, 3, 0, 2), 3, 0, 2), amps)

    def test_bad_indices(self):
        # CX indices come only from CircuitSpec.entangler_pairs: distinct
        # qubits inside the register, for every width and entangler.
        for n in range(1, 7):
            for entangler in (LINEAR_CHAIN, RING):
                for control, target in CircuitSpec(n, 1, entangler).entangler_pairs():
                    assert control != target
                    assert 0 <= control < n and 0 <= target < n


class TestExpectation:
    def test_z_on_zero_state(self):
        assert expectation(basis_state(1), Observable(((1.0, "Z"),))) == pytest.approx(1.0)

    def test_z_on_equal_superposition(self):
        state = QuantumState(1, np.array([SQ2, SQ2]))
        assert expectation(state, Observable(((1.0, "Z"),))) == pytest.approx(0.0, abs=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            state = random_state(3, rng)
            obs = random_observable(3, rng)
            dense = oracles.observable_matrix(3, obs.terms)
            assert expectation(state, obs) == pytest.approx(
                oracles.expectation_dense(state.amplitudes, dense), abs=1e-10
            )

    def test_within_eigenvalue_range(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            state = random_state(2, rng)
            obs = random_observable(2, rng)
            eigs = np.linalg.eigvalsh(oracles.observable_matrix(2, obs.terms))
            value = expectation(state, obs)
            assert eigs.min() - 1e-10 <= value <= eigs.max() + 1e-10

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(23)
        state = random_state(2, rng)
        h1 = Observable(((1.0, "XY"),))
        h2 = Observable(((1.0, "ZI"),))
        combined = Observable(((0.7, "XY"), (-1.3, "ZI")))
        assert expectation(state, combined) == pytest.approx(
            0.7 * expectation(state, h1) - 1.3 * expectation(state, h2), abs=1e-10
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            expectation(basis_state(2), Observable(((1.0, "Z"),)))


class TestProbabilities:
    """Exact readout_batch: squared real amplitudes, row by row."""

    def test_zero_state(self):
        assert np.array_equal(readout_batch(basis_batch(1), ShotSpec.exact(), None), [[1, 0]])

    def test_equal_superposition(self):
        probs = readout_batch(np.array([[SQ2, SQ2]]), ShotSpec.exact(), None)
        assert np.allclose(probs, [[0.5, 0.5]], atol=1e-15)

    def test_squared_magnitudes_sum_to_one(self):
        amps = real_states(3, 6, np.random.default_rng(29))
        probs = readout_batch(amps, ShotSpec.exact(), None)
        assert np.allclose(probs, np.abs(amps) ** 2, atol=1e-15)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def shot_counts(amps, shots, rng):
    """Histogram of one row of real amplitudes' shot readout, recovered from
    its frequencies."""
    freqs = readout_batch(amps[None, :], ShotSpec(shots), rng)[0]
    return np.rint(freqs * shots).astype(np.int64)


def z_expectations(amps):
    """<Z> on a one-qubit batch, row by row."""
    probs = np.abs(amps) ** 2
    return probs[:, 0] - probs[:, 1]


class TestSampleCounts:
    def test_degenerate_distribution(self):
        counts = shot_counts(basis_batch(1)[0], 100, np.random.default_rng(0))
        assert np.array_equal(counts, [100, 0])

    def test_same_seed_same_histogram(self):
        state = ry(basis_batch(2), 0, 1.1)[0]
        a = shot_counts(state, 500, np.random.default_rng(42))
        b = shot_counts(state, 500, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_histogram_sums_to_shots(self):
        state = ry(basis_batch(2), 1, 0.7)[0]
        counts = shot_counts(state, 1234, np.random.default_rng(5))
        assert counts.sum() == 1234

    def test_binomial_confidence_bound(self):
        counts = shot_counts(np.array([SQ2, SQ2]), 10000, np.random.default_rng(9))
        freq = counts[0] / 10000
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 10000)


class TestDepolarizing:
    def test_zero_epsilon_unchanged(self):
        rng = np.random.default_rng(0)
        amps = np.stack([random_state(2, np.random.default_rng(1)).amplitudes] * 8)
        out = amps.copy()
        depolarize(out, 0, 0.0, rng)
        assert np.array_equal(out, amps)

    def test_trajectory_mean_matches_channel(self):
        # <Z> after the full-strength channel on |0>, vs the density-matrix value
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        channel_value = np.trace(oracles.Z @ oracles.depolarize_density(rho, 1.0)).real
        trials = 10000
        amps = basis_batch(1, rows=trials)
        depolarize(amps, 0, 1.0, np.random.default_rng(31))
        assert abs(z_expectations(amps).mean() - channel_value) < 0.05

    def test_partial_epsilon_matches_channel(self):
        epsilon = 0.3
        state = ry(basis_batch(1), 0, 0.9)[0]
        rho = np.outer(state, state).astype(complex)
        channel_value = np.trace(oracles.Z @ oracles.depolarize_density(rho, epsilon)).real
        trials = 20000
        amps = np.tile(state, (trials, 1))
        depolarize(amps, 0, epsilon, np.random.default_rng(37))
        sigma = 1.0 / np.sqrt(trials)  # |<Z>| <= 1 bounds the spread
        assert abs(z_expectations(amps).mean() - channel_value) < 3 * sigma + 0.01

    def test_fixed_seed_deterministic(self):
        amps = np.stack([random_state(2, np.random.default_rng(s)).amplitudes
                         for s in range(3, 11)])
        a, b = amps.copy(), amps.copy()
        depolarize(a, 1, 0.8, np.random.default_rng(77))
        depolarize(b, 1, 0.8, np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_epsilon_range_validated(self):
        with pytest.raises(ConfigError):
            NoiseSpec(1.5)

    def test_active_exactly_when_epsilon_is_positive(self):
        assert NoiseSpec.off() == NoiseSpec(0.0)
        assert not NoiseSpec(0.0).active
        assert NoiseSpec(1e-12).active and NoiseSpec(1.0).active


def squared_modulus(amps):
    return amps.real * amps.real + np.imag(amps) * np.imag(amps)


class TestDepolarizeKernelAgainstOracle:
    """Each hit row is the dense Pauli times the row, up to a global phase."""

    PAULIS = (oracles.X, oracles.Y, oracles.Z)

    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_rows_match_dense_paulis(self, kind, qubit):
        n, rows, epsilon, seed = 3, 40, 0.75, 17
        if kind == "complex":
            rng = np.random.default_rng(qubit)
            before = np.stack([random_state(n, rng).amplitudes for _ in range(rows)])
        else:
            before = real_states(n, rows, np.random.default_rng(qubit))
        after = before.copy()
        hit, which = draw_paulis(rows, epsilon, np.random.default_rng(seed))
        depolarize_kernel(after, qubit, hit, which)

        assert set(which[hit]) == {0, 1, 2} and not hit.all()
        assert after.dtype == before.dtype
        for row in range(rows):
            if not hit[row]:
                assert np.array_equal(after[row], before[row])
                continue
            dense = oracles.lift_one(n, qubit, self.PAULIS[which[row]]) @ before[row]
            assert np.array_equal(dense, after[row]) or np.array_equal(dense, 1j * after[row])
            assert np.array_equal(squared_modulus(dense), squared_modulus(after[row]))


class TestNormPreservation:
    def test_random_gate_sequences(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3):
            amps = real_states(n, 4, rng)
            for _ in range(30):
                kind = rng.integers(0, 3 if n > 1 else 2)
                q = int(rng.integers(n))
                if kind == 0:
                    amps = ry(amps, q, float(rng.normal()))
                elif kind == 1 or n == 1:
                    depolarize(amps, q, 0.5, rng)
                else:
                    t = (q + 1 + int(rng.integers(n - 1))) % n
                    amps = cx(amps, n, q, t)
            assert np.allclose(np.linalg.norm(amps, axis=1), 1.0, atol=1e-10)
