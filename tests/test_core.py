"""Statevector engine: gates, expectations, sampling, trajectory noise."""

import numpy as np
import pytest

import oracles
from qfedsim.core import (
    NoiseSpec,
    Observable,
    QuantumState,
    ShotSpec,
    apply_cx,
    apply_ry,
    depolarize_kernel,
    estimate_expectation,
    expectation,
    probabilities,
    zero_state,
)
from qfedsim.exceptions import CapacityError, ConfigError, ContractError, ShapeError
from qfedsim.model import CircuitSpec, readout_batch, run_ansatz_kernel

SQ2 = np.sqrt(0.5)


def random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return QuantumState(n, amps / np.linalg.norm(amps))


def random_observable(n, rng, max_terms=4):
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(n_terms):
        string = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        terms.append((float(rng.normal()), string))
    return Observable(tuple(terms))


class TestQuantumState:
    def test_zero_state_one_qubit(self):
        assert np.array_equal(zero_state(1).amplitudes, [1, 0])

    def test_zero_state_two_qubits(self):
        assert np.array_equal(zero_state(2).amplitudes, [1, 0, 0, 0])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            zero_state(21)
        with pytest.raises(CapacityError):
            zero_state(0)

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
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(1)
        state = random_state(2, rng)
        out = apply_ry(state, 1, 0.0)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_pi_flips_zero_to_one(self):
        out = apply_ry(zero_state(1), 0, np.pi)
        assert np.allclose(out.amplitudes, [0, 1], atol=1e-10)

    def test_half_pi_makes_equal_superposition(self):
        out = apply_ry(zero_state(1), 0, np.pi / 2)
        assert np.allclose(out.amplitudes, [SQ2, SQ2], atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_ry(zero_state(2), 2, 0.3)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            state = random_state(n, rng)
            for qubit in range(n):
                angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
                out = apply_ry(state, qubit, angle)
                dense = oracles.lift_one(n, qubit, oracles.ry_matrix(angle)) @ state.amplitudes
                assert np.allclose(out.amplitudes, dense, atol=1e-10)

    def test_inverse_rotation_restores(self):
        rng = np.random.default_rng(3)
        state = random_state(3, rng)
        out = apply_ry(apply_ry(state, 2, 1.234), 2, -1.234)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-10)


class TestApplyCx:
    def test_control_on_flips_target(self):
        # basis index 1 = qubit 0 set; CX(0, 1) sends it to index 3
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0
        out = apply_cx(QuantumState(2, amps), 0, 1)
        expected = np.zeros(4)
        expected[3] = 1.0
        assert np.allclose(out.amplitudes, expected)

    def test_control_off_is_identity(self):
        out = apply_cx(zero_state(2), 0, 1)
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        state = random_state(2, rng)
        out = apply_cx(state, 1, 0)
        dense = oracles.cx_matrix(2, 1, 0) @ state.amplitudes
        assert np.allclose(out.amplitudes, dense, atol=1e-12)

    def test_self_inverse(self):
        rng = np.random.default_rng(13)
        state = random_state(3, rng)
        out = apply_cx(apply_cx(state, 0, 2), 0, 2)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_bad_indices(self):
        state = zero_state(2)
        with pytest.raises(IndexError):
            apply_cx(state, 0, 0)
        with pytest.raises(IndexError):
            apply_cx(state, 0, 2)


class TestExpectation:
    def test_z_on_zero_state(self):
        assert expectation(zero_state(1), Observable(((1.0, "Z"),))) == pytest.approx(1.0)

    def test_z_on_equal_superposition(self):
        state = apply_ry(zero_state(1), 0, np.pi / 2)
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
            expectation(zero_state(2), Observable(((1.0, "Z"),)))


class TestProbabilities:
    def test_zero_state(self):
        assert np.array_equal(probabilities(zero_state(1)), [1, 0])

    def test_equal_superposition(self):
        state = QuantumState(1, np.array([SQ2, SQ2]))
        assert np.allclose(probabilities(state), [0.5, 0.5], atol=1e-12)

    def test_squared_magnitudes_sum_to_one(self):
        rng = np.random.default_rng(29)
        state = random_state(3, rng)
        probs = probabilities(state)
        assert np.allclose(probs, np.abs(state.amplitudes) ** 2, atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def shot_counts(state, shots, rng):
    """Histogram of one row's shot readout, recovered from its frequencies."""
    freqs = readout_batch(state.amplitudes[None, :], ShotSpec(shots), rng)[0]
    return np.rint(freqs * shots).astype(np.int64)


def z_expectations(amps):
    """<Z> on a one-qubit batch, row by row."""
    probs = np.abs(amps) ** 2
    return probs[:, 0] - probs[:, 1]


class TestSampleCounts:
    def test_degenerate_distribution(self):
        counts = shot_counts(zero_state(1), 100, np.random.default_rng(0))
        assert np.array_equal(counts, [100, 0])

    def test_same_seed_same_histogram(self):
        state = apply_ry(zero_state(2), 0, 1.1)
        a = shot_counts(state, 500, np.random.default_rng(42))
        b = shot_counts(state, 500, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_histogram_sums_to_shots(self):
        state = apply_ry(zero_state(2), 1, 0.7)
        counts = shot_counts(state, 1234, np.random.default_rng(5))
        assert counts.sum() == 1234

    def test_binomial_confidence_bound(self):
        state = QuantumState(1, np.array([SQ2, SQ2]))
        counts = shot_counts(state, 10000, np.random.default_rng(9))
        freq = counts[0] / 10000
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 10000)


class TestDepolarizing:
    def test_zero_epsilon_unchanged(self):
        rng = np.random.default_rng(0)
        amps = np.stack([random_state(2, np.random.default_rng(1)).amplitudes] * 8)
        out = amps.copy()
        depolarize_kernel(out, 0, 0.0, rng)
        assert np.array_equal(out, amps)

    def test_disabled_noise_unchanged(self):
        spec = CircuitSpec(2, 1)
        angles = np.array([[0.3, 1.2]])
        amps = np.stack([random_state(2, np.random.default_rng(2)).amplitudes] * 4)
        clean, disabled = amps.copy(), amps.copy()
        run_ansatz_kernel(clean, spec, angles, NoiseSpec.off(), None)
        run_ansatz_kernel(disabled, spec, angles, NoiseSpec(0.9, False),
                          np.random.default_rng(0))
        assert np.array_equal(disabled, clean)

    def test_trajectory_mean_matches_channel(self):
        # <Z> after the full-strength channel on |0>, vs the density-matrix value
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        channel_value = np.trace(oracles.Z @ oracles.depolarize_density(rho, 1.0)).real
        trials = 10000
        amps = np.tile(zero_state(1).amplitudes, (trials, 1))
        depolarize_kernel(amps, 0, 1.0, np.random.default_rng(31))
        assert abs(z_expectations(amps).mean() - channel_value) < 0.05

    def test_partial_epsilon_matches_channel(self):
        epsilon = 0.3
        state = apply_ry(zero_state(1), 0, 0.9)
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        channel_value = np.trace(oracles.Z @ oracles.depolarize_density(rho, epsilon)).real
        trials = 20000
        amps = np.tile(state.amplitudes, (trials, 1))
        depolarize_kernel(amps, 0, epsilon, np.random.default_rng(37))
        sigma = 1.0 / np.sqrt(trials)  # |<Z>| <= 1 bounds the spread
        assert abs(z_expectations(amps).mean() - channel_value) < 3 * sigma + 0.01

    def test_fixed_seed_deterministic(self):
        amps = np.stack([random_state(2, np.random.default_rng(s)).amplitudes
                         for s in range(3, 11)])
        a, b = amps.copy(), amps.copy()
        depolarize_kernel(a, 1, 0.8, np.random.default_rng(77))
        depolarize_kernel(b, 1, 0.8, np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_epsilon_range_validated(self):
        with pytest.raises(ConfigError):
            NoiseSpec(1.5, True)


def squared_modulus(amps):
    return amps.real * amps.real + np.imag(amps) * np.imag(amps)


def real_states(n, rows, rng):
    amps = rng.normal(size=(rows, 1 << n))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


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
        rng = np.random.default_rng(seed)
        depolarize_kernel(after, qubit, epsilon, rng)

        expected_rng = np.random.default_rng(seed)
        hit = expected_rng.random(rows) < epsilon
        which = expected_rng.integers(0, 3, rows)
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        assert set(which[hit]) == {0, 1, 2}
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
            state = random_state(n, rng)
            for _ in range(30):
                kind = rng.integers(0, 3 if n > 1 else 2)
                q = int(rng.integers(n))
                if kind == 0:
                    state = apply_ry(state, q, float(rng.normal()))
                elif kind == 1 or n == 1:
                    amps = state.amplitudes[None, :].copy()
                    depolarize_kernel(amps, q, 0.5, rng)
                    state = QuantumState(n, amps[0])
                else:
                    t = (q + 1 + int(rng.integers(n - 1))) % n
                    state = apply_cx(state, q, t)
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)


class TestEstimateExpectation:
    def test_exact_spec_delegates(self):
        rng = np.random.default_rng(43)
        state = random_state(2, rng)
        obs = random_observable(2, rng)
        est = estimate_expectation(state, obs, ShotSpec.exact(), np.random.default_rng(0))
        assert est == pytest.approx(expectation(state, obs), abs=1e-12)

    def test_identity_terms_are_exact(self):
        state = apply_ry(zero_state(1), 0, 1.3)
        obs = Observable(((0.7, "I"),))
        est = estimate_expectation(state, obs, ShotSpec(10), np.random.default_rng(0))
        assert est == pytest.approx(0.7, abs=1e-15)

    def test_deterministic_under_seed(self):
        rng_state = np.random.default_rng(5)
        state = random_state(2, rng_state)
        obs = Observable(((0.5, "XZ"), (-0.25, "YI"), (1.0, "ZZ")))
        a = estimate_expectation(state, obs, ShotSpec(200), np.random.default_rng(8))
        b = estimate_expectation(state, obs, ShotSpec(200), np.random.default_rng(8))
        assert a == b

    @pytest.mark.parametrize("label", ["X", "Y", "Z"])
    def test_single_pauli_converges(self, label):
        state = apply_ry(zero_state(1), 0, np.pi / 3)
        obs = Observable(((1.0, label),))
        exact = expectation(state, obs)
        shots = 40000
        est = estimate_expectation(state, obs, ShotSpec(shots), np.random.default_rng(101))
        sigma = np.sqrt(max(1.0 - exact * exact, 1e-12) / shots)
        assert abs(est - exact) <= 3 * sigma + 1e-3

    def test_multi_term_converges(self):
        rng = np.random.default_rng(53)
        state = random_state(2, rng)
        obs = Observable(((0.8, "XY"), (0.5, "ZI"), (0.3, "II")))
        exact = expectation(state, obs)
        est = estimate_expectation(state, obs, ShotSpec(40000), np.random.default_rng(55))
        # per-term spread bounded by |coef|; combine conservatively
        sigma = (0.8 + 0.5) / np.sqrt(40000)
        assert abs(est - exact) <= 3 * sigma + 1e-3
