"""Losses, parameter-shift gradients, SGD and proximal updates, local loops."""

import re

import numpy as np
import pytest

import oracles
from qfedsim import model
from qfedsim.core import (
    NoiseSpec,
    Observable,
    ShotSpec,
    apply_cx_kernel,
    apply_one_qubit_kernel,
    depolarize_kernel,
    ry_matrices,
)
from qfedsim.data import LabeledDataset
from qfedsim.encoding import encode_batch
from qfedsim.exceptions import ConfigError, DataError, LabelError, NumericError
from qfedsim.model import (
    LINEAR_CHAIN,
    RING,
    CircuitSpec,
    ModelParams,
    class_probabilities,
    head_scores,
    init_params,
    probability_batch,
    readout_batch,
)
from qfedsim.training import (
    MODE_CLASSIFY,
    MODE_VQE,
    TrainConfig,
    classify_loss_and_grad,
    cross_entropy,
    grad_parameter_shift,
    local_train,
    loss_vqe,
    personalized_step,
    sgd_step,
    train_on_encoded,
)

EXACT = ShotSpec.exact()
CLEAN = NoiseSpec.off()


def make_params(spec, n_classes, seed=0):
    return init_params(spec, n_classes, np.random.default_rng(seed))


def labeled(features, labels, n_classes):
    """Rows with class ids 0..n_classes-1, which are also their logit indices."""
    return LabeledDataset(features, labels, frozenset(range(n_classes)), frozenset())


def make_batch(rng, n_samples, n_features, n_classes):
    rows = [(rng.normal(size=n_features), int(rng.integers(n_classes)))
            for _ in range(n_samples)]
    return labeled([x for x, _ in rows], [c for _, c in rows], n_classes)


def batch_loss(spec, params, batch):
    """Exact mean cross-entropy of a batch against its logit indices."""
    encoded = encode_batch(batch.features, spec.n_qubits)
    readout = probability_batch(spec, params.angles, encoded, EXACT, CLEAN, None)
    return cross_entropy(params, readout, batch.logit_indices())


class TestLossVqe:
    def test_single_qubit_z_is_cosine(self):
        spec = CircuitSpec(1, 1)
        obs = Observable(((1.0, "Z"),))
        for theta in (0.0, 0.3, np.pi / 2, 2.2, -1.7):
            params = ModelParams(np.array([[theta]]), np.zeros((2, 2)), np.zeros(2))
            assert loss_vqe(spec, params, obs) == pytest.approx(np.cos(theta), abs=1e-12)

    def test_identity_observable_is_constant(self):
        spec = CircuitSpec(2, 2)
        obs = Observable(((0.37, "II"),))
        for seed in range(3):
            params = make_params(spec, 2, seed)
            assert loss_vqe(spec, params, obs) == pytest.approx(0.37, abs=1e-12)

    def test_matches_dense_rayleigh_quotient(self):
        rng = np.random.default_rng(31)
        spec = CircuitSpec(3, 2)
        obs = Observable(((0.8, "XYI"), (-0.5, "ZZZ"), (0.25, "IIX")))
        dense_h = oracles.observable_matrix(3, obs.terms)
        for seed in range(5):
            params = make_params(spec, 2, seed)
            unitary = oracles.ansatz_matrix(3, params.angles, spec.entangler_pairs())
            vec = unitary[:, 0]  # column on |000>
            assert loss_vqe(spec, params, obs) == pytest.approx(
                oracles.expectation_dense(vec, dense_h), abs=1e-10
            )

    def test_width_mismatch(self):
        from qfedsim.exceptions import ShapeError

        with pytest.raises(ShapeError):
            loss_vqe(CircuitSpec(2, 1), make_params(CircuitSpec(2, 1), 2),
                     Observable(((1.0, "Z"),)))


class TestLossClassify:
    """cross_entropy over an exact probability_batch readout."""

    def test_uniform_probabilities_give_log_c(self):
        # zero head makes every class score 0, hence uniform softmax
        spec = CircuitSpec(2, 1)
        for n_classes in (2, 3, 4):
            params = ModelParams(
                np.array([[0.5, 1.0]]), np.zeros((n_classes, 4)), np.zeros(n_classes)
            )
            batch = make_batch(np.random.default_rng(1), 5, 4, n_classes)
            assert batch_loss(spec, params, batch) == pytest.approx(
                np.log(n_classes), abs=1e-12
            )

    def test_confident_correct_prediction_is_zero_loss(self):
        spec = CircuitSpec(1, 1)
        params = ModelParams(
            np.array([[0.0]]), np.zeros((2, 2)), np.array([1000.0, 0.0])
        )
        batch = labeled([[1.0, 0.0]], [0], 2)
        assert batch_loss(spec, params, batch) == pytest.approx(0.0, abs=1e-12)

    def test_matches_hand_computation(self):
        # readout from the dense ansatz unitary, softmax written out
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 3, seed=7)
        batch = make_batch(np.random.default_rng(8), 3, 4, 3)
        unitary = oracles.ansatz_matrix(2, params.angles, spec.entangler_pairs())
        expected = 0.0
        for x, label in zip(batch.features, batch.labels):
            probs = np.abs(unitary @ (x / np.linalg.norm(x))) ** 2
            y = params.head_weights @ probs + params.head_bias
            expected -= np.log(np.exp(y[label]) / np.exp(y).sum()) / len(batch)
        assert batch_loss(spec, params, batch) == pytest.approx(expected, abs=1e-12)

    def test_label_out_of_range(self):
        spec = CircuitSpec(1, 1)
        params = make_params(spec, 2)
        with pytest.raises(LabelError):
            train_on_encoded(spec, params, encode_batch([[1.0]], 1), np.array([5]),
                             TrainConfig(), None, EXACT, CLEAN, np.random.default_rng(0))

    def test_empty_batch(self):
        spec = CircuitSpec(1, 1)
        params = make_params(spec, 2)
        with pytest.raises(DataError):
            train_on_encoded(spec, params, np.empty((0, 2)), np.empty(0, dtype=np.int64),
                             TrainConfig(), None, EXACT, CLEAN, np.random.default_rng(0))


class TestGradParameterShift:
    def test_cosine_gradient_at_half_pi(self):
        spec = CircuitSpec(1, 1)
        obs = Observable(((1.0, "Z"),))
        params = ModelParams(np.array([[np.pi / 2]]), np.zeros((2, 2)), np.zeros(2))

        def closure(angles):
            return loss_vqe(spec, params.with_angles(angles), obs)

        est = grad_parameter_shift(spec, params, closure)
        assert est.angle_grads[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert est.evals_used == 2

    def test_stationary_point(self):
        spec = CircuitSpec(1, 1)
        obs = Observable(((1.0, "Z"),))
        params = ModelParams(np.array([[0.0]]), np.zeros((2, 2)), np.zeros(2))

        def closure(angles):
            return loss_vqe(spec, params.with_angles(angles), obs)

        est = grad_parameter_shift(spec, params, closure)
        assert est.angle_grads[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_vqe_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for n, layers in ((2, 1), (3, 2), (2, 2)):
            spec = CircuitSpec(n, layers)
            obs = Observable(((1.0, "Z" * n), (0.5, "X" + "I" * (n - 1))))
            params = make_params(spec, 2, seed=int(rng.integers(1000)))

            def closure(angles):
                return loss_vqe(spec, params.with_angles(angles), obs)

            est = grad_parameter_shift(spec, params, closure)
            fd = oracles.finite_difference(closure, params.angles)
            assert np.allclose(est.angle_grads, fd, atol=1e-6)

    def test_classify_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        for n, layers in ((2, 1), (3, 2)):
            spec = CircuitSpec(n, layers)
            n_classes = 3
            params = make_params(spec, n_classes, seed=int(rng.integers(1000)))
            batch = make_batch(rng, 6, 1 << n, n_classes)
            encoded = encode_batch(batch.features, n)
            loss, est = classify_loss_and_grad(
                spec, params, encoded, batch.labels, EXACT, CLEAN, None
            )
            assert loss == pytest.approx(batch_loss(spec, params, batch), abs=1e-12)

            fd_angles = oracles.finite_difference(
                lambda a: batch_loss(spec, params.with_angles(a), batch),
                params.angles,
            )
            assert np.allclose(est.angle_grads, fd_angles, atol=1e-6)

            def head_loss(w):
                shifted = ModelParams(params.angles, w, params.head_bias)
                return batch_loss(spec, shifted, batch)

            fd_w = oracles.finite_difference(head_loss, params.head_weights)
            assert np.allclose(est.head_weight_grads, fd_w, atol=1e-6)

            def bias_loss(b):
                shifted = ModelParams(params.angles, params.head_weights, b)
                return batch_loss(spec, shifted, batch)

            fd_b = oracles.finite_difference(bias_loss, params.head_bias)
            assert np.allclose(est.head_bias_grads, fd_b, atol=1e-6)

    def test_eval_accounting_scales_with_batch(self):
        spec = CircuitSpec(2, 2)
        params = make_params(spec, 2, seed=3)
        rng = np.random.default_rng(5)
        encoded = encode_batch(rng.normal(size=(7, 4)), 2)
        labels = rng.integers(0, 2, size=7)
        _, est = classify_loss_and_grad(spec, params, encoded, labels, EXACT, CLEAN, None)
        assert est.evals_used == 2 * spec.quantum_param_count * 7


def ansatz_on_trajectory(spec, angles, amps, hit, which):
    """The ansatz gate by gate on one block of rows; noise site s (in gate
    order, CX control before target) applies the pre-drawn (hit[s], which[s])."""
    mats = ry_matrices(angles)
    sites = iter(zip(hit, which))
    for layer in range(spec.n_layers):
        for q in range(spec.n_qubits):
            apply_one_qubit_kernel(amps, q, mats[layer, q])
            depolarize_kernel(amps, q, *next(sites))
        for control, target in spec.entangler_pairs():
            apply_cx_kernel(amps, spec.n_qubits, control, target)
            depolarize_kernel(amps, control, *next(sites))
            depolarize_kernel(amps, target, *next(sites))


def per_shift_loss_and_grad(spec, params, encoded, labels, shots, noise, rng):
    """The per-shift reference: one ansatz pass for the base readout, then
    grad_parameter_shift over the cotangent functional, one pass per shifted
    angle matrix, each read out on its own.

    Under noise the trajectory of all S = 2D + 1 passes is drawn first, as
    one uniform and then one Pauli choice per (site, row) over S * B rows,
    and pass s runs on its columns s * B .. (s + 1) * B - 1."""
    rows = encoded.shape[0]
    passes = 2 * params.angles.size + 1
    if noise.active:
        sites = spec.n_layers * (spec.n_qubits + 2 * len(spec.entangler_pairs()))
        hit = rng.random((sites, passes * rows)) < noise.epsilon
        which = rng.integers(0, 3, (sites, passes * rows))
    blocks = iter(range(passes))

    def probabilities(angles):
        if not noise.active:
            return probability_batch(spec, angles, encoded, shots, noise, rng)
        block = next(blocks)
        cols = slice(block * rows, (block + 1) * rows)
        amps = encoded.copy()
        ansatz_on_trajectory(spec, angles, amps, hit[:, cols], which[:, cols])
        return readout_batch(amps, shots, rng)

    readout = probabilities(params.angles)
    loss = cross_entropy(params, readout, labels)
    delta = class_probabilities(head_scores(params, readout))
    delta[np.arange(rows), labels] -= 1.0
    delta /= rows
    cotangent = delta @ params.head_weights

    def functional(angles):
        return float((cotangent * probabilities(angles)).sum())

    est = grad_parameter_shift(spec, params, functional)
    return loss, est.angle_grads, delta.T @ readout, delta.sum(axis=0), rows * est.evals_used


def assert_same_gradient(spec, params, encoded, labels, shots, noise, seed):
    """The stochastic path against the reference, bit for bit, generator
    state included."""
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    loss, est = classify_loss_and_grad(spec, params, encoded, labels, shots, noise, rng_fast)
    ref = per_shift_loss_and_grad(spec, params, encoded, labels, shots, noise, rng_ref)
    assert loss == ref[0]
    assert np.array_equal(est.angle_grads, ref[1])
    assert np.array_equal(est.head_weight_grads, ref[2])
    assert np.array_equal(est.head_bias_grads, ref[3])
    assert est.evals_used == ref[4]
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


class TestStackedShiftGradient:
    """classify_loss_and_grad against the per-shift reference: the exact-mode
    adjoint sweep within 1e-10 and against finite differences; the stacked
    stochastic pass bit for bit, generator state included."""

    @pytest.mark.parametrize("n, layers", [(1, 1), (2, 1), (3, 2), (4, 3), (10, 3)])
    @pytest.mark.parametrize("entangler", [LINEAR_CHAIN, RING])
    @pytest.mark.parametrize("rows", [1, 7, 16])
    def test_exact_matches_per_shift_path(self, n, layers, entangler, rows):
        spec = CircuitSpec(n, layers, entangler)
        params = make_params(spec, 3, seed=10 * n + layers)
        rng = np.random.default_rng(rows)
        encoded = encode_batch(rng.normal(size=(rows, 1 << n)), n)
        labels = rng.integers(0, 3, size=rows)
        assert encoded.dtype == np.float64
        loss, est = classify_loss_and_grad(spec, params, encoded, labels, EXACT, CLEAN, None)
        ref = per_shift_loss_and_grad(spec, params, encoded, labels, EXACT, CLEAN, None)
        assert loss == ref[0]
        assert np.allclose(est.angle_grads, ref[1], rtol=0.0, atol=1e-10)
        assert np.array_equal(est.head_weight_grads, ref[2])
        assert np.array_equal(est.head_bias_grads, ref[3])
        assert est.evals_used == ref[4]

        def functional_loss(angles):
            readout = probability_batch(spec, angles, encoded, EXACT, CLEAN, None)
            return cross_entropy(params, readout, labels)

        fd = oracles.finite_difference(functional_loss, params.angles)
        assert np.allclose(est.angle_grads, fd, atol=1e-6)

    def test_noisy_finite_shots_keep_the_draw_order(self):
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 3, seed=8)
        rng = np.random.default_rng(9)
        encoded = encode_batch(rng.normal(size=(7, 8)), 3)
        labels = rng.integers(0, 3, size=7)
        assert_same_gradient(spec, params, encoded, labels, ShotSpec(200),
                             NoiseSpec(0.4), seed=12)

    @pytest.mark.parametrize("shots, noise", [(ShotSpec(200), CLEAN),
                                              (EXACT, NoiseSpec(0.4))])
    def test_noise_or_shots_alone_keep_the_draw_order(self, shots, noise):
        spec = CircuitSpec(3, 2, RING)
        params = make_params(spec, 2, seed=4)
        rng = np.random.default_rng(6)
        encoded = encode_batch(rng.normal(size=(7, 8)), 3)
        labels = rng.integers(0, 2, size=7)
        assert_same_gradient(spec, params, encoded, labels, shots, noise, seed=13)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_overflowing_head_raises_instead_of_returning_inf_or_nan(self, rows):
        # Finite head weights near the float limit: the cotangent overflows
        # at one row (NaN angle gradients), the loss at seven (inf).
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 3, seed=5)
        rng = np.random.default_rng(7)
        encoded = encode_batch(rng.normal(size=(rows, 8)), 3)
        labels = rng.integers(0, 3, size=rows)
        huge = ModelParams(params.angles, 1e308 * np.sign(params.head_weights),
                           params.head_bias)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                classify_loss_and_grad(spec, huge, encoded, labels, EXACT, CLEAN, None)

    @pytest.mark.parametrize("block, angle, sign", [(1, (0, 0), "+"), (4, (0, 1), "-"),
                                                    (11, (1, 2), "+"), (12, (1, 2), "-")])
    def test_non_finite_shifted_value_names_angle_and_sign(self, monkeypatch, block,
                                                           angle, sign):
        # Block 2k + 1 (2k + 2) of the stacked readout is angle k's +shift
        # (-shift) pass; poisoning one of its rows must name that angle.
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 3, seed=2)
        rng = np.random.default_rng(3)
        encoded = encode_batch(rng.normal(size=(4, 8)), 3)
        labels = rng.integers(0, 3, size=4)
        original = model.readout_batch

        def poisoned(amps, shots, gen):
            out = original(amps, shots, gen)
            out[4 * block + 2, 5] = np.nan
            return out

        monkeypatch.setattr(model, "readout_batch", poisoned)
        with pytest.raises(NumericError, match=re.escape(f"angle {angle}, shift {sign}pi/2")):
            classify_loss_and_grad(spec, params, encoded, labels, ShotSpec(64), CLEAN, rng)


def depolarized_probabilities(spec, angles, state, epsilon):
    """Diagonal of the density matrix after the noisy ansatz: each gate, then
    the depolarizing channel on every qubit it touched. The one-qubit channel
    of oracles.depolarize_density acts on the 2x2 blocks of that qubit's row
    and column indices (qubit q is tensor axis n - 1 - q)."""
    n = spec.n_qubits
    rho = np.outer(state, state).astype(complex)

    def channel(rho, q):
        axes = (n - 1 - q, 2 * n - 1 - q)
        t = np.moveaxis(rho.reshape((2,) * (2 * n)), axes, (-2, -1))
        t = oracles.depolarize_density(t, epsilon)
        return np.moveaxis(t, (-2, -1), axes).reshape(rho.shape)

    for layer in range(spec.n_layers):
        for q in range(n):
            u = oracles.lift_one(n, q, oracles.ry_matrix(angles[layer, q]))
            rho = channel(u @ rho @ u.conj().T, q)
        for control, target in spec.entangler_pairs():
            u = oracles.cx_matrix(n, control, target)
            rho = channel(channel(u @ rho @ u.conj().T, control), target)
    return rho.diagonal().real


class TestNoisyGradientInDistribution:
    """The stacked noisy gradient is unbiased: at a fixed cotangent its mean
    over independent trajectories is the gradient of the same functional of
    the density-matrix readout."""

    def test_mean_matches_density_matrix_gradient(self, monkeypatch):
        spec = CircuitSpec(3, 2)
        epsilon, rows, runs = 0.1, 16, 3000
        params = make_params(spec, 3, seed=21)
        rng = np.random.default_rng(22)
        encoded = encode_batch(rng.normal(size=(rows, 8)), 3)
        labels = rng.integers(0, 3, size=rows)
        # The cotangent is (softmax - onehot) / rows @ W; a constant softmax fixes it.
        softmax = class_probabilities(rng.normal(size=(rows, 3)))
        monkeypatch.setattr("qfedsim.training.class_probabilities", lambda y: softmax.copy())
        delta = softmax.copy()
        delta[np.arange(rows), labels] -= 1.0
        cotangent = delta / rows @ params.head_weights

        def density_functional(angles):
            return sum(float(cotangent[r] @ depolarized_probabilities(spec, angles, encoded[r],
                                                                      epsilon))
                       for r in range(rows))

        def noiseless_functional(angles):
            return float((cotangent * probability_batch(spec, angles, encoded, EXACT,
                                                        CLEAN, None)).sum())

        expected = oracles.finite_difference(density_functional, params.angles)
        noiseless = oracles.finite_difference(noiseless_functional, params.angles)
        gen = np.random.default_rng(23)
        samples = np.stack([
            classify_loss_and_grad(spec, params, encoded, labels, EXACT, NoiseSpec(epsilon),
                                   gen)[1].angle_grads
            for _ in range(runs)
        ])
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(runs)
        # Five standard errors per angle. Dropping the noise after CX targets,
        # or applying X where Y was drawn, moves the mean about nine; the
        # noiseless gradient lies far outside.
        assert np.all(np.abs(samples.mean(axis=0) - expected) < 5 * stderr)
        assert np.any(np.abs(samples.mean(axis=0) - noiseless) > 20 * stderr)


class TestSgdStep:
    def test_zero_gradient_is_identity(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=1)
        from qfedsim.training import GradientEstimate

        zero = GradientEstimate(
            np.zeros_like(params.angles),
            np.zeros_like(params.head_weights),
            np.zeros_like(params.head_bias),
            0,
        )
        out = sgd_step(params, zero, 0.5)
        assert np.array_equal(out.angles, params.angles)
        out2 = sgd_step(out, zero, 0.5)
        assert np.array_equal(out2.angles, params.angles)

    def test_scalar_update_rule(self):
        from qfedsim.training import GradientEstimate

        params = ModelParams(np.array([[1.0]]), np.zeros((1, 2)), np.zeros(1))
        grad = GradientEstimate(np.array([[2.0]]), np.zeros((1, 2)), np.zeros(1), 0)
        out = sgd_step(params, grad, 0.1)
        assert out.angles[0, 0] == pytest.approx(0.8, abs=1e-15)


class TestPersonalizedStep:
    def make_zero_grad(self, params):
        from qfedsim.training import GradientEstimate

        return GradientEstimate(
            np.zeros_like(params.angles),
            np.zeros_like(params.head_weights),
            np.zeros_like(params.head_bias),
            0,
        )

    def test_zero_lambda_reduces_to_sgd(self):
        spec = CircuitSpec(2, 2)
        params = make_params(spec, 2, seed=2)
        rng = np.random.default_rng(3)
        from qfedsim.training import GradientEstimate

        grad = GradientEstimate(
            rng.normal(size=params.angles.shape),
            rng.normal(size=params.head_weights.shape),
            rng.normal(size=params.head_bias.shape),
            0,
        )
        a = personalized_step(params, grad, 0.05, 0.0, None)
        b = sgd_step(params, grad, 0.05)
        assert np.array_equal(a.angles, b.angles)
        assert np.array_equal(a.head_weights, b.head_weights)
        assert np.array_equal(a.head_bias, b.head_bias)

    def test_at_anchor_proximal_vanishes(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=4)
        rng = np.random.default_rng(5)
        from qfedsim.training import GradientEstimate

        grad = GradientEstimate(
            rng.normal(size=params.angles.shape),
            rng.normal(size=params.head_weights.shape),
            rng.normal(size=params.head_bias.shape),
            0,
        )
        a = personalized_step(params, grad, 0.1, 0.7, params)
        b = sgd_step(params, grad, 0.1)
        assert np.allclose(a.angles, b.angles, atol=1e-15)
        assert np.allclose(a.head_weights, b.head_weights, atol=1e-15)

    def test_scalar_hand_evaluation(self):
        # w=1, g=0, lam=0.1, eta=0.01, w_global=0 -> 1 - 0.01*0.1*1 = 0.999
        params = ModelParams(np.array([[1.0]]), np.zeros((1, 2)), np.zeros(1))
        anchor = ModelParams(np.array([[0.0]]), np.zeros((1, 2)), np.zeros(1))
        out = personalized_step(params, self.make_zero_grad(params), 0.01, 0.1, anchor)
        assert out.angles[0, 0] == pytest.approx(0.999, abs=1e-15)

    def test_pull_strictly_decreases_distance(self):
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 3, seed=6)
        anchor = make_params(spec, 3, seed=7)
        zero = self.make_zero_grad(params)
        for eta, lam in ((0.01, 0.1), (0.1, 1.0), (0.5, 1.5)):
            if eta * lam >= 1:
                continue
            out = personalized_step(params, zero, eta, lam, anchor)
            before = np.linalg.norm(params.to_vector() - anchor.to_vector())
            after = np.linalg.norm(out.to_vector() - anchor.to_vector())
            assert after < before

    def test_missing_anchor_rejected(self):
        spec = CircuitSpec(1, 1)
        params = make_params(spec, 2)
        with pytest.raises(ConfigError):
            personalized_step(params, self.make_zero_grad(params), 0.1, 0.5, None)


class TestLocalTrain:
    def test_zero_eta_leaves_params_unchanged(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=8)
        batch = make_batch(np.random.default_rng(9), 8, 4, 2)
        config = TrainConfig(eta=0.0, lam=0.0, local_epochs=3, batch_size=4)
        result = local_train(spec, params, batch, config, rng=np.random.default_rng(10))
        assert np.array_equal(result.params.angles, params.angles)
        assert np.array_equal(result.params.head_weights, params.head_weights)
        assert len(result.loss_trace) == 3
        assert np.allclose(result.loss_trace, result.loss_trace[0], atol=1e-12)

    def test_vqe_reaches_analytic_minimum(self):
        # <Z> after Ry(theta) is cos(theta); minimum -1 at theta = pi
        spec = CircuitSpec(1, 1)
        start = ModelParams(np.array([[np.pi / 2]]), np.zeros((2, 2)), np.zeros(2))
        config = TrainConfig(eta=0.1, lam=0.0, local_epochs=200, batch_size=1, mode=MODE_VQE)
        result = local_train(
            spec, start, None, config,
            rng=np.random.default_rng(0), observable=Observable(((1.0, "Z"),)),
        )
        final_loss = loss_vqe(spec, result.params, Observable(((1.0, "Z"),)))
        assert final_loss <= -0.999
        assert result.loss_trace.min() <= -0.999

    def test_vqe_eval_accounting(self):
        spec = CircuitSpec(3, 2)  # D = 6
        start = make_params(spec, 2, seed=11)
        config = TrainConfig(eta=0.05, lam=0.0, local_epochs=17, batch_size=1, mode=MODE_VQE)
        result = local_train(
            spec, start, None, config,
            rng=np.random.default_rng(1), observable=Observable(((1.0, "ZZZ"),)),
        )
        assert result.evals_used == 2 * spec.quantum_param_count * 17

    def test_vqe_rejects_finite_shots(self):
        spec = CircuitSpec(1, 1)
        config = TrainConfig(mode=MODE_VQE)
        with pytest.raises(ConfigError, match="64 shots"):
            local_train(spec, make_params(spec, 2), None, config, shots=ShotSpec(64),
                        rng=np.random.default_rng(0), observable=Observable(((1.0, "Z"),)))

    def test_vqe_requires_observable(self):
        spec = CircuitSpec(1, 1)
        config = TrainConfig(mode=MODE_VQE)
        with pytest.raises(ConfigError):
            local_train(spec, make_params(spec, 2), None, config, rng=np.random.default_rng(0))

    def test_classify_requires_samples(self):
        spec = CircuitSpec(1, 1)
        config = TrainConfig(mode=MODE_CLASSIFY)
        with pytest.raises(DataError):
            local_train(spec, make_params(spec, 2), labeled(np.empty((0, 2)), [], 2), config,
                        rng=np.random.default_rng(0))

    def test_bit_identical_under_same_seed(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=12)
        batch = make_batch(np.random.default_rng(13), 10, 4, 2)
        config = TrainConfig(eta=0.05, lam=0.1, local_epochs=2, batch_size=4)
        runs = [
            local_train(spec, params, batch, config, global_params=params,
                        shots=ShotSpec(64), noise=NoiseSpec(0.1),
                        rng=np.random.default_rng(99))
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].params.to_vector(), runs[1].params.to_vector())
        assert np.array_equal(runs[0].loss_trace, runs[1].loss_trace)
        assert runs[0].evals_used == runs[1].evals_used

    def test_zero_lambda_trajectory_equals_plain_sgd(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=14)
        batch = make_batch(np.random.default_rng(15), 9, 4, 2)
        anchored = TrainConfig(eta=0.02, lam=0.0, local_epochs=3, batch_size=4)
        with_anchor = local_train(spec, params, batch, anchored, global_params=params,
                                  rng=np.random.default_rng(7))
        without_anchor = local_train(spec, params, batch, anchored, global_params=None,
                                     rng=np.random.default_rng(7))
        assert np.array_equal(
            with_anchor.params.to_vector(), without_anchor.params.to_vector()
        )

    def test_training_decreases_loss(self):
        rng = np.random.default_rng(16)
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=17)
        # two direction-separated classes so the task is learnable
        batch = labeled(
            [np.array([1.0, 0.1, 0.0, 0.0]) + 0.05 * rng.normal(size=4) for _ in range(8)]
            + [np.array([0.0, 0.0, 0.1, 1.0]) + 0.05 * rng.normal(size=4) for _ in range(8)],
            [0] * 8 + [1] * 8,
            2,
        )
        config = TrainConfig(eta=0.5, lam=0.0, local_epochs=30, batch_size=16)
        result = local_train(spec, params, batch, config, rng=np.random.default_rng(18))
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_train_on_encoded_matches_local_train(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=19)
        batch = make_batch(np.random.default_rng(20), 7, 4, 2)
        config = TrainConfig(eta=0.05, lam=0.1, local_epochs=2, batch_size=3)
        a = local_train(spec, params, batch, config, global_params=params,
                        rng=np.random.default_rng(21))
        b = train_on_encoded(spec, params, encode_batch(batch.features, 2), batch.labels, config,
                             params, EXACT, CLEAN, np.random.default_rng(21))
        assert np.array_equal(a.params.to_vector(), b.params.to_vector())
        assert np.array_equal(a.loss_trace, b.loss_trace)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(eta=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(lam=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(local_epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(mode="qaoa")

    def test_zero_eta_allowed(self):
        assert TrainConfig(eta=0.0).eta == 0.0
