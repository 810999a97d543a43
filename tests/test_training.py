"""Losses, parameter-shift gradients, SGD and proximal updates, local loops."""

import re

import numpy as np
import pytest

import oracles
from oracles import probability_batch
from qfedsim import model, training
from qfedsim.core import (
    NoiseSpec,
    Observable,
    ShotSpec,
)
from qfedsim.data import LabeledDataset
from qfedsim.encoding import encode_batch
from qfedsim.exceptions import ConfigError, DataError, LabelError, NumericError, ShapeError
from qfedsim.model import (
    LINEAR_CHAIN,
    RING,
    CircuitSpec,
    ModelParams,
    head_softmax,
    init_params,
    readout_batch,
)
from qfedsim.training import (
    MODE_CLASSIFY,
    MODE_VQE,
    ClientFailure,
    EncodedSet,
    TrainConfig,
    classify_loss_and_grad,
    grad_parameter_shift,
    local_train,
    loss_vqe,
    personalized_step,
    train_lockstep,
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


def shard_of(spec, batch):
    """A batch as local_train takes it: encoded rows and logit indices."""
    return EncodedSet(encode_batch(batch.features, spec.n_qubits), batch.logit_indices())


def as_params(params, gradient):
    """A flat gradient viewed in the parameters' layout: .angles,
    .head_weights and .head_bias are its three parts."""
    return params.with_vector(gradient)


def loss_and_grad(spec, params, encoded, labels, shots, noise, rng):
    """classify_loss_and_grad for one client: (loss, flat gradient), raising
    the failure it reports."""
    losses, gradients, failures = classify_loss_and_grad(
        spec, params.shapes, params.vector[None], [EncodedSet(encoded, labels)], shots,
        [noise], [rng])
    if failures:
        raise failures[0]
    return float(losses[0]), gradients[0]


def batch_loss(spec, params, batch):
    """Exact mean cross-entropy of a batch against its logit indices, read
    off head_softmax's log-probabilities."""
    encoded = encode_batch(batch.features, spec.n_qubits)
    _, log_probs = head_softmax(params, probability_batch(spec, params.angles, encoded))
    labels = batch.logit_indices()
    return float(-log_probs[np.arange(len(labels)), labels].mean())


# Test-local references that share no code with the package: the two-point
# rule as a per-angle loop, and the head evaluated twice, once for a
# log-sum-exp cross-entropy and once for a separate softmax.

def reference_shift_gradient(angles, closure):
    """[f(t + s) - f(t - s)] / 2 at s = pi/2, one angle at a time in
    row-major order, +s before -s."""
    grads = np.zeros_like(angles)
    for idx in np.ndindex(*angles.shape):
        plus = angles.copy()
        plus[idx] += np.pi / 2
        minus = angles.copy()
        minus[idx] -= np.pi / 2
        grads[idx] = 0.5 * (closure(plus) - closure(minus))
    return grads


def reference_cross_entropy(params, readout, labels):
    y = readout @ params.head_weights.T + params.head_bias
    shifted = y - y.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    return float(-(shifted[np.arange(len(labels)), labels] - log_norm).mean())


def reference_softmax(y):
    shifted = y - y.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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
    """The cross-entropy of head_softmax over an exact probability_batch
    readout."""

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
            local_train(spec, params, EncodedSet(encode_batch([[1.0]], 1), np.array([5])),
                        TrainConfig(), rng=np.random.default_rng(0))

    def test_empty_batch(self):
        spec = CircuitSpec(1, 1)
        params = make_params(spec, 2)
        with pytest.raises(DataError):
            local_train(spec, params, EncodedSet(np.empty((0, 2)), np.empty(0, dtype=np.int64)),
                        TrainConfig(), rng=np.random.default_rng(0))


class TestGradParameterShift:
    def test_cosine_gradient_at_half_pi(self):
        spec = CircuitSpec(1, 1)
        obs = Observable(((1.0, "Z"),))
        params = ModelParams(np.array([[np.pi / 2]]), np.zeros((2, 2)), np.zeros(2))

        def closure(angles):
            return loss_vqe(spec, params.with_angles(angles), obs)

        est = grad_parameter_shift(spec, params, closure)
        assert est.angle_grads[0, 0] == pytest.approx(-1.0, abs=1e-12)

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
            loss, gradient = loss_and_grad(
                spec, params, encoded, batch.labels, EXACT, CLEAN, None
            )
            est = as_params(params, gradient)
            assert loss == pytest.approx(batch_loss(spec, params, batch), abs=1e-12)

            fd_angles = oracles.finite_difference(
                lambda a: batch_loss(spec, params.with_angles(a), batch),
                params.angles,
            )
            assert np.allclose(est.angles, fd_angles, atol=1e-6)

            def head_loss(w):
                shifted = ModelParams(params.angles, w, params.head_bias)
                return batch_loss(spec, shifted, batch)

            fd_w = oracles.finite_difference(head_loss, params.head_weights)
            assert np.allclose(est.head_weights, fd_w, atol=1e-6)

            def bias_loss(b):
                shifted = ModelParams(params.angles, params.head_weights, b)
                return batch_loss(spec, shifted, batch)

            fd_b = oracles.finite_difference(bias_loss, params.head_bias)
            assert np.allclose(est.head_bias, fd_b, atol=1e-6)

    @pytest.mark.parametrize("n, layers", [(1, 1), (2, 3), (3, 2)])
    def test_matches_the_per_angle_loop_bit_for_bit(self, n, layers):
        # The closure must see the same angle matrices in the same order as
        # the per-angle loop, and the gradient must be the same bits.
        spec = CircuitSpec(n, layers)
        obs = Observable(((1.0, "Z" * n), (-0.7, "X" * n)))
        params = make_params(spec, 2, seed=n + layers)
        seen, expected_seen = [], []

        def recording(log):
            def closure(angles):
                log.append(angles.copy())
                return loss_vqe(spec, params.with_angles(angles), obs)
            return closure

        est = grad_parameter_shift(spec, params, recording(seen))
        reference = reference_shift_gradient(params.angles, recording(expected_seen))
        assert est.angle_grads.tobytes() == reference.tobytes()
        assert len(seen) == 2 * params.angles.size
        assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, expected_seen))
        assert not est.gradient.head_weights.any() and not est.gradient.head_bias.any()


def ansatz_on_trajectory(spec, angles, amps, hit, which):
    """The ansatz gate by gate on one block of rows (oracles.per_gate_ansatz,
    its Ry gates by oracles.one_qubit_kernel); noise site s (in gate order, CX
    control before target) applies the pre-drawn (hit[s], which[s])."""
    mats = oracles.ry_matrices(angles)

    def apply_ry(rows, layer, qubit):
        oracles.one_qubit_kernel(rows, qubit, mats[layer, qubit])

    oracles.per_gate_ansatz(amps, spec.n_qubits, spec.n_layers, spec.entangler_pairs(),
                            apply_ry, hit, which)


def per_shift_loss_and_grad(spec, params, encoded, labels, shots, noise, rng):
    """The per-shift reference: one ansatz pass for the base readout, the
    two-pass head on it, then the per-angle shift loop over the cotangent
    functional, one pass per shifted angle matrix, each read out on its own.

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
        amps = encoded.copy()
        if noise.active:
            block = next(blocks)
            cols = slice(block * rows, (block + 1) * rows)
            ansatz_on_trajectory(spec, angles, amps, hit[:, cols], which[:, cols])
        else:
            model.run_ansatz_kernel(amps, spec, angles)
        return readout_batch(amps, shots, rng)

    readout = probabilities(params.angles)
    loss = reference_cross_entropy(params, readout, labels)
    delta = reference_softmax(readout @ params.head_weights.T + params.head_bias)
    delta[np.arange(rows), labels] -= 1.0
    delta /= rows
    cotangent = delta @ params.head_weights

    def functional(angles):
        return float((cotangent * probabilities(angles)).sum())

    angle_grads = reference_shift_gradient(params.angles, functional)
    return loss, angle_grads, delta.T @ readout, delta.sum(axis=0)


def assert_same_gradient(spec, params, encoded, labels, shots, noise, seed):
    """The stochastic path against the reference, bit for bit, generator
    state included."""
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    loss, gradient = loss_and_grad(spec, params, encoded, labels, shots, noise,
                                            rng_fast)
    ref = per_shift_loss_and_grad(spec, params, encoded, labels, shots, noise, rng_ref)
    est = as_params(params, gradient)
    assert loss == ref[0]
    assert np.array_equal(est.angles, ref[1])
    assert np.array_equal(est.head_weights, ref[2])
    assert np.array_equal(est.head_bias, ref[3])
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
        loss, gradient = loss_and_grad(spec, params, encoded, labels, EXACT, CLEAN,
                                                None)
        ref = per_shift_loss_and_grad(spec, params, encoded, labels, EXACT, CLEAN, None)
        est = as_params(params, gradient)
        assert loss == ref[0]
        assert np.allclose(est.angles, ref[1], rtol=0.0, atol=1e-10)
        assert np.array_equal(est.head_weights, ref[2])
        assert np.array_equal(est.head_bias, ref[3])

        def functional_loss(angles):
            readout = probability_batch(spec, angles, encoded)
            return reference_cross_entropy(params, readout, labels)

        fd = oracles.finite_difference(functional_loss, params.angles)
        assert np.allclose(est.angles, fd, atol=1e-6)

    @pytest.mark.parametrize("shots, noise", [(EXACT, CLEAN), (EXACT, NoiseSpec(0.4)),
                                              (ShotSpec(64), CLEAN)])
    @pytest.mark.parametrize("entangler", [LINEAR_CHAIN, RING])
    def test_one_softmax_matches_the_two_pass_head(self, shots, noise, entangler):
        # Loss and head gradients from one head_softmax call are the bits of
        # a log-sum-exp cross-entropy and a separate softmax on the same
        # readout; the angle gradients agree as in the tests above.
        spec = CircuitSpec(3, 2, entangler)
        params = make_params(spec, 3, seed=31)
        rng = np.random.default_rng(32)
        encoded = encode_batch(rng.normal(size=(9, 8)), 3)
        labels = rng.integers(0, 3, size=9)
        gen = None if shots.is_exact and not noise.active else np.random.default_rng(33)
        ref_gen = None if gen is None else np.random.default_rng(33)
        loss, gradient = loss_and_grad(spec, params, encoded, labels, shots, noise,
                                                gen)
        ref = per_shift_loss_and_grad(spec, params, encoded, labels, shots, noise, ref_gen)
        est = as_params(params, gradient)
        assert loss == ref[0]
        assert est.head_weights.tobytes() == ref[2].tobytes()
        assert est.head_bias.tobytes() == ref[3].tobytes()
        if gen is None:
            assert np.allclose(est.angles, ref[1], rtol=0.0, atol=1e-10)
        else:
            assert est.angles.tobytes() == ref[1].tobytes()

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

    @pytest.mark.parametrize("shots, noise", [(ShotSpec(200), NoiseSpec(0.4)),
                                              (ShotSpec(200), CLEAN),
                                              (EXACT, NoiseSpec(0.4))])
    def test_gradient_is_one_flat_vector(self, shots, noise):
        # One (P,) array in ModelParams.vector order: the reference's angle,
        # weight and bias parts concatenated, bit for bit.
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 3, seed=14)
        rng = np.random.default_rng(15)
        encoded = encode_batch(rng.normal(size=(7, 8)), 3)
        labels = rng.integers(0, 3, size=7)
        _, gradient = loss_and_grad(spec, params, encoded, labels, shots, noise,
                                             np.random.default_rng(16))
        ref = per_shift_loss_and_grad(spec, params, encoded, labels, shots, noise,
                                      np.random.default_rng(16))
        assert isinstance(gradient, np.ndarray)
        assert gradient.shape == params.vector.shape
        flat = np.concatenate([ref[1].ravel(), ref[2].ravel(), ref[3]])
        assert gradient.tobytes() == flat.tobytes()

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
        message = "^gradient angles " if rows == 1 else "batch loss"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=message):
                loss_and_grad(spec, huge, encoded, labels, EXACT, CLEAN, None)

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
        message = re.escape(f"non-finite shifted value at angle {angle}, shift {sign}pi/2")
        with pytest.raises(NumericError, match=message):
            loss_and_grad(spec, params, encoded, labels, ShotSpec(64), CLEAN, rng)
        # grad_parameter_shift calls its closure once per block after the
        # base, so call block - 1 is the same shifted angle.
        calls = iter(range(2 * params.angles.size))

        def closure(angles):
            return np.nan if next(calls) == block - 1 else 0.0

        with pytest.raises(NumericError, match=message):
            grad_parameter_shift(spec, params, closure)


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
        softmax = reference_softmax(rng.normal(size=(rows, 3)))
        monkeypatch.setattr(model, "softmax",
                            lambda scores: (softmax[None].copy(), np.log(softmax)[None]))
        delta = softmax.copy()
        delta[np.arange(rows), labels] -= 1.0
        cotangent = delta / rows @ params.head_weights

        def density_functional(angles):
            return sum(float(cotangent[r] @ depolarized_probabilities(spec, angles, encoded[r],
                                                                      epsilon))
                       for r in range(rows))

        def noiseless_functional(angles):
            return float((cotangent * probability_batch(spec, angles, encoded)).sum())

        expected = oracles.finite_difference(density_functional, params.angles)
        noiseless = oracles.finite_difference(noiseless_functional, params.angles)
        gen = np.random.default_rng(23)
        samples = np.stack([
            as_params(params, loss_and_grad(spec, params, encoded, labels, EXACT,
                                                     NoiseSpec(epsilon), gen)[1]).angles
            for _ in range(runs)
        ])
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(runs)
        # Five standard errors per angle. Dropping the noise after CX targets,
        # or applying X where Y was drawn, moves the mean about nine; the
        # noiseless gradient lies far outside.
        assert np.all(np.abs(samples.mean(axis=0) - expected) < 5 * stderr)
        assert np.any(np.abs(samples.mean(axis=0) - noiseless) > 20 * stderr)


def per_part_step(params, grad, eta, lam, anchor):
    """The update written out part by part, as a reference for the vector form."""
    g = as_params(params, grad)
    if lam == 0.0:
        return ModelParams(params.angles - eta * g.angles,
                           params.head_weights - eta * g.head_weights,
                           params.head_bias - eta * g.head_bias)
    return ModelParams(
        params.angles - eta * (g.angles + lam * (params.angles - anchor.angles)),
        params.head_weights
        - eta * (g.head_weights + lam * (params.head_weights - anchor.head_weights)),
        params.head_bias - eta * (g.head_bias + lam * (params.head_bias - anchor.head_bias)),
    )


def step(params, grad, eta, lam, anchor):
    """personalized_step on one parameter set's vector, as ModelParams."""
    anchor = None if anchor is None else anchor.vector
    return params.with_vector(personalized_step(params.vector, grad, eta, lam, anchor))


class TestSgdStep:
    """lam = 0: plain gradient descent through personalized_step."""

    def test_zero_gradient_is_identity(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=1)
        zero = np.zeros_like(params.vector)
        out = step(params, zero, 0.5, 0.0, None)
        assert np.array_equal(out.vector, params.vector)
        out2 = step(out, zero, 0.5, 0.0, None)
        assert np.array_equal(out2.vector, params.vector)

    def test_scalar_update_rule(self):
        params = ModelParams(np.array([[1.0]]), np.zeros((1, 2)), np.zeros(1))
        grad = ModelParams(np.array([[2.0]]), np.zeros((1, 2)), np.zeros(1)).vector
        out = step(params, grad, 0.1, 0.0, None)
        assert out.angles[0, 0] == pytest.approx(0.8, abs=1e-15)


class TestPersonalizedStep:
    def make_zero_grad(self, params):
        return np.zeros_like(params.vector)

    def random_grad(self, params, seed):
        return np.random.default_rng(seed).normal(size=params.vector.size)

    def test_zero_lambda_reduces_to_sgd(self):
        # lam = 0 is w - eta * g whether or not an anchor is passed
        spec = CircuitSpec(2, 2)
        params = make_params(spec, 2, seed=2)
        grad = self.random_grad(params, 3)
        a = step(params, grad, 0.05, 0.0, None)
        b = step(params, grad, 0.05, 0.0, make_params(spec, 2, seed=9))
        assert np.array_equal(a.vector, params.vector - 0.05 * grad)
        assert np.array_equal(a.vector, b.vector)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.5])
    @pytest.mark.parametrize("n, layers, n_classes", [(1, 1, 2), (3, 2, 3), (4, 1, 5)])
    def test_matches_per_part_reference(self, lam, n, layers, n_classes):
        spec = CircuitSpec(n, layers)
        params = make_params(spec, n_classes, seed=n)
        anchor = make_params(spec, n_classes, seed=n + 50)
        grad = self.random_grad(params, layers)
        out = step(params, grad, 0.07, lam, anchor)
        ref = per_part_step(params, grad, 0.07, lam, anchor)
        assert out.vector.tobytes() == ref.vector.tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_stacked_clients_step_as_each_alone(self, lam):
        # One (A, P) step: row a equals client a's vector stepped alone.
        spec = CircuitSpec(3, 2)
        anchor = make_params(spec, 3, seed=30)
        clients = np.stack([make_params(spec, 3, seed=31 + a).vector for a in range(4)])
        grads = np.random.default_rng(35).normal(size=clients.shape)
        out = personalized_step(clients, grads, 0.07, lam, anchor.vector)
        for a in range(4):
            alone = personalized_step(clients[a], grads[a], 0.07, lam, anchor.vector)
            assert out[a].tobytes() == alone.tobytes()

    def test_at_anchor_proximal_vanishes(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=4)
        grad = self.random_grad(params, 5)
        a = step(params, grad, 0.1, 0.7, params)
        b = step(params, grad, 0.1, 0.0, None)
        assert np.allclose(a.vector, b.vector, atol=1e-15)

    def test_scalar_hand_evaluation(self):
        # w=1, g=0, lam=0.1, eta=0.01, w_global=0 -> 1 - 0.01*0.1*1 = 0.999
        params = ModelParams(np.array([[1.0]]), np.zeros((1, 2)), np.zeros(1))
        anchor = ModelParams(np.array([[0.0]]), np.zeros((1, 2)), np.zeros(1))
        out = step(params, self.make_zero_grad(params), 0.01, 0.1, anchor)
        assert out.angles[0, 0] == pytest.approx(0.999, abs=1e-15)

    def test_pull_strictly_decreases_distance(self):
        spec = CircuitSpec(3, 2)
        params = make_params(spec, 3, seed=6)
        anchor = make_params(spec, 3, seed=7)
        zero = self.make_zero_grad(params)
        for eta, lam in ((0.01, 0.1), (0.1, 1.0), (0.5, 1.5)):
            if eta * lam >= 1:
                continue
            out = step(params, zero, eta, lam, anchor)
            before = np.linalg.norm(params.vector - anchor.vector)
            after = np.linalg.norm(out.vector - anchor.vector)
            assert after < before

    def test_missing_anchor_rejected(self):
        spec = CircuitSpec(1, 1)
        params = make_params(spec, 2)
        with pytest.raises(ConfigError):
            step(params, self.make_zero_grad(params), 0.1, 0.5, None)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("short", [1, "P - 1"])
    def test_gradient_of_another_shape_rejected(self, lam, short):
        # A (1,) gradient would otherwise broadcast over every parameter.
        params = make_params(CircuitSpec(2, 1), 2)
        size = 1 if short == 1 else params.vector.size - 1
        with pytest.raises(ShapeError, match="gradient"):
            step(params, np.zeros(size), 0.1, lam, params)

    def test_anchor_geometry_checked(self):
        params = make_params(CircuitSpec(2, 1), 2)
        for anchor in (make_params(CircuitSpec(2, 2), 2), make_params(CircuitSpec(2, 1), 3)):
            with pytest.raises(ShapeError):
                step(params, self.make_zero_grad(params), 0.1, 0.5, anchor)


class TestLocalTrain:
    def test_zero_eta_leaves_params_unchanged(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=8)
        batch = make_batch(np.random.default_rng(9), 8, 4, 2)
        config = TrainConfig(eta=0.0, lam=0.0, local_epochs=3, batch_size=4)
        result = local_train(spec, params, shard_of(spec, batch), config,
                             rng=np.random.default_rng(10))
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

    def test_vqe_rejects_finite_shots(self):
        spec = CircuitSpec(1, 1)
        config = TrainConfig(mode=MODE_VQE)
        with pytest.raises(ConfigError, match="64 shots"):
            local_train(spec, make_params(spec, 2), None, config, shots=ShotSpec(64),
                        rng=np.random.default_rng(0), observable=Observable(((1.0, "Z"),)))

    def test_vqe_rejects_noise(self):
        spec = CircuitSpec(1, 1)
        config = TrainConfig(mode=MODE_VQE)
        with pytest.raises(ConfigError, match="noise"):
            local_train(spec, make_params(spec, 2), None, config, noise=NoiseSpec(0.1),
                        rng=np.random.default_rng(0), observable=Observable(((1.0, "Z"),)))

    def test_classify_requires_generator(self):
        # without a generator the run could not be replayed
        spec = CircuitSpec(2, 1)
        batch = make_batch(np.random.default_rng(2), 4, 4, 2)
        with pytest.raises(ConfigError, match="generator"):
            local_train(spec, make_params(spec, 2), shard_of(spec, batch),
                        TrainConfig(local_epochs=1))

    def test_vqe_requires_observable(self):
        spec = CircuitSpec(1, 1)
        config = TrainConfig(mode=MODE_VQE)
        with pytest.raises(ConfigError):
            local_train(spec, make_params(spec, 2), None, config, rng=np.random.default_rng(0))

    def test_classify_requires_samples(self):
        spec = CircuitSpec(1, 1)
        config = TrainConfig(mode=MODE_CLASSIFY)
        with pytest.raises(DataError):
            local_train(spec, make_params(spec, 2), None, config, rng=np.random.default_rng(0))

    def test_bit_identical_under_same_seed(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=12)
        batch = make_batch(np.random.default_rng(13), 10, 4, 2)
        config = TrainConfig(eta=0.05, lam=0.1, local_epochs=2, batch_size=4)
        runs = [
            local_train(spec, params, shard_of(spec, batch), config, global_params=params,
                        shots=ShotSpec(64), noise=NoiseSpec(0.1),
                        rng=np.random.default_rng(99))
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].params.vector, runs[1].params.vector)
        assert np.array_equal(runs[0].loss_trace, runs[1].loss_trace)

    def test_zero_lambda_trajectory_equals_plain_sgd(self):
        spec = CircuitSpec(2, 1)
        params = make_params(spec, 2, seed=14)
        batch = make_batch(np.random.default_rng(15), 9, 4, 2)
        anchored = TrainConfig(eta=0.02, lam=0.0, local_epochs=3, batch_size=4)
        shard = shard_of(spec, batch)
        with_anchor = local_train(spec, params, shard, anchored, global_params=params,
                                  rng=np.random.default_rng(7))
        without_anchor = local_train(spec, params, shard, anchored, global_params=None,
                                     rng=np.random.default_rng(7))
        assert np.array_equal(
            with_anchor.params.vector, without_anchor.params.vector
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
        result = local_train(spec, params, shard_of(spec, batch), config,
                             rng=np.random.default_rng(18))
        assert result.loss_trace[-1] < result.loss_trace[0]


def ragged_shards(spec, sizes, n_classes, seed):
    """One EncodedSet per client, of the given row counts, with labels below
    n_classes."""
    rng = np.random.default_rng(seed)
    return [EncodedSet(encode_batch(rng.normal(size=(rows, spec.dim)), spec.n_qubits),
                       rng.integers(0, n_classes, size=rows)) for rows in sizes]


def client_rngs(seed, count):
    return [np.random.default_rng([seed, c]) for c in range(count)]


class TestTrainLockstep:
    """Clients trained in lockstep against each client trained alone through
    the same code (local_train, one client): parameters, loss traces and
    generator states equal bit for bit."""

    # Row counts as a Dirichlet(0.01) split deals them: ragged, one of a
    # single row; batches of 8 leave partial last batches, and clients drop
    # out of later steps.
    SIZES = (21, 1, 9, 34)

    def assert_same_as_alone(self, spec, shards, config, shots, noises, seed):
        start = make_params(spec, 3, seed=seed)
        anchor = make_params(spec, 3, seed=seed + 1)
        rngs = client_rngs(seed, len(shards))
        weights, traces = train_lockstep(spec, start, shards, config, anchor, shots, noises,
                                         rngs)
        assert weights.shape == (len(shards), start.vector.size)
        assert traces.shape == (len(shards), config.local_epochs)
        alone_rngs = client_rngs(seed, len(shards))
        for c, shard in enumerate(shards):
            alone = local_train(spec, start, shard, config, anchor, shots, noises[c],
                                alone_rngs[c])
            assert weights[c].tobytes() == alone.params.vector.tobytes(), c
            assert traces[c].tobytes() == alone.loss_trace.tobytes(), c
            assert rngs[c].bit_generator.state == alone_rngs[c].bit_generator.state, c

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("shots, epsilons", [
        (EXACT, (0.0,) * 4),
        (EXACT, (0.2,) * 4),
        (EXACT, (0.0, 0.3, 0.2, 0.0)),
        (ShotSpec(100), (0.0,) * 4),
        (ShotSpec(100), (0.1, 0.0, 0.3, 0.1)),
    ], ids=["exact", "noise", "mixed-noise", "shots", "shots-noise"])
    @pytest.mark.parametrize("n, layers, entangler", [(4, 1, LINEAR_CHAIN), (3, 2, LINEAR_CHAIN),
                                                      (3, 3, RING)])
    def test_ragged_clients_equal_each_client_alone(self, n, layers, entangler, shots,
                                                    epsilons, lam):
        spec = CircuitSpec(n, layers, entangler)
        shards = ragged_shards(spec, self.SIZES, 3, seed=10 * n + layers)
        config = TrainConfig(eta=0.3, lam=lam, local_epochs=2, batch_size=8)
        self.assert_same_as_alone(spec, shards, config, shots, tuple(map(NoiseSpec, epsilons)),
                                  seed=n + layers)

    @pytest.mark.parametrize("n, layers, sizes, epsilon, passes", [
        # 12 rows of 1024 amplitudes fit the budget once, not twice
        (10, 2, (12, 12, 12), 0.0, [1, 1, 1]),
        (4, 1, (16,) * 10, 0.0, [10]),
        # a noisy (4, 1) client holds 9 blocks of 16 rows: 7 per pass
        (4, 1, (16,) * 10, 0.1, [7, 3]),
    ])
    def test_passes_split_at_the_amplitude_budget(self, monkeypatch, n, layers, sizes,
                                                  epsilon, passes):
        spec = CircuitSpec(n, layers)
        shards = ragged_shards(spec, sizes, 3, seed=n)
        config = TrainConfig(eta=0.1, lam=0.1, local_epochs=1, batch_size=16)
        noises = (NoiseSpec(epsilon),) * len(sizes)
        seen = []
        original = training.classify_loss_and_grad

        def recorded(spec, shapes, weights, *args):
            seen.append(len(weights))
            return original(spec, shapes, weights, *args)

        monkeypatch.setattr(training, "classify_loss_and_grad", recorded)
        self.assert_same_as_alone(spec, shards, config, EXACT, noises, seed=3)
        assert seen[:len(passes)] == passes
        assert seen[len(passes):] == [1] * len(sizes)

    @staticmethod
    def overflow_setup(labels):
        """Head weights of +-1e308 on 2 qubits: a class-1 row's loss is
        infinite at the start, a class-0 row's loss and gradient are zero.
        labels[c] are client c's rows' labels, one row per batch."""
        spec = CircuitSpec(2, 1)
        start = ModelParams(np.zeros((1, 2)), np.array([[1e308] * 4, [-1e308] * 4]),
                            np.zeros(2))
        rng = np.random.default_rng(4)
        shards = [EncodedSet(encode_batch(rng.uniform(0.1, 1.0, size=(len(rows), 4)), 2),
                             np.array(rows)) for rows in labels]
        return spec, start, shards

    @pytest.mark.parametrize("case", ["earlier-step", "same-step", "update-before-batch"])
    def test_failure_names_the_lowest_failing_client_of_the_first_failing_step(self, case):
        # earlier-step: client 0 meets its class-1 row at step 1, client 1 at
        # step 0; one client after another would name client 0.
        # same-step: both fail in their batches at step 0.
        # update-before-batch: an anchor far out makes every update overflow
        # at step 0, where client 1's batch fails too; client 0's update
        # comes first.
        first = np.random.default_rng([7, 0]).permutation(2)
        client0 = [0, 0]
        client0[first[1]] = 1
        labels = {"earlier-step": [client0, [1]], "same-step": [[1], [1]],
                  "update-before-batch": [[0], [1]]}[case]
        spec, start, shards = self.overflow_setup(labels)
        anchor = start
        if case == "update-before-batch":
            anchor = start.with_vector(np.full(start.vector.size, -1e308))
        config = TrainConfig(eta=0.5, lam=1.0, local_epochs=1, batch_size=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ClientFailure) as failure:
                train_lockstep(spec, start, shards, config, anchor, EXACT,
                               (NoiseSpec.off(),) * 2, client_rngs(7, 2))
        expected = {"earlier-step": (1, "non-finite batch loss"),
                    "same-step": (0, "non-finite batch loss"),
                    "update-before-batch": (0, "head_weights contains non-finite entries")}[case]
        assert (failure.value.client, str(failure.value.error)) == expected
        assert isinstance(failure.value.error, NumericError)


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
