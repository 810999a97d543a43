"""Local optimization: losses, parameter-shift gradients, SGD, proximal steps.

Two training modes share the machinery:

  - vqe: minimize the exact expectation <H> of an observable over the
    circuit run from |0...0> (optionally under trajectory noise; there is no
    shot-sampled readout of <H>). The loss is linear in the expectation, so
    the two-point shift rule differentiates it exactly.
  - classify: softmax cross-entropy on top of the linear head. The loss is
    nonlinear in the probability readout, so the angle gradient is taken of
    the linear functional sum(c * p(angles)), with the cotangent
    c = W^T (softmax(y) - onehot) frozen at the base parameters; its
    derivative equals the exact chain-rule gradient. Head gradients are
    analytic. In exact mode one adjoint sweep back through the circuit gives
    every angle derivative (Jones & Gacon, arXiv:2009.02823); with noise or
    finite shots the two-point shift rule differentiates the functional, all
    shifted angle matrices stacked into one stochastic ansatz pass (see
    classify_loss_and_grad).

`evals_used` counts gradient-rule circuit executions only (2 per angle per
probability readout): in exact VQE mode a T-step training consumes exactly
2 * D * T evaluations. This is the paper's parameter-shift cost model, what
the procedure would spend on hardware, and it is what `circuit_evals`
reports; it does not change when the simulator differentiates by the
adjoint method instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, model
from .core import NoiseSpec, Observable, QuantumState, ShotSpec
from .data import LabeledDataset
from .encoding import encode_batch
from .exceptions import ConfigError, DataError, LabelError, NumericError, ShapeError
from .model import (
    CircuitSpec,
    ModelParams,
    check_params,
    class_probabilities,
    head_scores,
    run_ansatz_kernel,
)

MODE_VQE = "vqe"
MODE_CLASSIFY = "classify"

PARAMETER_SHIFT = np.pi / 2


@dataclass(frozen=True)
class TrainConfig:
    """Local-training hyperparameters.

    `lam` is the proximal weight pulling local parameters toward the round's
    broadcast anchor (0 disables personalization and reduces every update to
    plain SGD, bit for bit).
    """

    eta: float = 0.01
    lam: float = 0.1
    local_epochs: int = 20
    batch_size: int = 16
    mode: str = MODE_CLASSIFY

    def __post_init__(self):
        if self.eta < 0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        if self.lam < 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.local_epochs < 1:
            raise ConfigError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.mode not in (MODE_VQE, MODE_CLASSIFY):
            raise ConfigError(f"mode must be '{MODE_VQE}' or '{MODE_CLASSIFY}', got {self.mode!r}")


@dataclass(frozen=True)
class GradientEstimate:
    """Gradient of a loss w.r.t. every model parameter, plus work accounting."""

    angle_grads: np.ndarray
    head_weight_grads: np.ndarray
    head_bias_grads: np.ndarray
    evals_used: int

    def __post_init__(self):
        for name in ("angle_grads", "head_weight_grads", "head_bias_grads"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class LocalTrainResult:
    params: ModelParams
    loss_trace: np.ndarray  # per-epoch mean loss, length = local_epochs
    evals_used: int


def loss_vqe(spec: CircuitSpec, params: ModelParams, observable: Observable,
             noise: NoiseSpec = NoiseSpec.off(),
             rng: np.random.Generator | None = None) -> float:
    """Exact <H> on the ansatz output from |0...0>."""
    check_params(spec, params)
    if observable.n_qubits != spec.n_qubits:
        raise ShapeError(
            f"observable on {observable.n_qubits} qubits does not match "
            f"circuit on {spec.n_qubits}"
        )
    amps = np.eye(1, spec.dim)  # |0...0> as a one-row batch
    run_ansatz_kernel(amps, spec, params.angles, noise, rng)
    return core.expectation(QuantumState(spec.n_qubits, amps[0]), observable)


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = labels[(labels < 0) | (labels >= n_classes)][0]
        raise LabelError(f"label {bad} outside [0, {n_classes})")


def cross_entropy(params: ModelParams, readout: np.ndarray, labels: np.ndarray) -> float:
    y = head_scores(params, readout)
    shifted = y - y.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    log_p = shifted[np.arange(len(labels)), labels] - log_norm
    return float(-log_p.mean())


def grad_parameter_shift(spec: CircuitSpec, params: ModelParams,
                         loss_closure) -> GradientEstimate:
    """Angle gradients by the two-point rule: [f(t + s) - f(t - s)] / 2 at
    the fixed shift s = PARAMETER_SHIFT = pi/2.

    `loss_closure` maps an angle matrix to a scalar loss and must be linear in
    the circuit readout (an expectation value, or a fixed linear functional of
    the probability vector); for such losses the rule at shift pi/2 is
    exact. Head gradients are not the closure's business and are
    returned as zeros; each closure call counts as one circuit execution.
    """
    base = params.angles
    grads = np.zeros_like(base)
    for idx in np.ndindex(*base.shape):
        plus = base.copy()
        plus[idx] += PARAMETER_SHIFT
        minus = base.copy()
        minus[idx] -= PARAMETER_SHIFT
        up, down = loss_closure(plus), loss_closure(minus)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError(f"non-finite loss at shifted angle {idx}")
        grads[idx] = 0.5 * (up - down)
    return GradientEstimate(
        grads,
        np.zeros_like(params.head_weights),
        np.zeros_like(params.head_bias),
        2 * base.size,
    )


def _adjoint_angle_grads(spec: CircuitSpec, angles: np.ndarray, state: np.ndarray,
                         adjoint: np.ndarray) -> np.ndarray:
    """Angle gradient of sum(c * state**2) by one reverse sweep, given the
    real ansatz output `state` (B, 2**n) and `adjoint` = c * state.

    Layer by layer from the top, the CX gates are undone on the
    (state, adjoint) pair. The Ry gates of a layer commute and
    dRy(a)/da = Ry(a + pi) / 2, so with d(state**2) = 2 * state * d(state)
    angle (l, q) has derivative sum(adjoint * Ry_q(pi) state), read for all
    q at once; then the layer's Ry gates are undone with Ry(-a).
    """
    n = spec.n_qubits
    pairs = spec.entangler_pairs()[::-1]
    partners, signs = core.ry_pi_tables(n)
    undo = core.ry_matrices(-angles)
    pair = np.stack([state, adjoint])
    grads = np.empty_like(angles)
    for layer in reversed(range(spec.n_layers)):
        for control, target in pairs:
            core.apply_cx_kernel(pair, n, control, target)
        grads[layer] = np.einsum("bj,qj,bqj->q", pair[1], signs, pair[0][:, partners])
        if layer:
            for q in range(n):
                core.apply_one_qubit_kernel(pair, q, undo[layer, q])
    return grads


def classify_loss_and_grad(spec: CircuitSpec, params: ModelParams, encoded: np.ndarray,
                           labels: np.ndarray, shots: ShotSpec, noise: NoiseSpec,
                           rng: np.random.Generator | None) -> tuple:
    """One batch's cross-entropy and full gradient (pre-encoded inputs).

    Returns (loss, GradientEstimate). The head gradient is analytic from the
    base readout; the angle gradient is that of the functional
    sum(c * p(angles)), with the cotangent c frozen at the base parameters.

    In exact mode (no active noise, exact shots) one forward pass gives the
    real output amplitudes psi and p = psi**2, and one adjoint sweep (see
    _adjoint_angle_grads) seeded with c * psi gives every angle derivative.
    With active noise or finite shots the two-point rule differentiates the
    functional in one stochastic pass over a stack of 2D + 1 blocks of the
    B rows: the base angles, then angle k shifted by +pi/2 and by -pi/2 for
    each k in row-major order. One readout samples every block's shots in
    stack order. The stack holds (2D + 1) * B * 2**n floats, about 38 MB at
    12 qubits, 3 layers and B = 16.

    A non-finite loss, shifted value or gradient raises NumericError.
    `evals_used` is 2 * D * rows in both modes: the parameter-shift hardware
    cost the paper reports, not what the adjoint sweep costs the simulator.
    """
    rows = encoded.shape[0]
    exact = shots.is_exact and not noise.active
    # Looked up on the module, so that wrappers installed there (perfbench's
    # tracer) see the pass.
    if exact:
        state = encoded.copy()
        model.run_ansatz_kernel(state, spec, params.angles, noise, rng)
        base = model.readout_batch(state, shots, rng)
    else:
        count = params.angles.size
        stack = np.repeat(params.angles[None], 2 * count + 1, axis=0)
        flat, k = stack.reshape(2 * count + 1, count), np.arange(count)
        flat[2 * k + 1, k] += PARAMETER_SHIFT
        flat[2 * k + 2, k] -= PARAMETER_SHIFT
        amps = np.tile(encoded, (stack.shape[0], 1))
        model.run_ansatz_kernel(amps, spec, stack, noise, rng)
        readout = model.readout_batch(amps, shots, rng).reshape(stack.shape[0], rows, -1)
        base = readout[0]
    loss = cross_entropy(params, base, labels)
    if not np.isfinite(loss):
        raise NumericError("non-finite batch loss")
    delta = class_probabilities(head_scores(params, base))
    delta[np.arange(rows), labels] -= 1.0
    delta /= rows
    cotangent = delta @ params.head_weights
    if exact:
        angle_grads = _adjoint_angle_grads(spec, params.angles, state, cotangent * state)
    else:
        values = (cotangent * readout[1:]).reshape(2 * count, -1).sum(axis=1)
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise NumericError(f"non-finite shifted value at angle "
                               f"{divmod(bad // 2, spec.n_qubits)}, shift {'+-'[bad % 2]}pi/2")
        angle_grads = (0.5 * (values[0::2] - values[1::2])).reshape(params.angles.shape)
    return loss, GradientEstimate(
        angle_grads,
        delta.T @ base,
        delta.sum(axis=0),
        2 * params.angles.size * rows,
    )


def sgd_step(params: ModelParams, grad: GradientEstimate, eta: float) -> ModelParams:
    """Plain gradient descent: every parameter decremented by eta * gradient."""
    return ModelParams(
        params.angles - eta * grad.angle_grads,
        params.head_weights - eta * grad.head_weight_grads,
        params.head_bias - eta * grad.head_bias_grads,
    )


def personalized_step(params: ModelParams, grad: GradientEstimate, eta: float,
                      lam: float, global_params: ModelParams | None) -> ModelParams:
    """Proximal update w <- w - eta * (g + lam * (w - w_global)).

    The pull applies to the whole parameter vector, angles and head alike.
    lam = 0 takes the plain SGD path, so zero-weight trajectories are
    bit-identical to sgd_step trajectories.
    """
    if lam == 0.0:
        return sgd_step(params, grad, eta)
    if global_params is None:
        raise ConfigError("personalized step with lam > 0 needs anchor parameters")
    if params.angles.shape != global_params.angles.shape or \
            params.head_weights.shape != global_params.head_weights.shape:
        raise ShapeError("local and global parameter shapes differ")
    return ModelParams(
        params.angles - eta * (grad.angle_grads + lam * (params.angles - global_params.angles)),
        params.head_weights
        - eta * (grad.head_weight_grads + lam * (params.head_weights - global_params.head_weights)),
        params.head_bias
        - eta * (grad.head_bias_grads + lam * (params.head_bias - global_params.head_bias)),
    )


def _train_vqe_loop(spec, params, observable, config, global_params, noise, rng):
    trace = np.zeros(config.local_epochs)
    evals = 0
    for epoch in range(config.local_epochs):
        trace[epoch] = loss_vqe(spec, params, observable, noise, rng)

        def shifted_loss(angles):
            return loss_vqe(spec, params.with_angles(angles), observable, noise, rng)

        grad = grad_parameter_shift(spec, params, shifted_loss)
        params = personalized_step(params, grad, config.eta, config.lam, global_params)
        evals += grad.evals_used
    return LocalTrainResult(params, trace, evals)


def local_train(spec: CircuitSpec, start_params: ModelParams,
                dataset_shard: LabeledDataset | None, config: TrainConfig,
                global_params: ModelParams | None = None,
                shots: ShotSpec = ShotSpec.exact(), noise: NoiseSpec = NoiseSpec.off(),
                rng: np.random.Generator | None = None,
                observable: Observable | None = None) -> LocalTrainResult:
    """T local epochs of proximal mini-batch training.

    classify mode: `dataset_shard` is a non-empty LabeledDataset whose rows
    train against their logit indices; it is encoded once and handed to
    train_on_encoded.

    vqe mode: Algorithm-style observable minimization; `dataset_shard` is
    ignored (the loss consumes no data), one gradient step per epoch, and the
    trace holds the loss at the start of each step. `observable` is required,
    and `shots` must be exact: <H> is read out exactly.
    """
    check_params(spec, start_params)
    if rng is None:
        rng = np.random.default_rng()
    if config.mode == MODE_VQE:
        if observable is None:
            raise ConfigError("vqe mode needs an observable")
        if not shots.is_exact:
            raise ConfigError(
                f"vqe mode reads <H> out exactly; got {shots.shots} shots"
            )
        return _train_vqe_loop(
            spec, start_params, observable, config, global_params, noise, rng
        )
    if dataset_shard is None:
        raise DataError("classify training needs a non-empty shard")
    return train_on_encoded(
        spec, start_params, encode_batch(dataset_shard.features, spec.n_qubits),
        dataset_shard.logit_indices(), config, global_params, shots, noise, rng,
    )


def train_on_encoded(spec: CircuitSpec, start_params: ModelParams, encoded: np.ndarray,
                     labels: np.ndarray, config: TrainConfig,
                     global_params: ModelParams | None, shots: ShotSpec,
                     noise: NoiseSpec, rng: np.random.Generator) -> LocalTrainResult:
    """classify-mode local training over pre-encoded inputs and logit labels.

    Each epoch shuffles the rows (from `rng`) and steps over mini-batches.
    The trace holds each epoch's sample-weighted mean batch loss, evaluated at
    the parameters the batch was seen with.
    """
    check_params(spec, start_params)
    count = encoded.shape[0]
    if count == 0:
        raise DataError("classify training needs a non-empty shard")
    _check_labels(labels, start_params.n_classes)
    params = start_params
    trace = np.zeros(config.local_epochs)
    evals = 0
    for epoch in range(config.local_epochs):
        order = rng.permutation(count)
        loss_sum = 0.0
        for start in range(0, count, config.batch_size):
            sel = order[start : start + config.batch_size]
            loss, grad = classify_loss_and_grad(
                spec, params, encoded[sel], labels[sel], shots, noise, rng
            )
            params = personalized_step(params, grad, config.eta, config.lam, global_params)
            loss_sum += loss * sel.size
            evals += grad.evals_used
        trace[epoch] = loss_sum / count
    return LocalTrainResult(params, trace, evals)
