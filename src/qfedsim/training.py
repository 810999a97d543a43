"""Local optimization: losses, parameter-shift gradients, proximal steps.

Two training modes share the machinery:

  - vqe: minimize the exact expectation <H> of an observable over the
    noiseless circuit run from |0...0> (no trajectory noise and no
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

A gradient is one flat array in ModelParams.vector order, so a step is one
expression on the flat parameter vector (see personalized_step). The
circuit-evaluation cost model lives in federation.RoundRecord.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, model
from .core import NoiseSpec, Observable, QuantumState, ShotSpec
from .exceptions import ConfigError, DataError, LabelError, NumericError, ShapeError
from .model import (
    CircuitSpec,
    ModelParams,
    check_params,
    run_circuit,
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
    """grad_parameter_shift's angle gradients, with zero head gradients,
    laid out as the parameters themselves (so finite by construction)."""

    gradient: ModelParams

    @property
    def angle_grads(self) -> np.ndarray:
        return self.gradient.angles


@dataclass(frozen=True)
class EncodedSet:
    """Amplitude-encoded rows and their logit indices, -1 marking an anomaly
    row (see LabeledDataset.logit_indices): a client's shard, the validation
    set or the centroid reference, encoded once and reused across rounds."""

    encoded: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class LocalTrainResult:
    params: ModelParams
    loss_trace: np.ndarray  # per-epoch mean loss, length = local_epochs


def loss_vqe(spec: CircuitSpec, params: ModelParams, observable: Observable) -> float:
    """Exact <H> on the noiseless ansatz output from |0...0>."""
    zero = QuantumState(spec.n_qubits, np.eye(1, spec.dim)[0])
    return core.expectation(run_circuit(spec, params, zero), observable)


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = labels[(labels < 0) | (labels >= n_classes)][0]
        raise LabelError(f"label {bad} outside [0, {n_classes})")


def _shifted_angles(angles: np.ndarray) -> np.ndarray:
    """The (2D + 1, layers, qubits) stack of the two-point rule over the D
    angles: the base matrix, then angle k shifted by +PARAMETER_SHIFT and by
    -PARAMETER_SHIFT for each k in row-major order."""
    count = angles.size
    stack = np.repeat(angles[None], 2 * count + 1, axis=0)
    flat, k = stack.reshape(2 * count + 1, count), np.arange(count)
    flat[2 * k + 1, k] += PARAMETER_SHIFT
    flat[2 * k + 2, k] -= PARAMETER_SHIFT
    return stack


def _shift_rule(values: np.ndarray, shape: tuple) -> np.ndarray:
    """Angle gradients [f(t + s) - f(t - s)] / 2 from the values at
    _shifted_angles(...)[1:]; a non-finite one raises NumericError naming
    its (layer, qubit) angle and sign."""
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericError(f"non-finite shifted value at angle "
                           f"{divmod(bad // 2, shape[1])}, shift {'+-'[bad % 2]}pi/2")
    return (0.5 * (values[0::2] - values[1::2])).reshape(shape)


def grad_parameter_shift(spec: CircuitSpec, params: ModelParams,
                         loss_closure) -> GradientEstimate:
    """Angle gradients by the two-point rule: [f(t + s) - f(t - s)] / 2 at
    the fixed shift s = PARAMETER_SHIFT = pi/2.

    `loss_closure` maps an angle matrix to a scalar loss and must be linear in
    the circuit readout (an expectation value, or a fixed linear functional of
    the probability vector); for such losses the rule at shift pi/2 is
    exact. It is called once per shifted matrix: angle k at +s, then at -s,
    for each k in row-major order. Head gradients are not the closure's
    business and are returned as zeros.
    """
    stack = _shifted_angles(params.angles)
    values = np.array([loss_closure(angles) for angles in stack[1:]], dtype=np.float64)
    gradient = ModelParams(_shift_rule(values, params.angles.shape),
                           np.zeros_like(params.head_weights),
                           np.zeros_like(params.head_bias))
    return GradientEstimate(gradient)


def _adjoint_angle_grads(spec: CircuitSpec, angles: np.ndarray, state: np.ndarray,
                         adjoint: np.ndarray) -> np.ndarray:
    """Angle gradient of sum(c * state**2) by one reverse sweep, given the
    real ansatz output `state` (B, 2**n) and `adjoint` = c * state.

    Layer by layer from the top, the CX layer is undone on the
    (state, adjoint) pair by one gather with its inverse index. The Ry
    gates of a layer commute and dRy(a)/da = Ry(a + pi) / 2, so with
    d(state**2) = 2 * state * d(state) angle (l, q) has derivative
    sum(adjoint * Ry_q(pi) state), read for all q at once; then the layer's
    Ry gates are undone with Ry(-a).
    """
    n = spec.n_qubits
    inverse = core.entangler_tables(n, spec.entangler_pairs()).inverse
    partners, signs = core.ry_pi_tables(n)
    undo = core.ry_matrices(-angles)
    pair = np.stack([state, adjoint])
    grads = np.empty_like(angles)
    for layer in reversed(range(spec.n_layers)):
        core.apply_cx_kernel(pair, inverse)
        grads[layer] = np.einsum("bj,qj,bqj->q", pair[1], signs, pair[0][:, partners])
        if layer:
            for q in range(n):
                core.apply_one_qubit_kernel(pair, q, undo[layer, q])
    return grads


def classify_loss_and_grad(spec: CircuitSpec, params: ModelParams, encoded: np.ndarray,
                           labels: np.ndarray, shots: ShotSpec, noise: NoiseSpec,
                           rng: np.random.Generator | None) -> tuple:
    """One batch's cross-entropy and full gradient (pre-encoded inputs).

    Returns (loss, gradient), the gradient a (P,) array in ModelParams.vector
    order. The head gradient is analytic from the base readout; the angle
    gradient is that of the functional sum(c * p(angles)), with the
    cotangent c frozen at the base parameters.

    In exact mode (no active noise, exact shots) one forward pass gives the
    real output amplitudes psi and p = psi**2, and one adjoint sweep (see
    _adjoint_angle_grads) seeded with c * psi gives every angle derivative.
    With active noise or finite shots the two-point rule differentiates the
    functional in one stochastic pass over the B rows tiled once per angle
    matrix of _shifted_angles. One readout samples every block's shots in
    stack order. The stack holds (2D + 1) * B * 2**n floats, about 38 MB at
    12 qubits, 3 layers and B = 16.

    A non-finite loss, shifted value or gradient (naming its part) raises
    NumericError.
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
        stack = _shifted_angles(params.angles)
        amps = np.tile(encoded, (stack.shape[0], 1))
        model.run_ansatz_kernel(amps, spec, stack, noise, rng)
        readout = model.readout_batch(amps, shots, rng).reshape(stack.shape[0], rows, -1)
        base = readout[0]
    delta, log_probs = model.head_softmax(params, base)
    loss = float(-log_probs[np.arange(rows), labels].mean())
    if not np.isfinite(loss):
        raise NumericError("non-finite batch loss")
    delta[np.arange(rows), labels] -= 1.0
    delta /= rows
    cotangent = delta @ params.head_weights
    if exact:
        angle_grads = _adjoint_angle_grads(spec, params.angles, state, cotangent * state)
    else:
        values = (cotangent * readout[1:]).reshape(len(stack) - 1, -1).sum(axis=1)
        angle_grads = _shift_rule(values, params.angles.shape)
    gradient = np.concatenate([angle_grads.ravel(), (delta.T @ base).ravel(),
                               delta.sum(axis=0)])
    try:
        model.check_finite(gradient, params.angles.shape, params.head_weights.shape)
    except NumericError as err:
        raise NumericError(f"gradient {err}") from None
    return loss, gradient


def personalized_step(params: ModelParams, gradient: np.ndarray, eta: float,
                      lam: float, global_params: ModelParams | None) -> ModelParams:
    """Proximal update w <- w - eta * (g + lam * (w - w_global)) on the whole
    parameter vector, angles and head alike. `gradient` g is in the
    vector's layout; any other shape raises ShapeError, never broadcasts.

    lam = 0 is plain gradient descent, w - eta * g, and needs no anchor; its
    trajectories do not depend on whether one is passed.
    """
    w = params.vector
    if gradient.shape != w.shape:
        raise ShapeError(f"{gradient.shape} gradient for {w.size} parameters")
    if lam == 0.0:
        return params.with_vector(w - eta * gradient)
    if global_params is None:
        raise ConfigError("personalized step with lam > 0 needs anchor parameters")
    if global_params.shapes != params.shapes:
        raise ShapeError("local and global parameter shapes differ")
    return params.with_vector(
        w - eta * (gradient + lam * (w - global_params.vector))
    )


def _train_vqe_loop(spec, params, observable, config, global_params):
    trace = np.zeros(config.local_epochs)
    for epoch in range(config.local_epochs):
        trace[epoch] = loss_vqe(spec, params, observable)

        def shifted_loss(angles):
            return loss_vqe(spec, params.with_angles(angles), observable)

        grad = grad_parameter_shift(spec, params, shifted_loss).gradient.vector
        params = personalized_step(params, grad, config.eta, config.lam, global_params)
    return LocalTrainResult(params, trace)


def local_train(spec: CircuitSpec, start_params: ModelParams, shard: EncodedSet | None,
                config: TrainConfig, global_params: ModelParams | None = None,
                shots: ShotSpec = ShotSpec.exact(), noise: NoiseSpec = NoiseSpec.off(),
                rng: np.random.Generator | None = None,
                observable: Observable | None = None) -> LocalTrainResult:
    """T local epochs of proximal mini-batch training.

    classify mode: `shard` is a non-empty EncodedSet of normal rows. Each
    epoch shuffles its rows and steps over mini-batches; the trace holds each
    epoch's sample-weighted mean batch loss, evaluated at the parameters the
    batch was seen with. `rng` drives the shuffles and every stochastic draw
    and is required, so that every run can be replayed.

    vqe mode: Algorithm-style observable minimization; `shard` is ignored
    (the loss consumes no data), one gradient step per epoch, and the trace
    holds the loss at the start of each step. `observable` is required;
    `shots` must be exact and `noise` off: <H> is read out exactly, on the
    noiseless circuit, so vqe mode draws nothing.
    """
    check_params(spec, start_params)
    if config.mode == MODE_VQE:
        if observable is None:
            raise ConfigError("vqe mode needs an observable")
        if not shots.is_exact:
            raise ConfigError(
                f"vqe mode reads <H> out exactly; got {shots.shots} shots"
            )
        if noise.active:
            raise ConfigError(
                f"vqe mode runs the noiseless circuit; got noise {noise.epsilon}"
            )
        return _train_vqe_loop(spec, start_params, observable, config, global_params)
    if rng is None:
        raise ConfigError("classify training needs a seeded generator; got rng=None")
    if shard is None or shard.encoded.shape[0] == 0:
        raise DataError("classify training needs a non-empty shard")
    encoded, labels = shard.encoded, shard.labels
    _check_labels(labels, start_params.n_classes)
    count = encoded.shape[0]
    params = start_params
    trace = np.zeros(config.local_epochs)
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
        trace[epoch] = loss_sum / count
    return LocalTrainResult(params, trace)
