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
    every angle derivative (Jones & Gacon, arXiv:2009.02823), undoing each
    Ry gate with the coefficients the forward pass returns; with noise or
    finite shots the two-point shift rule differentiates the functional, all
    shifted angle matrices stacked into one stochastic ansatz pass (see
    classify_loss_and_grad).

A gradient is one flat array in ModelParams.vector order, so a step is one
expression on the flat parameter vector (see personalized_step).

Classify training has one path, train_lockstep, which trains many clients
together; local_train runs it with one client. The clients step in
lockstep, and each step runs one ansatz pass (and one adjoint sweep) over
every client's batch, each client's block at its own angles. The head, the
loss, the reductions and every random draw stay per client, so each client
gets the bits it would get trained alone; their parameters stay one
(clients, P) matrix up to the server's average. The circuit-evaluation cost
model lives in federation.RoundRecord.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, model
from .core import NoiseSpec, Observable, QuantumState, ShotSpec
from .exceptions import (ConfigError, DataError, LabelError, NumericError, ShapeError,
                         SimulationError)
from .model import (
    CircuitSpec,
    ModelParams,
    check_params,
    run_circuit,
)

MODE_VQE = "vqe"
MODE_CLASSIFY = "classify"

PARAMETER_SHIFT = np.pi / 2

# Clients share one lockstep ansatz pass while it holds at most this many
# amplitudes, S * B * 2**n per client (stack blocks, padded batch rows,
# amplitudes). Larger passes leave the cache: at 10 qubits and 3 layers,
# three 12-row clients per pass made whole runs about 9% slower than one
# client per pass.
LOCKSTEP_AMPLITUDES = 1 << 14


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
    """The (..., 2D + 1, layers, qubits) stack of the two-point rule over
    the D angles of each (layers, qubits) matrix in `angles`: the base
    matrix, then angle k shifted by +PARAMETER_SHIFT and by -PARAMETER_SHIFT
    for each k in row-major order."""
    count = angles.shape[-2] * angles.shape[-1]
    stack = np.repeat(angles[..., None, :, :], 2 * count + 1, axis=-3)
    flat, k = stack.reshape(stack.shape[:-2] + (count,)), np.arange(count)
    flat[..., 2 * k + 1, k] += PARAMETER_SHIFT
    flat[..., 2 * k + 2, k] -= PARAMETER_SHIFT
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


def _adjoint_angle_grads(spec: CircuitSpec, coefficients: tuple, pair: np.ndarray,
                         rows: list) -> np.ndarray:
    """(A, layers, qubits) angle gradients of each client's sum(c * state**2)
    by one reverse sweep over `pair` = (state, adjoint), (2, A, B, 2**n): the
    real ansatz output and c * state, client a's real rows the first rows[a]
    of block a. `coefficients` are the forward pass's Ry coefficients
    (diag, sines) that run_ansatz_kernel returns. The sweep works in place on
    `pair`.

    Layer by layer from the top, the CX layer is undone on the pair by one
    gather with its inverse index. The Ry gates of a layer commute and
    dRy(a)/da = Ry(a + pi) / 2, so with d(state**2) = 2 * state * d(state)
    angle (l, q) has derivative sum(adjoint * Ry_q(pi) state), read for all q
    at once on each client's own rows; then the layer's Ry gates are undone
    with Ry(-a), the forward gate transposed: (diag, -off), built as
    sin(a/2) * -signs.
    """
    n = spec.n_qubits
    inverse = spec.tables.inverse
    partners, signs = core.ry_pi_tables(n)
    diag, sines = coefficients
    grads = np.empty((len(rows), spec.n_layers, n))
    for layer in reversed(range(spec.n_layers)):
        core.apply_cx_kernel(pair, inverse)
        for a, count in enumerate(rows):
            grads[a, layer] = np.einsum("bj,qj,bqj->q", pair[1, a, :count], signs,
                                        pair[0, a, :count][:, partners])
        if layer:
            off = sines[layer] * -signs[:, None, None]
            for q in range(n):
                core.apply_one_qubit_kernel(pair, q, diag[layer, q], off[q])
    return grads


def _padded_trajectory(spec: CircuitSpec, shape: tuple, rows: list, noises, rngs):
    """The pass's (hit, which) over the padded (A, S, B) row layout: each
    noisy client's trajectory drawn on its own generator over its S * b real
    rows in stack order, as a pass of those rows alone would draw it. Pad
    rows and noiseless clients draw nothing; None when no client is noisy."""
    if not any(noise.active for noise in noises):
        return None
    hit = np.zeros((spec.n_layers, len(spec.tables.x_masks)) + shape, dtype=bool)
    which = np.zeros(hit.shape, dtype=np.int64)
    for a, (noise, rng, count) in enumerate(zip(noises, rngs, rows)):
        drawn = model.draw_trajectory(spec, noise, rng, shape[1] * count)
        for full, part in zip((hit, which), drawn or ()):
            full[:, :, a, :, :count] = part.reshape(part.shape[:2] + (shape[1], count))
    return hit.reshape(hit.shape[:2] + (-1,)), which.reshape(hit.shape[:2] + (-1,))


def classify_loss_and_grad(spec: CircuitSpec, shapes: tuple, weights: np.ndarray,
                           batches: list, shots: ShotSpec, noises, rngs) -> tuple:
    """Each of A clients' batch cross-entropy and full gradient, in one
    ansatz pass over all their batches.

    `weights` is the (A, P) matrix of the clients' parameter vectors in
    ModelParams.vector layout, `shapes` their ModelParams.shapes; `batches`,
    `noises` and `rngs` hold each client's EncodedSet batch, NoiseSpec and
    generator. Returns (losses, gradients, failures): the (A,) losses, the
    (A, P) gradients in the same layout, and a dict from client position to
    the NumericError its batch raised (non-finite class scores, loss,
    shifted value, or gradient part, named), whose loss and gradient row are
    NaN. Head gradients are analytic from the base readout; the angle
    gradient is that of the functional sum(c * p(angles)), with the
    cotangent c frozen at the base parameters.

    Every batch is padded with zero rows to the widest, and block a of the
    pass holds client a's rows, run at its own angles. In exact mode (exact
    shots, no client's noise active) the blocks hold the batches once; one
    adjoint sweep seeded with c * psi (see _adjoint_angle_grads) gives every
    angle derivative. Otherwise the two-point rule differentiates the
    functional: client a's block is its rows tiled once per angle matrix of
    _shifted_angles, each client's trajectory is drawn on its own generator
    before the pass (_padded_trajectory), and each client's readout samples
    its own blocks' shots in stack order. A stochastic pass holds
    A * (2D + 1) * B * 2**n floats.

    Head scores, cotangent, loss, head gradients and angle reductions run
    per client on its real rows only, so each client gets the bits that it
    gets alone: a matmul's rows can change in the last bit inside a taller
    matrix.
    """
    count, rows = len(batches), [batch.labels.size for batch in batches]
    width = max(rows)
    exact = shots.is_exact and not any(noise.active for noise in noises)
    views = model.param_views(weights, shapes)
    stack = views.angles if exact else _shifted_angles(views.angles)
    blocks = 1 if exact else stack.shape[1]
    # In exact mode amps[1] will hold the adjoint seed c * psi.
    amps = np.zeros((1 + exact, count, blocks, width, spec.dim))
    for a, batch in enumerate(batches):
        amps[0, a, :, :rows[a]] = batch.encoded
    flat = amps[0].reshape(-1, spec.dim)
    trajectory = None if exact else _padded_trajectory(spec, amps.shape[1:4], rows, noises, rngs)
    # Looked up on the module, so that wrappers installed there (perfbench's
    # tracer) see the pass.
    coefficients = model.run_ansatz_kernel(flat, spec, stack.reshape((-1,) + shapes[0]),
                                           trajectory)
    if shots.is_exact:
        readout = model.readout_batch(flat, shots, None).reshape(amps.shape[1:])
        readouts = [readout[a, :, :b] for a, b in enumerate(rows)]
    else:
        readouts = [model.readout_batch(amps[0, a, :, :b].reshape(-1, spec.dim), shots, rng)
                    .reshape(blocks, b, spec.dim) for a, (b, rng) in enumerate(zip(rows, rngs))]
    scores = np.zeros((count, width, shapes[2][0]))
    for a, b in enumerate(rows):
        scores[a, :b] = model.head_scores(views.head_weights[a], views.head_bias[a],
                                          readouts[a][0])
    failures = {}
    if not np.isfinite(scores).all():
        failures = {a: NumericError("class scores contain non-finite entries")
                    for a in np.flatnonzero(~np.isfinite(scores).all(axis=(1, 2))).tolist()}
        scores[list(failures)] = 0.0
    deltas, log_probs = model.softmax(scores)
    losses = np.empty(count)
    gradients = np.zeros(weights.shape)
    parts = model.param_views(gradients, shapes)
    cotangents = {}
    for a, (batch, b) in enumerate(zip(batches, rows)):
        if a in failures:
            continue
        labelled = np.arange(b), batch.labels
        # add.reduce / b is the bits of .mean() without its wrapper.
        losses[a] = -(np.add.reduce(log_probs[a][labelled]) / b)
        if not np.isfinite(losses[a]):
            failures[a] = NumericError("non-finite batch loss")
            continue
        delta = deltas[a, :b]
        delta[labelled] -= 1.0
        delta /= b
        if exact:
            # The adjoint seed c * psi, written in place: amps[1] of the pair.
            seed = amps[1, a, 0, :b]
            np.matmul(delta, views.head_weights[a], out=seed)
            seed *= amps[0, a, 0, :b]
        else:
            cotangents[a] = delta @ views.head_weights[a]
        np.matmul(delta.T, readouts[a][0], out=parts.head_weights[a])
        np.add.reduce(delta, axis=0, out=parts.head_bias[a])
    if exact:
        parts.angles[:] = _adjoint_angle_grads(spec, coefficients, amps[:, :, 0], rows)
    else:
        for a, cotangent in cotangents.items():
            values = (cotangent * readouts[a][1:]).reshape(blocks - 1, -1).sum(axis=1)
            try:
                parts.angles[a] = _shift_rule(values, shapes[0])
            except NumericError as err:
                failures[a] = err
    if not np.isfinite(gradients).all():
        for a in np.flatnonzero(~np.isfinite(gradients).all(axis=1)).tolist():
            try:
                model.check_finite(gradients[a], shapes)
            except NumericError as err:
                failures.setdefault(a, NumericError(f"gradient {err}"))
    if failures:
        losses[list(failures)] = gradients[list(failures)] = np.nan
    return losses, gradients, failures


def personalized_step(weights: np.ndarray, gradient: np.ndarray, eta: float,
                      lam: float, anchor: np.ndarray | None) -> np.ndarray:
    """Proximal update w <- w - eta * (g + lam * (w - w_global)) on
    parameter vectors in ModelParams.vector layout, angles and head alike:
    `weights` is one (P,) vector or an (A, P) matrix of clients, stepped by
    the same elementwise expression, and `anchor` the (P,) vector w_global.
    `gradient` g must have the shape of `weights`; any other raises
    ShapeError, never broadcasts. Returns the stepped array; the caller
    checks that it is finite.

    lam = 0 is plain gradient descent, w - eta * g, and needs no anchor; its
    trajectories do not depend on whether one is passed.
    """
    if gradient.shape != weights.shape:
        raise ShapeError(f"{gradient.shape} gradient for {weights.shape} parameters")
    if lam == 0.0:
        return weights - eta * gradient
    if anchor is None:
        raise ConfigError("personalized step with lam > 0 needs anchor parameters")
    if anchor.shape != weights.shape[-1:]:
        raise ShapeError("local and global parameter shapes differ")
    return weights - eta * (gradient + lam * (weights - anchor))


def _train_vqe_loop(spec, params, observable, config, global_params):
    anchor = None if global_params is None else global_params.vector
    trace = np.zeros(config.local_epochs)
    for epoch in range(config.local_epochs):
        trace[epoch] = loss_vqe(spec, params, observable)

        def shifted_loss(angles):
            return loss_vqe(spec, params.with_angles(angles), observable)

        grad = grad_parameter_shift(spec, params, shifted_loss).gradient.vector
        params = params.with_vector(
            personalized_step(params.vector, grad, config.eta, config.lam, anchor))
    return LocalTrainResult(params, trace)


class ClientFailure(SimulationError):
    """train_lockstep's failure: client `client` (its index in the list)
    raised `error`."""

    def __init__(self, client: int, error: Exception):
        super().__init__(f"client {client}: {error}")
        self.client, self.error = client, error


def _passes(stack_sizes: list, width: int, dim: int):
    """Slices of a step's active clients that share one ansatz pass: runs of
    clients with the same stack size S whose S * width * dim amplitudes
    each add up to at most LOCKSTEP_AMPLITUDES, one client at least."""
    start = 0
    while start < len(stack_sizes):
        size, stop = stack_sizes[start], start + 1
        while (stop < len(stack_sizes) and stack_sizes[stop] == size
               and (stop + 1 - start) * size * width * dim <= LOCKSTEP_AMPLITUDES):
            stop += 1
        yield slice(start, stop)
        start = stop


def _raise_first_failure(failures: dict, stepped: np.ndarray, shapes: tuple,
                        active: np.ndarray) -> None:
    """Raise ClientFailure for the lowest-position client of a step with a
    non-finite stepped row: its batch's failure, or else its non-finite
    stepped parameters."""
    first = int(np.flatnonzero(~np.isfinite(stepped).all(axis=1))[0])
    if first not in failures:
        try:
            model.check_finite(stepped[first], shapes)
        except NumericError as err:
            failures[first] = err
    raise ClientFailure(int(active[first]), failures[first]) from failures[first]


def train_lockstep(spec: CircuitSpec, start_params: ModelParams, shards: list,
                   config: TrainConfig, global_params: ModelParams | None, shots: ShotSpec,
                   noises, rngs) -> tuple:
    """Classify-mode local training of every client in `shards` at once, from
    `start_params`. Returns (weights, traces): the (C, P) matrix of the
    clients' final parameter vectors in ModelParams.vector layout and the
    (C, local_epochs) matrix of their loss traces, row c equal bit for bit
    to client c trained alone (local_train).

    Each client's shard is a non-empty EncodedSet of normal rows, and
    noises[c] and rngs[c] are its NoiseSpec and generator, which drives its
    shuffles and every stochastic draw. Each epoch every client shuffles its
    rows (one gather of its shard, whose slices are its batches), then the
    clients step in lockstep: step k takes batch k of every
    client that has one left, in one classify_loss_and_grad call per pass
    (see _passes), each writing its clients' rows of the step's losses and
    gradients, then one personalized_step over all of them. A client's
    trace holds each epoch's sample-weighted mean batch loss, evaluated at
    the parameters the batch was seen with.

    Failures raise ClientFailure(c, error). A shard or label error is found
    before any client trains. After that the error is that of the
    lowest-index client among those that fail at the first failing step:
    its batch's failure (see classify_loss_and_grad), whose NaN gradient
    row makes its stepped row NaN even at eta = 0, or else non-finite
    stepped parameters (naming the part).
    """
    check_params(spec, start_params)
    for client, (shard, rng) in enumerate(zip(shards, rngs)):
        try:
            if rng is None:
                raise ConfigError("classify training needs a seeded generator; got rng=None")
            if shard is None or shard.encoded.shape[0] == 0:
                raise DataError("classify training needs a non-empty shard")
            _check_labels(shard.labels, start_params.n_classes)
        except SimulationError as err:
            raise ClientFailure(client, err) from err
    shapes = start_params.shapes
    anchor = None if global_params is None else global_params.vector
    sizes = np.array([shard.encoded.shape[0] for shard in shards])
    stack_sizes = [1 if shots.is_exact and not noise.active else 2 * start_params.angles.size + 1
                   for noise in noises]
    # Every epoch steps the same clients with the same batch sizes.
    steps = []
    for start in range(0, sizes.max(), config.batch_size):
        active = np.flatnonzero(sizes > start)
        counts = np.minimum(sizes[active] - start, config.batch_size)
        passes = [(part, [noises[c] for c in active[part]], [rngs[c] for c in active[part]])
                  for part in _passes([stack_sizes[c] for c in active], counts.max(), spec.dim)]
        steps.append((start, active, counts, passes))
    weights = np.repeat(start_params.vector[None], len(shards), axis=0)
    traces = np.zeros((len(shards), config.local_epochs))
    for epoch in range(config.local_epochs):
        orders = [rng.permutation(size) for rng, size in zip(rngs, sizes)]
        shuffled = [EncodedSet(shard.encoded[order], shard.labels[order])
                    for shard, order in zip(shards, orders)]
        loss_sums = np.zeros(len(shards))
        for start, active, counts, passes in steps:
            stop = start + config.batch_size
            batches = [EncodedSet(shuffled[c].encoded[start:stop], shuffled[c].labels[start:stop])
                       for c in active]
            current = weights[active]
            losses, grads, failures = np.empty(len(active)), np.empty(current.shape), {}
            for part, pass_noises, pass_rngs in passes:
                losses[part], grads[part], failed = classify_loss_and_grad(
                    spec, shapes, current[part], batches[part], shots, pass_noises, pass_rngs)
                failures.update((part.start + k, err) for k, err in failed.items())
            stepped = personalized_step(current, grads, config.eta, config.lam, anchor)
            if not np.isfinite(stepped).all():
                _raise_first_failure(failures, stepped, shapes, active)
            weights[active] = stepped
            loss_sums[active] += losses * counts
        traces[:, epoch] = loss_sums / sizes
    return weights, traces


def local_train(spec: CircuitSpec, start_params: ModelParams, shard: EncodedSet | None,
                config: TrainConfig, global_params: ModelParams | None = None,
                shots: ShotSpec = ShotSpec.exact(), noise: NoiseSpec = NoiseSpec.off(),
                rng: np.random.Generator | None = None,
                observable: Observable | None = None) -> LocalTrainResult:
    """T local epochs of proximal mini-batch training.

    classify mode: train_lockstep with one client. `shard` is a non-empty
    EncodedSet of normal rows. Each epoch shuffles its rows and steps over
    mini-batches; the trace holds each epoch's sample-weighted mean batch
    loss, evaluated at the parameters the batch was seen with. `rng` drives
    the shuffles and every stochastic draw and is required, so that every
    run can be replayed. The client's error is raised as itself.

    vqe mode: Algorithm-style observable minimization; `shard` is ignored
    (the loss consumes no data), one gradient step per epoch, and the trace
    holds the loss at the start of each step. `observable` is required;
    `shots` must be exact and `noise` off: <H> is read out exactly, on the
    noiseless circuit, so vqe mode draws nothing.
    """
    if config.mode == MODE_VQE:
        check_params(spec, start_params)
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
    try:
        weights, traces = train_lockstep(spec, start_params, [shard], config, global_params,
                                         shots, [noise], [rng])
    except ClientFailure as failure:
        raise failure.error from None
    return LocalTrainResult(start_params.with_vector(weights[0]), traces[0])
