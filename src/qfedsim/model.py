"""The hybrid model: layered Ry/CX ansatz, probability readout, linear head.

One circuit layer applies Ry(angle[layer, q]) to every qubit q, then the
entangler CX pattern. The readout is the computational-basis probability
vector p (exact, or a frequency estimate from M shots); class scores are the
affine map y = W p + b, squashed by a stable softmax when probabilities are
needed.

Every gate is applied by `run_ansatz_kernel`, which acts in place on a
(rows, 2**n) amplitude array run at one (layers, qubits) angle matrix, or at
one per block of rows (training's lockstep pass: one block per client, or
per client and shifted angle matrix). Noise arrives as a trajectory drawn
beforehand (`draw_trajectory`). `run_circuit` runs it noiselessly on one
QuantumState. Training's adjoint sweep walks the same gates backwards with
the Ry coefficients the pass returns, each gate undone by its transpose (see
the training module).

Exact evaluation of a set of encoded rows (`class_probabilities`, for
validation and the centroid reference) streams the rows in blocks that stay
in cache and keeps only the (rows, classes) head outputs. Where the shape
rule (`circuit_matrix_pays`) says it pays, the kernels run once on the
identity's 2**n rows to give the circuit matrix M, and each block is then
one `block @ M`: equal to the kernels up to rounding, not bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import core
from .core import NoiseSpec, QuantumState, ShotSpec
from .exceptions import (
    CapacityError,
    ConfigError,
    DataError,
    NumericError,
    ParseError,
    ShapeError,
)

LINEAR_CHAIN = "linear-chain"
RING = "ring"

_CHECKPOINT_MAGIC = b"QFSP"
_CHECKPOINT_VERSION = 1

# Exact evaluation streams its rows in blocks of about this many amplitudes
# (512 KB of float64), so that a block stays in cache through its gates, its
# readout and the head (Goto & van de Geijn, ACM TOMS 34(3), 2008).
EVAL_BLOCK_AMPLITUDES = 1 << 16

# The circuit matrix's shape rule (circuit_matrix_pays): rows per amplitude,
# amplitudes per gate layer, and the widest matrix. Measured with one BLAS
# thread against the row-blocked kernels (see circuit_matrix_pays).
CIRCUIT_MATRIX_RULE = (4, 32, 1 << 11)


@dataclass(frozen=True)
class CircuitSpec:
    """Ansatz geometry: width, depth, and entangler pattern."""

    n_qubits: int
    n_layers: int
    entangler: str = LINEAR_CHAIN

    def __post_init__(self):
        if not 1 <= self.n_qubits <= core.MAX_QUBITS:
            raise CapacityError(
                f"n_qubits must lie in [1, {core.MAX_QUBITS}], got {self.n_qubits}"
            )
        if self.n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.entangler not in (LINEAR_CHAIN, RING):
            raise ConfigError(
                f"entangler must be '{LINEAR_CHAIN}' or '{RING}', got {self.entangler!r}"
            )

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def entangler_pairs(self) -> tuple:
        """CX (control, target) pairs per layer: the chain CX(i, i+1), with a
        ring closure CX(n-1, 0) only for n >= 3 (at n=2 the closure would just
        repeat the single chain pair)."""
        pairs = [(i, i + 1) for i in range(self.n_qubits - 1)]
        if self.entangler == RING and self.n_qubits >= 3:
            pairs.append((self.n_qubits - 1, 0))
        return tuple(pairs)

    @cached_property
    def tables(self) -> core.EntanglerTables:
        """The entangler layer's core.entangler_tables, looked up once."""
        return core.entangler_tables(self.n_qubits, self.entangler_pairs())


class ParamViews(NamedTuple):
    """The three parts of a (..., P) array in ModelParams.vector layout, as
    views with the same leading axes (see param_views)."""

    angles: np.ndarray
    head_weights: np.ndarray
    head_bias: np.ndarray


PART_NAMES = ParamViews._fields


def param_views(vector: np.ndarray, shapes: tuple) -> ParamViews:
    """Split a (..., P) array in ModelParams.vector layout into its angle
    (..., layers, qubits), head weight (..., classes, 2**n) and bias
    (..., classes) views, `shapes` being ModelParams.shapes. One (P,) vector
    gives one parameter set's parts, an (A, P) matrix the A stacked ones."""
    (layers, qubits), weight_shape, _ = shapes
    lead, angles_end = vector.shape[:-1], layers * qubits
    weights_end = angles_end + weight_shape[0] * weight_shape[1]
    return ParamViews(vector[..., :angles_end].reshape(lead + shapes[0]),
                      vector[..., angles_end:weights_end].reshape(lead + weight_shape),
                      vector[..., weights_end:])


@dataclass(frozen=True, init=False, eq=False)
class ModelParams:
    """Trainable parameters, kept as one read-only float64 `vector` copied
    from the constructor's arrays: [angles layer-major, W row-major, b], the
    params.bin payload. `angles` (n_layers, n_qubits), `head_weights`
    (n_classes, 2**n_qubits) and `head_bias` (n_classes,) are views of it.
    Steps, averaging, checksums and payload counts use the vector alone."""

    vector: np.ndarray
    angles: np.ndarray
    head_weights: np.ndarray
    head_bias: np.ndarray

    def __init__(self, angles, head_weights, head_bias):
        angles = np.asarray(angles, dtype=np.float64)
        weights = np.asarray(head_weights, dtype=np.float64)
        bias = np.asarray(head_bias, dtype=np.float64)
        if angles.ndim != 2:
            raise ShapeError(f"angles must be (layers, qubits), got shape {angles.shape}")
        if weights.ndim != 2 or bias.ndim != 1 or weights.shape[0] != bias.shape[0]:
            raise ShapeError(
                f"head shapes inconsistent: W {weights.shape}, b {bias.shape}"
            )
        self._adopt(np.concatenate([angles.ravel(), weights.ravel(), bias]),
                    (angles.shape, weights.shape, bias.shape))

    def _adopt(self, vector: np.ndarray, shapes: tuple) -> None:
        """Take ownership of a fresh float64 vector and view its parts."""
        check_finite(vector, shapes)
        vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)
        for name, part in zip(PART_NAMES, param_views(vector, shapes)):
            object.__setattr__(self, name, part)

    @property
    def n_classes(self) -> int:
        return self.head_bias.shape[0]

    @property
    def shapes(self) -> tuple:
        """(angles, head_weights, head_bias) shapes: the whole geometry."""
        return self.angles.shape, self.head_weights.shape, self.head_bias.shape

    def with_angles(self, angles: np.ndarray) -> "ModelParams":
        return ModelParams(angles, self.head_weights, self.head_bias)

    def with_vector(self, vector: np.ndarray) -> "ModelParams":
        """Parameters of this geometry holding a copy of `vector`."""
        vector = np.array(vector, dtype=np.float64)
        if vector.shape != self.vector.shape:
            raise ShapeError(f"{vector.shape} vector for {self.vector.size} parameters")
        params = object.__new__(ModelParams)
        params._adopt(vector, self.shapes)
        return params


def check_finite(vector: np.ndarray, shapes: tuple) -> None:
    """Raise NumericError naming the first part of a (P,) ModelParams.vector-
    layout array (angles, head_weights or head_bias) that holds a non-finite
    entry; `shapes` is ModelParams.shapes."""
    finite = np.isfinite(vector)
    if not finite.all():
        name = next(name for name, part in zip(PART_NAMES, param_views(finite, shapes))
                    if not part.all())
        raise NumericError(f"{name} contains non-finite entries")


def check_params(spec: CircuitSpec, params: ModelParams) -> None:
    if params.angles.shape != (spec.n_layers, spec.n_qubits):
        raise ShapeError(
            f"angles shape {params.angles.shape} does not match spec "
            f"({spec.n_layers}, {spec.n_qubits})"
        )
    if params.head_weights.shape[1] != spec.dim:
        raise ShapeError(
            f"head expects {params.head_weights.shape[1]} probabilities, "
            f"circuit produces {spec.dim}"
        )


def init_params(spec: CircuitSpec, n_classes: int, rng: np.random.Generator) -> ModelParams:
    """Seeded init: angles uniform on [0, pi), head weights uniform on
    [-0.1, 0.1], bias zero."""
    angles = rng.uniform(0.0, np.pi, size=(spec.n_layers, spec.n_qubits))
    weights = rng.uniform(-0.1, 0.1, size=(n_classes, spec.dim))
    return ModelParams(angles, weights, np.zeros(n_classes))


# ---------------------------------------------------------------------------
# Circuit evaluation.

def draw_trajectory(spec: CircuitSpec, noise: NoiseSpec, rng: np.random.Generator | None,
                    rows: int) -> tuple | None:
    """One depolarizing trajectory sample of `rows` rows through the ansatz,
    for run_ansatz_kernel: (hit, which), each (layers, sites, rows), drawn as
    one uniform per (site, row) and then one Pauli choice per (site, row).
    A layer's sites are its n Ry gates, then the control and the target of
    each CX (core.entangler_tables). None, drawing nothing, when the noise
    is off."""
    if not noise.active:
        return None
    shape = (spec.n_layers, len(spec.tables.x_masks), rows)
    hit = rng.random(shape) < noise.epsilon
    return hit, rng.integers(0, 3, shape)


def run_ansatz_kernel(amps: np.ndarray, spec: CircuitSpec, angles: np.ndarray,
                      trajectory: tuple | None = None) -> tuple:
    """Run the full ansatz in place on a C-contiguous (rows, 2**n) array at
    one (layers, qubits) angle matrix, or at an (S, layers, qubits) stack
    that splits the rows into S equal blocks, block s run at angles[s].

    Each layer's CX gates act as one gather (core.entangler_tables). A
    `trajectory` (hit, which) over the rows, drawn beforehand (see
    draw_trajectory), puts a depolarizing Pauli after every gate on every
    qubit the gate touched (CX: control first, then target) where drawn.
    Each layer's Paulis fold into one Pauli frame per row (core.pauli_frames),
    applied with the layer's gather after its Ry gates; a layer that leaves
    every row's frame the identity is the gather alone.

    The Ry coefficients of the whole pass come from one cos and one sin of
    the half angles. Ry(a) on qubit q is core.apply_one_qubit_kernel's
    diag = cos(a/2) and off = sin(a/2) * signs[q] (signs from
    core.ry_pi_tables); each layer's off, qubits * S * 2**n values, is
    built when the layer starts and freed after its Ry gates, so it stays
    within the amplitude array while a block holds at least `qubits` rows.

    Returns (diag, sines), the cos and sin of the half angles, each
    (layers, qubits, S, 1, 1) (S = 1 for one matrix) so that [layer, qubit]
    broadcasts against the blocks: a reverse sweep undoes each gate with
    (diag, -off), its transpose.
    """
    angles = np.asarray(angles, dtype=np.float64)
    stack = angles.reshape((-1,) + angles.shape[-2:]).transpose(1, 2, 0)
    # C order: the kernel broadcasts contiguous coefficients several times
    # faster than strided views of the transposed stack.
    half = np.multiply(0.5, stack, order="C")[..., None, None]
    diag, sines = np.cos(half), np.sin(half)
    blocks = amps.reshape(stack.shape[-1], -1, amps.shape[-1])
    signs = core.ry_pi_tables(spec.n_qubits)[1][:, None, None]
    tables = spec.tables
    frames = [None] * spec.n_layers
    if trajectory is not None:
        frames = core.pauli_frames(tables, *trajectory)
    for layer, frame in enumerate(frames):
        off = sines[layer] * signs
        for q in range(spec.n_qubits):
            core.apply_one_qubit_kernel(blocks, q, diag[layer, q], off[q])
        del off  # freed before the gather, whose temporaries are the pass's peak
        if frame is None:
            core.apply_cx_kernel(amps, tables.perm)
        else:
            core.depolarize_kernel(amps, tables, *frame)
    return diag, sines


def run_circuit(spec: CircuitSpec, params: ModelParams,
                input_state: QuantumState) -> QuantumState:
    """Apply the noiseless ansatz to one input state."""
    check_params(spec, params)
    if input_state.n_qubits != spec.n_qubits:
        raise ShapeError(
            f"input on {input_state.n_qubits} qubits does not match "
            f"spec on {spec.n_qubits}"
        )
    amps = input_state.amplitudes.copy().reshape(1, spec.dim)
    run_ansatz_kernel(amps, spec, params.angles)
    return QuantumState(spec.n_qubits, amps[0])


def readout_batch(amps: np.ndarray, shots: ShotSpec,
                  rng: np.random.Generator | None) -> np.ndarray:
    """Probability readout for a batch of real amplitudes: exact amps**2, or
    per-row frequency estimates from `shots` measurements."""
    probs = amps * amps
    if shots.is_exact:
        return probs
    if rng is None:
        raise ConfigError("finite-shot readout needs a generator")
    counts = rng.multinomial(shots.shots, core.normalized_probabilities(probs))
    return counts / float(shots.shots)


def head_scores(weights: np.ndarray, bias: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """y = W p + b, rowwise for batches: head weights W (classes, 2**n) and
    bias b (classes,)."""
    return probs @ weights.T + bias


def softmax(scores: np.ndarray) -> tuple:
    """(probabilities, log-probabilities) of finite class scores, rowwise
    over the last axis: one stable softmax (max subtracted before exp). An
    overflowing score gap gives -inf."""
    shifted = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    return e / total, shifted - np.log(total)


def head_softmax(params: ModelParams, readout: np.ndarray) -> tuple:
    """softmax of params' class scores (head_scores) of `readout`. Non-finite
    class scores raise NumericError."""
    y = head_scores(params.head_weights, params.head_bias, readout)
    if not np.all(np.isfinite(y)):
        raise NumericError("class scores contain non-finite entries")
    return softmax(y)


def circuit_matrix_pays(spec: CircuitSpec, rows: int) -> bool:
    """The shape rule of exact evaluation: whether `rows` encoded rows go
    through the circuit matrix M rather than the kernels.

    A kernel pass costs each row about L * (n + 1) sweeps over its 2**n
    amplitudes (n Ry gates and one CX gather per circuit layer); `row @ M`
    costs it 2**n multiply-adds per amplitude; building M costs one kernel
    pass over 2**n rows. With CIRCUIT_MATRIX_RULE = (r, a, w), M is used
    when rows >= r * 2**n, so that building it is at most 1/r of the
    kernels' work and M at most 1/r of the encoded rows' memory, when
    2**n <= a * L * (n + 1), and when 2**n <= w.

    Measured per row, one BLAS thread, row-blocked kernels: M pays from
    L = 1 at 8 and 9 qubits, from L = 2.2 at 10, 4.8 at 11 and 14.8 at 12
    qubits, where the 128 MB matrix runs at about half the BLAS rate of
    the smaller ones (1.28 ms a row against 0.087 ms per kernel layer),
    hence the width cap. Whole calls, kernels against M (build plus matmul):
    (4, 1) at 36k rows 12.3 against 5.6 ms; (8, 3) at 8k rows 95 against
    25 ms; (10, 3) at 8k rows 495 against 415 ms; (10, 1) at 1024 rows 22
    against 73 ms; (12, 1) at 4096 rows 434 against 7110 ms.
    """
    per_amplitude, per_layer, widest = CIRCUIT_MATRIX_RULE
    return (rows >= per_amplitude * spec.dim and spec.dim <= widest
            and spec.dim <= per_layer * spec.n_layers * (spec.n_qubits + 1))


def circuit_matrix(spec: CircuitSpec, angles: np.ndarray) -> np.ndarray:
    """The noiseless ansatz at a (layers, qubits) angle matrix as a
    (2**n, 2**n) matrix M acting on rows: the kernels run on the identity's
    rows, so row j of M is the circuit's image of basis state j, and an
    encoded row x becomes x @ M."""
    matrix = np.eye(spec.dim)
    run_ansatz_kernel(matrix, spec, angles)
    return matrix


def class_probabilities(spec: CircuitSpec, params: ModelParams, encoded: np.ndarray) -> tuple:
    """Exact class probabilities and log-probabilities, each (rows,
    classes), of the noiseless ansatz and head_softmax over encoded rows
    (rows, 2**n).

    The rows go through in blocks of about EVAL_BLOCK_AMPLITUDES amplitudes;
    only the head's outputs are kept. Where circuit_matrix_pays, M =
    circuit_matrix is built once per call and each block's amplitudes are
    block @ M; otherwise each block runs through the kernels, which treat
    rows independently, so the blocks' readouts are the bits of one pass
    (the head's BLAS matmul may still round a row differently with the
    block's row count). A non-finite class score in any block raises
    NumericError.
    """
    rows = encoded.shape[0]
    probs = np.empty((rows, params.n_classes))
    log_probs = np.empty_like(probs)
    matrix = circuit_matrix(spec, params.angles) if circuit_matrix_pays(spec, rows) else None
    step = max(1, EVAL_BLOCK_AMPLITUDES // spec.dim)
    for start in range(0, rows, step):
        block = encoded[start:start + step]
        if matrix is None:
            amps = block.copy()
            run_ansatz_kernel(amps, spec, params.angles)
        else:
            amps = block @ matrix
        readout = readout_batch(amps, ShotSpec.exact(), None)
        probs[start:start + step], log_probs[start:start + step] = head_softmax(params, readout)
    return probs, log_probs


# ---------------------------------------------------------------------------
# Checkpoint format: magic, version, geometry, then ModelParams.vector
# [angles layer-major, W row-major, b], all little-endian.

def save_params(path, spec: CircuitSpec, params: ModelParams) -> None:
    check_params(spec, params)
    header = _CHECKPOINT_MAGIC + struct.pack(
        "<IIII", _CHECKPOINT_VERSION, spec.n_layers, spec.n_qubits, params.n_classes
    )
    payload = params.vector.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_params(path) -> tuple:
    """Read a checkpoint; returns (n_layers, n_qubits, n_classes, flat vector)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = len(_CHECKPOINT_MAGIC) + struct.calcsize("<IIII")
    if len(blob) < head_len or blob[:4] != _CHECKPOINT_MAGIC:
        raise ParseError(f"{path} is not a parameter checkpoint")
    version, n_layers, n_qubits, n_classes = struct.unpack("<IIII", blob[4:head_len])
    if version != _CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}")
    if n_qubits > core.MAX_QUBITS:
        raise ParseError(f"{path}: header n_qubits = {n_qubits} exceeds {core.MAX_QUBITS}")
    expected = n_layers * n_qubits + n_classes * (1 << n_qubits) + n_classes
    if len(blob) - head_len != 8 * expected:
        raise DataError(
            f"{path}: checkpoint payload has {len(blob) - head_len} bytes, geometry "
            f"implies {expected} float64 values"
        )
    vec = np.frombuffer(blob[head_len:], dtype="<f8")
    return n_layers, n_qubits, n_classes, vec.astype(np.float64)
