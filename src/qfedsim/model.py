"""The hybrid model: layered Ry/CX ansatz, probability readout, linear head.

One circuit layer applies Ry(angle[layer, q]) to every qubit q, then the
entangler CX pattern. The readout is the computational-basis probability
vector p (exact, or a frequency estimate from M shots); class scores are the
affine map y = W p + b, squashed by a stable softmax when probabilities are
needed.

All evaluation funnels through `run_ansatz_kernel`, which acts in place on a
(rows, 2**n) amplitude array run at one (layers, qubits) angle matrix, or at
one per block of rows (training's stochastic shift pass). Class scores for
a batch of encoded rows are head_scores(params, probability_batch(...));
`run_circuit` runs the same kernel on one QuantumState. Training's adjoint
sweep walks the same gates backwards (see the training module).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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

    @property
    def quantum_param_count(self) -> int:
        return self.n_layers * self.n_qubits

    def entangler_pairs(self) -> tuple:
        """CX (control, target) pairs per layer: the chain CX(i, i+1), with a
        ring closure CX(n-1, 0) only for n >= 3 (at n=2 the closure would just
        repeat the single chain pair)."""
        pairs = [(i, i + 1) for i in range(self.n_qubits - 1)]
        if self.entangler == RING and self.n_qubits >= 3:
            pairs.append((self.n_qubits - 1, 0))
        return tuple(pairs)


@dataclass(frozen=True)
class ModelParams:
    """Trainable parameters: rotation angles plus the linear head."""

    angles: np.ndarray        # (n_layers, n_qubits), radians
    head_weights: np.ndarray  # (n_classes, 2**n_qubits)
    head_bias: np.ndarray     # (n_classes,)

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=np.float64)
        weights = np.asarray(self.head_weights, dtype=np.float64)
        bias = np.asarray(self.head_bias, dtype=np.float64)
        if angles.ndim != 2:
            raise ShapeError(f"angles must be (layers, qubits), got shape {angles.shape}")
        if weights.ndim != 2 or bias.ndim != 1 or weights.shape[0] != bias.shape[0]:
            raise ShapeError(
                f"head shapes inconsistent: W {weights.shape}, b {bias.shape}"
            )
        for name, arr in (("angles", angles), ("head_weights", weights), ("head_bias", bias)):
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{name} contains non-finite entries")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "head_weights", weights)
        object.__setattr__(self, "head_bias", bias)

    @property
    def n_classes(self) -> int:
        return self.head_bias.shape[0]

    def with_angles(self, angles: np.ndarray) -> "ModelParams":
        return ModelParams(angles, self.head_weights, self.head_bias)

    def to_vector(self) -> np.ndarray:
        """Flatten as [angles layer-major, W row-major, b]."""
        return np.concatenate(
            [self.angles.ravel(), self.head_weights.ravel(), self.head_bias]
        )


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

def run_ansatz_kernel(amps: np.ndarray, spec: CircuitSpec, angles: np.ndarray,
                      noise: NoiseSpec, rng: np.random.Generator | None) -> None:
    """Run the full ansatz in place on a C-contiguous (rows, 2**n) array at
    one (layers, qubits) angle matrix, or at an (S, layers, qubits) stack
    that splits the rows into S equal blocks, block s run at angles[s].

    With noise active, one depolarizing trajectory sample follows every gate
    on every qubit the gate touched (CX: control first, then target). The
    pass draws its whole trajectory first: one uniform per (site, row), then
    one Pauli choice per (site, row). Sites that hit no row are skipped.
    """
    angles = np.asarray(angles, dtype=np.float64)
    mats, blocks = core.ry_matrices(angles), amps
    if angles.ndim == 3:
        mats = np.moveaxis(mats, 0, 2)[:, :, :, None]  # (layers, qubits, S, 1, 2, 2)
        blocks = amps.reshape(len(angles), -1, amps.shape[-1])
    pairs = spec.entangler_pairs()
    noisy = noise.active
    if noisy:
        shape = (spec.n_layers * (spec.n_qubits + 2 * len(pairs)), amps.shape[0])
        hit = rng.random(shape) < noise.epsilon
        draws = zip(hit.any(axis=1), hit, rng.integers(0, 3, shape))

    def depolarize(*qubits):
        for qubit, (fired, hit_row, which_row) in zip(qubits, draws):
            if fired:
                core.depolarize_kernel(amps, qubit, hit_row, which_row)

    for layer in range(spec.n_layers):
        for q in range(spec.n_qubits):
            core.apply_one_qubit_kernel(blocks, q, mats[layer, q])
            if noisy:
                depolarize(q)
        for control, target in pairs:
            core.apply_cx_kernel(amps, spec.n_qubits, control, target)
            if noisy:
                depolarize(control, target)


def run_circuit(spec: CircuitSpec, params: ModelParams, input_state: QuantumState,
                noise: NoiseSpec = NoiseSpec.off(),
                rng: np.random.Generator | None = None) -> QuantumState:
    """Apply the ansatz to one input state."""
    check_params(spec, params)
    if input_state.n_qubits != spec.n_qubits:
        raise ShapeError(
            f"input on {input_state.n_qubits} qubits does not match "
            f"spec on {spec.n_qubits}"
        )
    if noise.active and rng is None:
        raise ConfigError("noisy circuit evaluation needs a generator")
    amps = input_state.amplitudes.copy().reshape(1, spec.dim)
    run_ansatz_kernel(amps, spec, params.angles, noise, rng)
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


def probability_batch(spec: CircuitSpec, angles: np.ndarray, encoded: np.ndarray,
                      shots: ShotSpec, noise: NoiseSpec,
                      rng: np.random.Generator | None) -> np.ndarray:
    """Encoded inputs (B, 2**n) -> readout probabilities (B, 2**n) at a
    (layers, qubits) angle matrix."""
    amps = encoded.copy()
    run_ansatz_kernel(amps, spec, angles, noise, rng)
    return readout_batch(amps, shots, rng)


def head_scores(params: ModelParams, probs: np.ndarray) -> np.ndarray:
    """y = W p + b, rowwise for batches."""
    return probs @ params.head_weights.T + params.head_bias


def class_probabilities(y: np.ndarray) -> np.ndarray:
    """Stable softmax over class scores (max subtracted before exp)."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise NumericError("class scores contain non-finite entries")
    shifted = y - y.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Checkpoint format: magic, version, geometry, then the flat float64 vector
# [angles layer-major, W row-major, b], all little-endian.

def save_params(path, spec: CircuitSpec, params: ModelParams) -> None:
    check_params(spec, params)
    header = _CHECKPOINT_MAGIC + struct.pack(
        "<IIII", _CHECKPOINT_VERSION, spec.n_layers, spec.n_qubits, params.n_classes
    )
    payload = params.to_vector().astype("<f8").tobytes()
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
    vec = np.frombuffer(blob[head_len:], dtype="<f8")
    expected = n_layers * n_qubits + n_classes * (1 << n_qubits) + n_classes
    if vec.size != expected:
        raise DataError(
            f"checkpoint payload has {vec.size} values, geometry implies {expected}"
        )
    return n_layers, n_qubits, n_classes, vec.astype(np.float64)
