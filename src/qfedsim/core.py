"""Statevector simulation: states, gates, expectations, sampling, noise.

Conventions, fixed project-wide:
  - Qubit ordering is little-endian: qubit 0 is the least significant bit of
    the basis index, so basis state |j> assigns qubit q the bit (j >> q) & 1.
  - A state is a unit-norm amplitude vector of length 2**n_qubits. The
    public QuantumState is complex, because `expectation` applies Y, which
    is imaginary. The batched circuit path (model and training modules)
    holds real float64 amplitudes: amplitude encoding of real features, Ry
    and CX are all real, and depolarizing noise keeps a real row real
    (Y = i*XZ, and i is a global phase of the row).
  - The only circuit gates are Ry rotations and CX; depolarizing noise is
    realized as stochastic Pauli insertion (quantum trajectories), keeping the
    engine a pure statevector simulator.

The kernel functions are dtype-generic and operate in place on arrays of
shape (..., 2**n), acting on the last axis. Their callers use them directly:
batched evaluation (model module) on (rows, 2**n) batches, the adjoint
gradient sweep (training module) on (2, rows, 2**n) state/adjoint pairs, and
`expectation` on one complex vector per Pauli term, so there is exactly one
implementation of each gate. Expectations are exact; shot sampling exists
only for the probability readout of a batch (model.readout_batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import CapacityError, ConfigError, ContractError, ShapeError

MAX_QUBITS = 20

_PAULI_BY_LABEL = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True)
class QuantumState:
    """Immutable n-qubit pure state; amplitudes indexed little-endian."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.n_qubits < 1:
            raise CapacityError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if amps.shape != (1 << self.n_qubits,):
            raise ShapeError(
                f"amplitude vector of length {amps.shape} does not match "
                f"{self.n_qubits} qubits (expected {1 << self.n_qubits})"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-8:
            raise ContractError(f"state norm {norm!r} is not 1")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


@dataclass(frozen=True)
class Observable:
    """Hermitian operator as a real-weighted sum of Pauli strings.

    Each term is (coefficient, pauli_string); pauli_string[q] in "IXYZ" is the
    factor acting on qubit q. Real coefficients keep the sum Hermitian.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(c), str(s)) for c, s in self.terms)
        if not terms:
            raise ShapeError("observable needs at least one term")
        width = len(terms[0][1])
        for coef, string in terms:
            if not np.isfinite(coef):
                raise ContractError(f"non-finite coefficient {coef!r}")
            if len(string) != width:
                raise ShapeError(
                    f"pauli string {string!r} has {len(string)} labels, expected {width}"
                )
            if any(ch not in "IXYZ" for ch in string):
                raise ContractError(f"invalid pauli label in {string!r}")
        object.__setattr__(self, "terms", terms)

    @property
    def n_qubits(self) -> int:
        return len(self.terms[0][1])


@dataclass(frozen=True)
class NoiseSpec:
    """Per-gate depolarizing noise: with probability epsilon, a uniformly
    chosen Pauli (X, Y or Z) hits each qubit a gate touched. Epsilon 0 is
    noiseless."""

    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    @classmethod
    def off(cls) -> "NoiseSpec":
        return cls(0.0)

    @property
    def active(self) -> bool:
        return self.epsilon > 0.0


@dataclass(frozen=True)
class ShotSpec:
    """Measurement budget: a finite shot count M, or None for exact mode."""

    shots: int | None = None

    def __post_init__(self):
        if self.shots is not None and self.shots < 1:
            raise ConfigError(f"shots must be >= 1 when finite, got {self.shots}")

    @classmethod
    def exact(cls) -> "ShotSpec":
        return cls(None)

    @property
    def is_exact(self) -> bool:
        return self.shots is None


# ---------------------------------------------------------------------------
# In-place kernels on raw amplitude arrays of shape (..., 2**n), last axis.

def ry_matrices(angles) -> np.ndarray:
    """Real Ry(a) = [[cos a/2, -sin a/2], [sin a/2, cos a/2]] for every angle:
    shape angles.shape + (2, 2)."""
    half = 0.5 * np.asarray(angles, dtype=np.float64)
    c, s = np.cos(half), np.sin(half)
    return np.stack([c, -s, s, c], axis=-1).reshape(half.shape + (2, 2))


@lru_cache(maxsize=None)
def _qubit_pairing(dim: int, qubit: int) -> tuple:
    """Per basis index j: its `qubit` bit, the flipped bit, and j with the bit flipped."""
    idx = np.arange(dim)
    bit = (idx >> qubit) & 1
    return bit, 1 - bit, idx ^ (1 << qubit)


@lru_cache(maxsize=None)
def ry_pi_tables(n_qubits: int) -> tuple:
    """(partners, signs), each (n_qubits, 2**n): Ry(pi) on qubit q maps an
    amplitude vector v to signs[q] * v[partners[q]], where partners[q, j] is
    j with bit q flipped and signs[q, j] is +1 if bit q of j is set, else -1."""
    pairings = [_qubit_pairing(1 << n_qubits, q) for q in range(n_qubits)]
    partners = np.stack([partner for _, _, partner in pairings])
    signs = np.stack([2.0 * bit - 1.0 for bit, _, _ in pairings])
    partners.flags.writeable = False
    signs.flags.writeable = False
    return partners, signs


def apply_one_qubit_kernel(amps: np.ndarray, qubit: int, mat: np.ndarray) -> None:
    """Apply one 2x2 matrix to one qubit of every state in `amps`, in place.

    Amplitude j becomes mat[b, b] * amps[j] + mat[b, 1 - b] * amps[j ^ 2**qubit],
    b the qubit's bit of j. The halves b = 0 and b = 1 are updated through a
    strided view; at strides 2 and 4 that view's inner loops are so short
    that gathering every amplitude's partner is faster. Both orders of the
    same two products give bit-identical sums.
    """
    dim = amps.shape[-1]
    stride = 1 << qubit
    if stride in (2, 4):
        bit, flipped_bit, partner = _qubit_pairing(dim, qubit)
        swapped = amps[..., partner]
        swapped *= mat[bit, flipped_bit]
        amps *= mat[bit, bit]
        amps += swapped
        return
    view = amps.reshape(amps.shape[:-1] + (dim >> (qubit + 1), 2, stride))
    lo = view[..., 0, :].copy()
    hi = view[..., 1, :]
    view[..., 0, :] = mat[0, 0] * lo + mat[0, 1] * hi
    view[..., 1, :] = mat[1, 0] * lo + mat[1, 1] * hi


@lru_cache(maxsize=None)
def _cx_permutation(n_qubits: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    flipped = idx ^ (1 << target)
    return np.where((idx >> control) & 1 == 1, flipped, idx)


def apply_cx_kernel(amps: np.ndarray, n_qubits: int, control: int, target: int) -> None:
    """Apply CX in place; a pure index permutation (self-inverse)."""
    perm = _cx_permutation(n_qubits, control, target)
    amps[...] = amps[..., perm]


def depolarize_kernel(amps: np.ndarray, qubit: int, epsilon: float,
                      rng: np.random.Generator) -> None:
    """One trajectory sample of the depolarizing channel on every row, in place.

    A row is one state: every index but the last. Draws one uniform and then
    one Pauli choice (0 = X, 1 = Y, 2 = Z) per row; the choice is drawn even
    for rows that take no error, keeping the draw count data-independent.
    The Paulis act as a bit-flip permutation plus a sign: Z negates the
    amplitudes whose `qubit` bit is 1, X swaps the two halves, and Y applies
    XZ, which is Y up to the global phase i of the row.
    """
    dim = amps.shape[-1]
    rows = amps.size // dim
    u = rng.random(rows)
    which = rng.integers(0, 3, size=rows)
    hit = u < epsilon
    if not hit.any():
        return
    view = amps.reshape(rows, dim >> (qubit + 1), 2, 1 << qubit)
    lo, hi = view[:, :, 0, :], view[:, :, 1, :]
    np.negative(hi, out=hi, where=(hit & (which != 0))[:, None, None])
    flip = (hit & (which != 2))[:, None, None]
    old_lo = lo.copy()
    np.copyto(lo, hi, where=flip)
    np.copyto(hi, old_lo, where=flip)


# ---------------------------------------------------------------------------
# Readout: exact expectations of a state, sampling distributions of a batch.

def expectation(state: QuantumState, obs: Observable) -> float:
    """<psi| H |psi> for a Pauli-sum H; O(2^n) per non-identity term."""
    if obs.n_qubits != state.n_qubits:
        raise ShapeError(
            f"observable on {obs.n_qubits} qubits does not match "
            f"state on {state.n_qubits}"
        )
    total = 0.0
    for coef, string in obs.terms:
        vec = state.amplitudes.copy()
        for q, label in enumerate(string):
            if label != "I":
                apply_one_qubit_kernel(vec, q, _PAULI_BY_LABEL[label])
        total += coef * np.vdot(state.amplitudes, vec).real
    return float(total)


def normalized_probabilities(raw: np.ndarray) -> np.ndarray:
    """Clip float dust and renormalize so sampling sees an exact distribution."""
    probs = np.clip(raw, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)
