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

The kernel functions operate in place on arrays of shape (..., 2**n),
acting on the last axis; the Ry and CX kernels are dtype-generic. The
one-qubit kernel takes a gate as per-amplitude coefficients (diag, off),
which its callers build once per pass: batched evaluation (model module)
on (blocks, rows, 2**n) arrays, each block of rows at its own angles; the
adjoint gradient sweep (training module) on (2, clients, rows, 2**n)
state/adjoint pairs, with the pass's coefficients; and `expectation` on one
complex vector per Pauli term. So there is exactly one implementation of
each gate. A layer's CX gates are one gather with their composed index
(`entangler_tables`).
Noise applies Paulis drawn beforehand: CX is Clifford, so each Pauli moves
past the layer's later CX gates with no sign, and a row's Paulis in one
layer fold into one Pauli frame (`pauli_frames`) that `depolarize_kernel`
applies together with the layer's gather. Expectations are exact; shot
sampling exists only for the probability readout of a batch.
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

@lru_cache(maxsize=None)
def _qubit_pairing(dim: int, qubit: int) -> tuple:
    """Per basis index j: its `qubit` bit, and j with the bit flipped."""
    idx = np.arange(dim)
    tables = (idx >> qubit) & 1, idx ^ (1 << qubit)
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def ry_pi_tables(n_qubits: int) -> tuple:
    """(partners, signs), each (n_qubits, 2**n): Ry(pi) on qubit q maps an
    amplitude vector v to signs[q] * v[partners[q]], where partners[q, j] is
    j with bit q flipped and signs[q, j] is +1 if bit q of j is set, else -1.
    So sin(a/2) * signs[q] is the off-diagonal coefficient of Ry(a) on qubit
    q (see apply_one_qubit_kernel)."""
    pairings = [_qubit_pairing(1 << n_qubits, q) for q in range(n_qubits)]
    partners = np.stack([partner for _, partner in pairings])
    signs = np.stack([2.0 * bit - 1.0 for bit, _ in pairings])
    partners.flags.writeable = False
    signs.flags.writeable = False
    return partners, signs


def apply_one_qubit_kernel(amps: np.ndarray, qubit: int, diag, off) -> None:
    """Apply a 2x2 matrix M to one qubit of every state in `amps`, in place,
    given as per-amplitude coefficients: amplitude j becomes
    diag[j] * amps[j] + off[j] * amps[j ^ 2**qubit], with every partner
    amplitude gathered at once.

    For b the qubit's bit of j, diag[j] = M[b, b] and off[j] = M[b, 1 - b].
    Both broadcast against `amps`: an (S, 1, 1) diag and (S, 1, 2**n) off
    on an (S, B, 2**n) array give each block of B states its own matrix.
    Ry(a) is diag cos(a/2), the same at both bits, and off
    sin(a/2) * ry_pi_tables(n)[1][qubit]; (diag, -off) applies its
    transpose, Ry(-a).
    """
    swapped = amps.take(_qubit_pairing(amps.shape[-1], qubit)[1], axis=-1)
    swapped *= off
    amps *= diag
    amps += swapped


@dataclass(frozen=True, eq=False)
class EntanglerTables:
    """One entangler layer's CX gates as index tables over 2**n amplitudes.

    `perm` is the layer's gather index, every CX composed in order: the
    layer maps v to v[perm]; `inverse` undoes it. A noise site is one
    qubit a gate touched: the n Ry gates in qubit order, then the control and
    the target of each CX. `x_masks[i]` and `z_masks[i]` are the X and Z
    strings that X and Z on site i's qubit become once moved past the CX
    gates that follow the site in the layer (CX(c, t) takes X on c to X on c
    and t, and Z on t to Z on c and t, with no sign). `signs[j]` is
    (-1)**popcount(j), the parity table in sign form.
    """

    perm: np.ndarray
    inverse: np.ndarray
    x_masks: np.ndarray
    z_masks: np.ndarray
    signs: np.ndarray


@lru_cache(maxsize=None)
def entangler_tables(n_qubits: int, pairs: tuple) -> EntanglerTables:
    """The cached tables of the CX layer `pairs`, (control, target) in order."""
    idx = np.arange(1 << n_qubits)
    perm = idx
    for control, target in pairs:
        perm = perm[np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)]
    inverse = np.empty_like(perm)
    inverse[perm] = idx
    sites = [(q, 0) for q in range(n_qubits)]
    for k, (control, target) in enumerate(pairs):
        sites += [(control, k + 1), (target, k + 1)]
    x_masks, z_masks = [], []
    for qubit, first in sites:
        x = z = 1 << qubit
        for control, target in pairs[first:]:
            x ^= ((x >> control) & 1) << target
            z ^= ((z >> target) & 1) << control
        x_masks.append(x)
        z_masks.append(z)
    signs = np.ones(1 << n_qubits)
    for q in range(n_qubits):
        signs[(idx >> q) & 1 == 1] *= -1.0
    tables = EntanglerTables(perm, inverse, np.array(x_masks), np.array(z_masks), signs)
    for table in (perm, inverse, tables.x_masks, tables.z_masks, signs):
        table.flags.writeable = False
    return tables


def pauli_frames(tables: EntanglerTables, hit: np.ndarray, which: np.ndarray) -> list:
    """Fold each layer's drawn Paulis into one Pauli frame per row.

    `hit` and `which` are (layers, sites, rows): site i of a layer applies
    Pauli which (0 = X, 1 = Y, 2 = Z) to row r where hit is set, Y as XZ
    (Z first), which is Y up to the global phase i of the row. Moved to the
    end of the layer, site i's Pauli is X^x_i Z^z_i, and the sites applied
    in order compose into (-1)^s X^x Z^z: x and z are the XOR of the x_i and
    the z_i, and s is the parity of sum_i popcount(z_i & (x_0 ^ ... ^ x_i-1)).
    Returns, per layer, None if no row drew a Pauli in it, else (rows, x, z,
    sign) over the rows that did, sign = (-1)^s, for depolarize_kernel.
    """
    if not hit.any():
        return [None] * len(hit)
    xs = np.where(hit & (which != 2), tables.x_masks[:, None], 0)
    zs = np.where(hit & (which != 0), tables.z_masks[:, None], 0)
    x_before = np.bitwise_xor.accumulate(xs, axis=1)
    x = x_before[:, -1]
    z = np.bitwise_xor.reduce(zs, axis=1)
    sign = tables.signs[np.bitwise_xor.reduce(zs[:, 1:] & x_before[:, :-1], axis=1)]
    frames = []
    for layer, rows in enumerate(hit.any(axis=1)):
        rows = np.flatnonzero(rows)
        frames.append((rows, x[layer, rows], z[layer, rows], sign[layer, rows])
                      if rows.size else None)
    return frames


def apply_cx_kernel(amps: np.ndarray, perm: np.ndarray) -> None:
    """Apply a layer of CX gates in place: one gather with its composed
    index (EntanglerTables.perm, or .inverse to undo the layer)."""
    amps[...] = amps.take(perm, axis=-1)


def depolarize_kernel(amps: np.ndarray, tables: EntanglerTables, rows: np.ndarray,
                      x: np.ndarray, z: np.ndarray, sign: np.ndarray) -> None:
    """A CX layer, then the pre-drawn Pauli frames of its noise, in place on
    a C-contiguous (rows, 2**n) array.

    Every row is permuted by tables.perm; row rows[k] then takes the frame
    sign[k] * X^x[k] Z^z[k] (see pauli_frames), so its amplitude j becomes
    sign[k] * (-1)**popcount((j ^ x[k]) & z[k]) * amps[rows[k], perm[j ^ x[k]]].
    A permutation and products with +-1.0 are exact on real amplitudes, so
    there this equals the gates and Paulis applied one after another, bit
    for bit; on complex ones only the sign of a zero part may differ.
    """
    dim = amps.shape[-1]
    amps[...] = np.take(amps, tables.perm, axis=-1)
    moved = np.arange(dim) ^ x[:, None]
    signs = tables.signs.take(moved & z[:, None])
    signs *= sign[:, None]
    moved += (rows * dim)[:, None]
    framed = amps.reshape(-1).take(moved)
    framed *= signs
    amps[rows] = framed


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
                apply_one_qubit_kernel(vec, q, *_coefficients(_PAULI_BY_LABEL[label], state.dim, q))
        total += coef * np.vdot(state.amplitudes, vec).real
    return float(total)


def _coefficients(mat: np.ndarray, dim: int, qubit: int) -> tuple:
    """apply_one_qubit_kernel's (diag, off) of a 2x2 matrix on `qubit`."""
    bit = _qubit_pairing(dim, qubit)[0]
    return mat[bit, bit], mat[bit, 1 - bit]


def normalized_probabilities(raw: np.ndarray) -> np.ndarray:
    """Clip float dust and renormalize so sampling sees an exact distribution."""
    probs = np.clip(raw, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)
