"""Independent reference implementations the package must agree with.

Everything here is deliberately naive — dense Kronecker products, explicit
loops, brute-force pair enumeration — and shares no code with the package.
The bit-for-bit references apply gates the way the package once did:
`one_qubit_kernel` is the package's former two-branch one-qubit kernel, on
2x2 matrices such as `ry_matrices` builds, `matrix_kernel` runs it behind
the package kernel's coefficient signature, and `per_gate_ansatz` applies
every gate and every drawn Pauli on its own.

`probability_batch` is the exception: it is the package's former exact
evaluation, its own kernel pass over all rows at once, the reference that
the package's row blocks and circuit matrix must reproduce.
"""

import math

import numpy as np

from qfedsim.core import ShotSpec
from qfedsim.model import readout_batch, run_ansatz_kernel

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}


def ry_matrix(angle: float) -> np.ndarray:
    half = 0.5 * angle
    return np.array(
        [[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]], dtype=complex
    )


def ry_matrices(angles) -> np.ndarray:
    """Real Ry(a) = [[cos a/2, -sin a/2], [sin a/2, cos a/2]] for every angle:
    shape angles.shape + (2, 2). The package's former matrix form; its
    entries are the package's Ry coefficients, bit for bit."""
    half = 0.5 * np.asarray(angles, dtype=np.float64)[..., None]
    c, s = np.cos(half), np.sin(half)
    return np.concatenate([c, -s, s, c], axis=-1).reshape(half.shape[:-1] + (2, 2))


def lift_one(n: int, qubit: int, mat: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator on `qubit` into the 2^n space.

    Qubit 0 is the least significant bit of the basis index, so it sits in
    the rightmost Kronecker factor.
    """
    op = np.eye(1, dtype=complex)
    for q in range(n - 1, -1, -1):
        op = np.kron(op, mat if q == qubit else I2)
    return op


def cx_matrix(n: int, control: int, target: int) -> np.ndarray:
    """CX by basis-state truth table: flip `target` where `control` is 1."""
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        out = j ^ (1 << target) if (j >> control) & 1 else j
        m[out, j] = 1.0
    return m


def observable_matrix(n: int, terms) -> np.ndarray:
    """Dense Hermitian matrix of a Pauli-sum; string[q] acts on qubit q."""
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for coef, string in terms:
        op = np.eye(1, dtype=complex)
        for q in range(n - 1, -1, -1):
            op = np.kron(op, PAULI[string[q]])
        h = h + coef * op
    return h


def ansatz_matrix(n: int, angles: np.ndarray, pairs) -> np.ndarray:
    """Full unitary of the layered ansatz: per layer, Ry on qubits 0..n-1,
    then the CX pairs in order. Later gates multiply from the left."""
    u = np.eye(1 << n, dtype=complex)
    for layer in range(angles.shape[0]):
        for q in range(n):
            u = lift_one(n, q, ry_matrix(angles[layer, q])) @ u
        for control, target in pairs:
            u = cx_matrix(n, control, target) @ u
    return u


def cx_permutation(n: int, control: int, target: int) -> np.ndarray:
    """Gather index of one CX: v -> v[perm] flips `target` where `control` is 1."""
    idx = np.arange(1 << n)
    return np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)


def depolarize_rows(amps: np.ndarray, qubit: int, hit: np.ndarray,
                    which: np.ndarray) -> None:
    """One noise site on a (rows, 2**n) array, in place: row r takes Pauli
    which[r] (0 = X, 1 = Y, 2 = Z) on `qubit` where hit[r] is set. Z negates
    the amplitudes whose `qubit` bit is 1, X swaps the two halves, and Y
    applies XZ, which is Y up to the global phase i of the row."""
    dim = amps.shape[-1]
    view = amps.reshape(amps.shape[0], dim >> (qubit + 1), 2, 1 << qubit)
    lo, hi = view[:, :, 0, :], view[:, :, 1, :]
    np.negative(hi, out=hi, where=(hit & (which != 0))[:, None, None])
    flip = (hit & (which != 2))[:, None, None]
    old_lo = lo.copy()
    np.copyto(lo, hi, where=flip)
    np.copyto(hi, old_lo, where=flip)


def one_qubit_kernel(amps: np.ndarray, qubit: int, mat: np.ndarray) -> None:
    """A 2x2 matrix on one qubit of every state in `amps` (..., 2**n), in
    place; `mat` is (2, 2) or a (..., 2, 2) stack that broadcasts against the
    leading axes. Amplitude j becomes mat[b, b] * amps[j] + mat[b, 1 - b] *
    amps[j ^ 2**qubit], b the qubit's bit of j: at strides 2 and 4 by
    gathering every partner, else through a strided view of the two halves.
    The package's kernel must match it bit for bit, signed zeros included."""
    dim = amps.shape[-1]
    stride = 1 << qubit
    if stride in (2, 4):
        idx = np.arange(dim)
        bit = (idx >> qubit) & 1
        swapped = amps[..., idx ^ stride]
        swapped *= mat[..., bit, 1 - bit]
        amps *= mat[..., bit, bit]
        amps += swapped
        return
    view = amps.reshape(amps.shape[:-1] + (dim >> (qubit + 1), 2, stride))
    lo = view[..., 0, :].copy()
    hi = view[..., 1, :]
    view[..., 0, :] = mat[..., 0, 0, None, None] * lo + mat[..., 0, 1, None, None] * hi
    view[..., 1, :] = mat[..., 1, 0, None, None] * lo + mat[..., 1, 1, None, None] * hi


def matrix_kernel(amps: np.ndarray, qubit: int, diag, off) -> None:
    """`one_qubit_kernel` called as the package kernel is, with per-amplitude
    coefficients: amplitude j becomes diag[j] * amps[j] + off[j] *
    amps[j ^ 2**qubit]. The 2x2 matrix (stack) is read off the coefficients
    at amplitude 0, whose `qubit` bit is 0, and at amplitude 2**qubit, whose
    bit is 1; so the coefficients must be those of one matrix per stack
    entry, as every gate's are."""
    shape = np.broadcast_shapes(np.shape(diag), np.shape(off))
    diag, off = np.broadcast_to(diag, shape), np.broadcast_to(off, shape)
    one = 1 << qubit
    mat = np.stack([np.stack([diag[..., 0], off[..., 0]], axis=-1),
                    np.stack([off[..., one], diag[..., one]], axis=-1)], axis=-2)
    one_qubit_kernel(amps, qubit, mat)


def per_gate_ansatz(amps: np.ndarray, n: int, n_layers: int, pairs, apply_ry,
                    hit: np.ndarray, which: np.ndarray) -> None:
    """The noisy ansatz gate by gate on a (rows, 2**n) array, in place.

    Per layer, Ry on qubits 0..n-1 by `apply_ry(amps, layer, qubit)`, which
    the caller builds on `one_qubit_kernel` with its choice of matrix per
    block of rows, each followed by its noise site, then each CX pair as its
    own gather followed by the sites of its control and its target. Site s (in that order over
    all layers) applies the pre-drawn (hit[s], which[s]), each (rows,).
    """
    sites = iter(zip(hit, which))
    for layer in range(n_layers):
        for q in range(n):
            apply_ry(amps, layer, q)
            depolarize_rows(amps, q, *next(sites))
        for control, target in pairs:
            amps[...] = amps[..., cx_permutation(n, control, target)]
            depolarize_rows(amps, control, *next(sites))
            depolarize_rows(amps, target, *next(sites))


def probability_batch(spec, angles: np.ndarray, encoded: np.ndarray) -> np.ndarray:
    """Encoded inputs (B, 2**n) -> exact readout probabilities (B, 2**n) of
    the noiseless ansatz at a (layers, qubits) angle matrix, in one unblocked
    pass of the package's kernels."""
    amps = encoded.copy()
    run_ansatz_kernel(amps, spec, angles)
    return readout_batch(amps, ShotSpec.exact(), None)


def expectation_dense(state_vec: np.ndarray, h: np.ndarray) -> float:
    return float(np.real(np.conj(state_vec) @ h @ state_vec))


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar function over an array argument."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        up = x.copy()
        up[idx] += h
        down = x.copy()
        down[idx] -= h
        grad[idx] = (f(up) - f(down)) / (2.0 * h)
    return grad


def depolarize_density(rho: np.ndarray, epsilon: float) -> np.ndarray:
    """Single-qubit depolarizing channel on a density matrix."""
    noisy = X @ rho @ X + Y @ rho @ Y + Z @ rho @ Z
    return (1.0 - epsilon) * rho + (epsilon / 3.0) * noisy


def pairwise_auroc(scores, labels) -> float:
    """Mean over all (positive, negative) pairs of win + half credit on ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def sweep_aupr(scores, labels) -> float:
    """Average precision by sweeping a threshold over the distinct scores,
    highest first: AP = sum over steps of precision * recall increment."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        predicted = scores >= t
        tp = int(((labels == 1) & predicted).sum())
        fp = int(((labels == 0) & predicted).sum())
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


class CSVFault(Exception):
    """A bad feature file: `kind` names the loader exception it should raise
    ("SchemaError" or "ParseError") and `lineno` the physical line."""

    def __init__(self, kind: str, lineno: int):
        super().__init__(f"{kind} at line {lineno}")
        self.kind = kind
        self.lineno = lineno


def load_csv_rows(path):
    """Line-by-line reference for the feature CSV format: (features, labels).

    One `float` per field; blank lines are skipped; line 1 is a header when
    its first field is not a number; every row has the first row's width of
    at least two fields; values are finite; labels are integers of magnitude
    below 2**63. An empty or header-only file raises CSVFault("DataError", 0).
    """
    features, labels, width = [], [], None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            fields = text.split(",")
            if lineno == 1:
                try:
                    float(fields[0])
                except ValueError:
                    continue
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise CSVFault("ParseError", lineno) from None
            if len(values) < 2:
                raise CSVFault("SchemaError", lineno)
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise CSVFault("SchemaError", lineno)
            if not all(math.isfinite(v) for v in values):
                raise CSVFault("ParseError", lineno)
            label = values.pop()
            if label != int(label) or abs(label) >= 2 ** 63:
                raise CSVFault("ParseError", lineno)
            features.append(values)
            labels.append(int(label))
    if not labels:
        raise CSVFault("DataError", 0)
    return np.array(features, dtype=np.float64), labels
