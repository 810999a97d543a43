"""Independent reference implementations the package must agree with.

Everything here is deliberately naive — dense Kronecker products, explicit
loops, brute-force pair enumeration — and shares no code with the package.
"""

import math

import numpy as np

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
