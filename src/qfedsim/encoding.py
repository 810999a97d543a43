"""Classical-to-quantum feature loading: L2 normalization, amplitude encoding.

A feature vector x of length <= 2**n becomes the state (1/||x||) sum_j x_j |j>,
zero-padded at the tail. Normalization makes the encoding scale-invariant, so
only the *direction* of a feature vector is visible to the quantum model.
"""

from __future__ import annotations

import numpy as np

from .core import QuantumState
from .exceptions import CapacityError, DegenerateInputError, ShapeError

ZERO_NORM_MESSAGE = "zero vector cannot be normalized"


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """x / ||x||_2; direction preserved, negative entries allowed."""
    x = np.asarray(x, dtype=np.float64)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise DegenerateInputError(ZERO_NORM_MESSAGE)
    return x / norm


def pad_features(x: np.ndarray, n_qubits: int) -> np.ndarray:
    """Zero-pad x at the tail to length 2**n_qubits."""
    x = np.asarray(x, dtype=np.float64)
    dim = 1 << n_qubits
    if x.size > dim:
        raise CapacityError(
            f"{x.size} features exceed the {dim} amplitudes of {n_qubits} qubits"
        )
    if x.size == dim:
        return x
    return np.concatenate([x, np.zeros(dim - x.size)])


def amplitude_encode(x: np.ndarray, n_qubits: int) -> QuantumState:
    """Load x as state amplitudes: zero-pad to 2**n_qubits, then normalize."""
    padded = pad_features(x, n_qubits)
    return QuantumState(n_qubits, l2_normalize(padded).astype(np.complex128))


def encode_batch(rows: np.ndarray, n_qubits: int) -> np.ndarray:
    """Amplitude-encode a (B, F) matrix into a (B, 2**n_qubits) float64 array
    of real amplitudes."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError("encode_batch expects a 2-D sample matrix")
    dim = 1 << n_qubits
    if rows.shape[1] > dim:
        raise CapacityError(
            f"{rows.shape[1]} features exceed the {dim} amplitudes of {n_qubits} qubits"
        )
    out = np.zeros((rows.shape[0], dim))
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInputError(ZERO_NORM_MESSAGE)
    out[:, : rows.shape[1]] = rows / norms[:, None]
    return out
