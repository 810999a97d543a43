"""Classical-to-quantum feature loading: batched amplitude encoding.

A feature vector x of length <= 2**n becomes the state (1/||x||) sum_j x_j |j>,
zero-padded at the tail. Normalization makes the encoding scale-invariant, so
only the *direction* of a feature vector is visible to the quantum model.
Rows are encoded a matrix at a time into real float64 amplitudes, the form
the batched circuit path runs on.
"""

from __future__ import annotations

import numpy as np

from .exceptions import CapacityError, DegenerateInputError, ShapeError


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
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(f"row {zero[0]} is a zero vector and cannot be normalized")
    out[:, : rows.shape[1]] = rows / norms[:, None]
    return out
