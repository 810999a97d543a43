"""Classical-to-quantum feature loading: batched amplitude encoding.

A feature vector x of length <= 2**n becomes the state (1/||x||) sum_j x_j |j>,
zero-padded at the tail. Normalization makes the encoding scale-invariant, so
only the *direction* of a feature vector is visible to the quantum model.
Rows are encoded a matrix at a time into real float64 amplitudes, the form
the batched circuit path runs on.
"""

from __future__ import annotations

import numpy as np

from .exceptions import CapacityError, DataError, DegenerateInputError, ShapeError

# Below this norm a row's sum of squares is subnormal or zero, so its norm
# has lost precision or underflowed.
_NORM_FLOOR = np.sqrt(np.finfo(np.float64).tiny)


def encode_batch(rows: np.ndarray, n_qubits: int) -> np.ndarray:
    """Amplitude-encode a (B, F) matrix into a (B, 2**n_qubits) float64 array
    of real amplitudes.

    A row whose norm overflows, or falls below _NORM_FLOOR, is divided by
    its largest |x| before it is normalized; every other row is divided by
    its norm alone. A row of zeros raises DegenerateInputError, and a row
    holding a non-finite value raises DataError, each naming the row."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError("encode_batch expects a 2-D sample matrix")
    dim = 1 << n_qubits
    if rows.shape[1] > dim:
        raise CapacityError(
            f"{rows.shape[1]} features exceed the {dim} amplitudes of {n_qubits} qubits"
        )
    out = np.zeros((rows.shape[0], dim))
    with np.errstate(over="ignore"):  # handled below
        norms = np.linalg.norm(rows, axis=1)
    redo = np.flatnonzero(~(norms >= _NORM_FLOOR) | np.isinf(norms))
    if redo.size:
        peaks = np.max(np.abs(rows[redo]), axis=1)
        bad = np.flatnonzero(~np.isfinite(peaks) | (peaks == 0.0))
        if bad.size:
            row = redo[bad[0]]
            if peaks[bad[0]] == 0.0:
                raise DegenerateInputError(f"row {row} is a zero vector and cannot be normalized")
            raise DataError(f"row {row} holds a non-finite value and cannot be normalized")
        rows = rows.copy()
        rows[redo] /= peaks[:, None]
        norms[redo] = np.linalg.norm(rows[redo], axis=1)
    out[:, : rows.shape[1]] = rows / norms[:, None]
    return out
