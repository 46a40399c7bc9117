"""Dense 2-D matrix primitives.

Every function here takes and returns 2-D ``float64`` numpy arrays and
performs explicit shape validation instead of relying on broadcasting.
The catalog is deliberately small: sigmoid and row softmax.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

__all__ = [
    "as_matrix",
    "sigmoid",
    "row_softmax",
]


def as_matrix(value, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``value`` to a C-ordered 2-D float64 array.

    1-D input becomes a single row.  Raises ShapeError for other ranks.
    """
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def _check_same_shape(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform")


def sigmoid(a) -> np.ndarray:
    """Elementwise logistic function, stable for large |x|."""
    a = as_matrix(a)
    # 1 / (1 + exp(-a)) where a >= 0, exp(a) / (1 + exp(a)) elsewhere
    ex = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0, ex) / (1.0 + ex)


def row_softmax(a) -> np.ndarray:
    """Softmax within each row, with row-max subtraction for stability."""
    a = as_matrix(a)
    shifted = a - a.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)
