"""Monotonic alignment: stepwise probabilities and expected alignment mass.

Two routes compute the same alignment matrix. ``alignment_recursive`` is a
deliberately naive reference that follows the defining recurrence with plain
Python floats; ``alignment_parallel`` is the linear-time, division-free scan
of :mod:`emma_stream.numerics.monotonic`, the same forward the objective
records on the tape. The test suite holds the two within 1e-10 of each other.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..numerics import matrix as mx
from ..numerics.monotonic import alignment_forward
from .params import EncDecStates, PolicyHeadParams

__all__ = [
    "stepwise_probability",
    "alignment_recursive",
    "alignment_parallel",
]


def _check_probability(p: np.ndarray) -> np.ndarray:
    p = mx.as_matrix(p)
    if p.size == 0:
        raise ValueError("probability matrix must be non-empty")
    if np.any(p < 0.0) or np.any(p > 1.0) or not np.all(np.isfinite(p)):
        raise DomainError("stepwise probabilities must lie in [0, 1]")
    return p


def stepwise_probability(params: PolicyHeadParams, states: EncDecStates) -> np.ndarray:
    """p[i, j] = sigmoid((FFN_s(s_i) . FFN_h(h_j) + bias) / temperature).

    Row i uses the decoder state that precedes the i-th prediction, which is
    exactly how ``states.s`` is laid out (row 0 is begin-of-sequence).
    """
    energy = params.ffn_s.apply(states.s) @ params.ffn_h.apply(states.h).T
    return mx.sigmoid((energy + params.bias) / params.temperature)


def alignment_recursive(p, force_last_column: bool = False) -> np.ndarray:
    """Reference alignment via the defining recurrence.

    alpha[i, j] = p[i, j] * sum_k alpha[i-1, k] * prod_{l=k..j-1} (1 - p[i, l])

    Runs in O(|y| |x|^2) with an incremental right-to-left product so the
    brute force stays usable on thousand-instance sweeps. Kept free of the
    scan machinery on purpose: it is the oracle the scan is checked against.
    """
    p = _check_probability(p)
    n_target, n_source = p.shape
    rows = p.tolist()
    prev = [1.0] + [0.0] * (n_source - 1)
    out = []
    for i in range(n_target):
        row = rows[i]
        if force_last_column:
            row = row[:-1] + [1.0]
        one_minus = [1.0 - q for q in row]
        cur = []
        for j in range(n_source):
            acc = prev[j]
            prod = 1.0
            for k in range(j - 1, -1, -1):
                prod *= one_minus[k]
                acc += prev[k] * prod
            cur.append(row[j] * acc)
        out.append(cur)
        prev = cur
    return np.array(out, dtype=np.float64)


def alignment_parallel(p, force_last_column: bool = False) -> np.ndarray:
    """Linear-time alignment by the scan
    q[i, j] = alpha[i-1, j] + (1 - p[i, j-1]) q[i, j-1], alpha[i, j] = p[i, j] q[i, j].

    With ``force_last_column`` the final source position absorbs all
    remaining mass (p[:, -1] treated as 1), so each row sums to one exactly.
    """
    return alignment_forward(_check_probability(p)[None], force_last_column)[0][0]
