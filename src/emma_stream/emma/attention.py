"""Infinite-lookback soft attention driven by the alignment mass.

beta[i, j] spreads each alignment probability alpha[i, k] over the prefix
1..k in proportion to the softmax energies, so the decoder may attend to
everything read so far. ``beta_recursive`` is the literal double sum used
as an oracle; ``beta_parallel`` is the vectorized form (a reversed
cumulative sum over prefix-normalized terms) of
:mod:`emma_stream.numerics.monotonic`, the same forward the objective records
on the tape.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, ShapeError
from ..numerics import matrix as mx
from ..numerics.monotonic import lookback_forward
from ..numerics.policy import energies_forward
from .params import EncDecStates, PolicyHeadParams

__all__ = [
    "attention_energies",
    "beta_recursive",
    "beta_parallel",
]


def attention_energies(params: PolicyHeadParams, states: EncDecStates) -> np.ndarray:
    """Positive attention energies e[i, j] = exp(scaled score - row max).

    The row max is subtracted before exponentiation; beta is invariant to
    any per-row shift of the scores (numerator and denominator share the
    factor), so this changes nothing but the floating-point range. The
    formula is :func:`emma_stream.numerics.policy.energies_forward`, the
    forward the objective's ``Tape.energies`` op records.
    """
    return energies_forward(states.s, states.h, params.w_q, params.w_k)[0]


def _check_pair(alpha, e) -> tuple[np.ndarray, np.ndarray]:
    alpha = mx.as_matrix(alpha)
    e = mx.as_matrix(e)
    if alpha.shape != e.shape:
        raise ShapeError(f"alpha {alpha.shape} and energies {e.shape} differ")
    if np.any(e <= 0.0) or not np.all(np.isfinite(e)):
        raise DomainError("attention energies must be strictly positive")
    return alpha, e


def beta_recursive(alpha, e) -> np.ndarray:
    """beta[i, j] = sum_{k >= j} alpha[i, k] * e[i, j] / sum_{l <= k} e[i, l]."""
    alpha, e = _check_pair(alpha, e)
    n_source = alpha.shape[1]
    out = np.zeros_like(alpha)
    # Python floats, not numpy scalars: the same IEEE operations, in the
    # same order, at a fraction of the per-element cost
    rows = zip(alpha.tolist(), e.tolist(), np.cumsum(e, axis=1).tolist())
    for i, (a, w, prefix) in enumerate(rows):
        for j in range(n_source):
            total = 0.0
            for k in range(j, n_source):
                total += a[k] * w[j] / prefix[k]
            out[i, j] = total
    return out


def beta_parallel(alpha, e) -> np.ndarray:
    """Vectorized infinite-lookback attention.

    beta = e * flip(cumsum(flip(alpha / cumsum(e)))), all along rows.
    """
    return lookback_forward(*_check_pair(alpha, e))[0]

