"""Monotonic alignment and infinite-lookback attention: forwards and adjoints.

Both the plain-array API (:mod:`emma_stream.emma`) and the tape ops call the
forwards defined here, so the value a gradient is taken of is the value
reported. Each forward also returns the intermediates its adjoint reads, so
no adjoint divides.

The alignment is the division-free scan, for every target row i,

    q[i, j] = alpha[i-1, j] + (1 - p[i, j-1]) * q[i, j-1],
    alpha[i, j] = p[i, j] * q[i, j],

with alpha[-1] the one-hot start at source position 0. Cell (i, j) depends
on (i-1, j) and (i, j-1), so every cell of one anti-diagonal i + j is
independent of the others: the scan runs one numpy step per anti-diagonal,
O(|y| + |x|) steps and O(|y| |x|) work, and the adjoint runs the same
wavefront in reverse. Anti-diagonal c = i + j + 1 is row c of a "skewed"
array, so each step reads and writes contiguous slices.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "alignment_forward",
    "alignment_adjoint",
    "lookback_forward",
    "lookback_adjoint",
]


def _skewed(buf: np.ndarray, n_source: int, first_col: int = 0) -> np.ndarray:
    """|y| x |x| view with view[i, j] = buf[i + j + 1, i + first_col].

    ``buf`` is C-contiguous with at least |y| + |x| rows and
    |y| + first_col columns, so the view stays inside it.
    """
    n_target = buf.shape[1] - first_col
    row, col = buf.strides
    return as_strided(buf[1:, first_col:], shape=(n_target, n_source),
                      strides=(row + col, row))


def _diagonals(n_target: int, n_source: int) -> list[tuple[int, int, int]]:
    """(c, lo, hi) per anti-diagonal c >= 1: target rows [lo, hi) have a cell on it."""
    return [(c, max(0, c - n_source), min(n_target, c))
            for c in range(1, n_target + n_source)]


def alignment_forward(p: np.ndarray, force_last_column: bool = False):
    """Expected monotonic alignment of stepwise probabilities ``p``.

    Returns ``(alpha, ps, qs)``: the |y| x |x| alignment, and p and the scan
    state q in skewed layout for the adjoint. With ``force_last_column`` the
    final source position absorbs the remaining mass (p[:, -1] taken as 1).
    """
    n_target, n_source = p.shape
    ps = np.zeros((n_target + n_source, n_target))
    _skewed(ps, n_source)[...] = p
    if force_last_column:
        _skewed(ps, n_source)[:, -1] = 1.0
    stay = 1.0 - ps
    qs = np.zeros_like(ps)
    # column k + 1 holds alpha[k - 1]; column 0 the one-hot start alpha[-1]
    alphas = np.zeros((n_target + n_source, n_target + 1))
    alphas[0, 0] = 1.0
    for c, lo, hi in _diagonals(n_target, n_source):
        q = qs[c, lo:hi]
        np.multiply(stay[c - 1, lo:hi], qs[c - 1, lo:hi], out=q)
        q += alphas[c - 1, lo:hi]
        np.multiply(ps[c, lo:hi], q, out=alphas[c, lo + 1:hi + 1])
    return _skewed(alphas, n_source, 1).copy(), ps, qs


def alignment_adjoint(ps: np.ndarray, qs: np.ndarray, grad: np.ndarray,
                      force_last_column: bool = False) -> np.ndarray:
    """Gradient with respect to p from the reverse wavefront, given the
    skewed ``ps`` and ``qs`` of :func:`alignment_forward`.

    With A = grad[i, j] + Q[i+1, j] the total adjoint of alpha[i, j], Q the
    adjoint of q and D = A - Q[i, j+1], walking anti-diagonals from the last:

        dp[i, j] = q[i, j] D,    Q[i, j] = Q[i, j+1] + p[i, j] D.
    """
    n_target, n_source = grad.shape
    gs = np.zeros_like(ps)
    _skewed(gs, n_source)[...] = grad
    q_adj = np.zeros((n_target + n_source + 1, n_target + 1))
    p_adj = np.zeros_like(ps)
    for c, lo, hi in reversed(_diagonals(n_target, n_source)):
        after = q_adj[c + 1, lo:hi]
        d = gs[c, lo:hi] + q_adj[c + 1, lo + 1:hi + 1]
        d -= after
        np.multiply(qs[c, lo:hi], d, out=p_adj[c, lo:hi])
        np.multiply(ps[c, lo:hi], d, out=d)
        np.add(after, d, out=q_adj[c, lo:hi])
    out = _skewed(p_adj, n_source).copy()
    if force_last_column:
        out[:, -1] = 0.0
    return out


def _reverse_cumsum(a: np.ndarray) -> np.ndarray:
    return np.cumsum(a[:, ::-1], axis=1)[:, ::-1]


def lookback_forward(alpha: np.ndarray, e: np.ndarray):
    """Infinite-lookback attention beta = e * S with S[j] = sum_{k >= j}
    alpha[k] / sum_{l <= k} e[l], along each row.

    Returns ``(beta, r, s)`` where r = 1 / cumsum(e) and s = S, which the
    adjoint reads.
    """
    r = 1.0 / np.cumsum(e, axis=1)
    s = _reverse_cumsum(alpha * r)
    return e * s, r, s


def lookback_adjoint(alpha: np.ndarray, e: np.ndarray, r: np.ndarray,
                     s: np.ndarray, grad: np.ndarray):
    """Gradients with respect to ``alpha`` and ``e``.

    With G = cumsum(grad * e): d alpha = G r, and
    d e = grad S - reverse_cumsum(G alpha r^2).
    """
    g_prefix = np.cumsum(grad * e, axis=1)
    alpha_adj = g_prefix * r
    e_adj = grad * s - _reverse_cumsum(alpha_adj * alpha * r)
    return alpha_adj, e_adj
