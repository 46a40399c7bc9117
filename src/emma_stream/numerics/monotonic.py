"""Monotonic alignment and infinite-lookback attention: forwards and adjoints.

Both the plain-array API (:mod:`emma_stream.emma`) and the tape ops call the
forwards defined here, so the value a gradient is taken of is the value
reported. Each forward also returns the intermediates its adjoint reads, so
no adjoint divides.

The alignment is the division-free scan, for every target row i,

    q[i, j] = alpha[i-1, j] + (1 - p[i, j-1]) * q[i, j-1],
    alpha[i, j] = p[i, j] * q[i, j],

with alpha[-1] the one-hot start at source position 0. Cell (i, j) depends
on (i-1, j) and (i, j-1), so the cells of one anti-diagonal are independent:
the scan runs one numpy step per anti-diagonal, O(|y| + |x|) steps and
O(|y| (|y| + |x|)) work, and the adjoint runs it in reverse, for all heads of
one shape at once. Diagonal c = i + j + 1 of every head is slab c of a
"skewed" array laid out (diagonal, target row, head): a step reads slab c - 1
shifted by one target row, with the head innermost one contiguous block.

The lookback attention is row-wise, so H heads stacked by row (an
H |y| x |x| matrix) go through it as one matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "alignment_forward",
    "alignment_adjoint",
    "lookback_forward",
    "lookback_adjoint",
    "delay_moments",
]


def _skewed(buf: np.ndarray, n_source: int, first_col: int = 0) -> np.ndarray:
    """H x |y| x |x| view with view[h, i, j] = buf[i + j + 1, i + first_col, h].

    ``buf`` is C-contiguous, laid out (diagonal, target row, head), with at
    least |y| + |x| diagonals and |y| + first_col target rows, so the view
    stays inside it.
    """
    n_target = buf.shape[1] - first_col
    diag, row, head = buf.strides
    # np.ndarray over buf's memory: the same view as numpy's as_strided,
    # at a fifth of its cost, which matters at toy sizes
    return np.ndarray((buf.shape[2], n_target, n_source), buf.dtype, buf,
                      diag + first_col * row, (head, diag + row, diag))


def alignment_forward(p: np.ndarray, force_last_column: bool = False):
    """Expected monotonic alignment of H stacked stepwise probability
    matrices ``p`` (H x |y| x |x|), one wavefront for all heads.

    Returns ``(alpha, ps, qs)``: the H x |y| x |x| alignments, and p and the
    scan state q in skewed layout for the adjoint. With ``force_last_column``
    the final source position absorbs the remaining mass (p[..., -1] taken
    as 1).

    Each step updates one whole (|y|, H) diagonal slab. Its cells off the
    |y| x |x| grid hold p = 0: left of column 0 they keep q = alpha = 0, and
    right of the last column they never feed a real cell, because cell
    (i, j) reads only (i, j-1) and (i-1, j).
    """
    n_heads, n_target, n_source = p.shape
    ps = np.zeros((n_target + n_source, n_target, n_heads))
    _skewed(ps, n_source)[...] = p
    if force_last_column:
        _skewed(ps, n_source)[..., -1] = 1.0
    stay = 1.0 - ps
    qs = np.zeros_like(ps)
    # row k + 1 holds alpha[k - 1]; row 0 the one-hot start alpha[-1]
    alphas = np.zeros((n_target + n_source, n_target + 1, n_heads))
    alphas[0, 0] = 1.0
    # diagonals c = 1, 2, ...: q and alpha of c, and the c - 1 slabs they read;
    # zip over pre-sliced arrays spends less per step than indexing by c
    for q, q_prev, stay_prev, alpha_prev, p, alpha in zip(
            qs[1:], qs, stay, alphas[:, :-1], ps[1:], alphas[1:, 1:]):
        np.multiply(stay_prev, q_prev, out=q)
        q += alpha_prev
        np.multiply(p, q, out=alpha)
    return _skewed(alphas, n_source, 1).copy(), ps, qs


def alignment_adjoint(ps: np.ndarray, qs: np.ndarray, grad: np.ndarray,
                      force_last_column: bool = False) -> np.ndarray:
    """Gradient with respect to the H x |y| x |x| stacked p from the reverse
    wavefront, given the skewed ``ps`` and ``qs`` of :func:`alignment_forward`.

    With A = grad[i, j] + Q[i+1, j] the total adjoint of alpha[i, j], Q the
    adjoint of q and D = A - Q[i, j+1], walking anti-diagonals from the last:

        dp[i, j] = q[i, j] D,    Q[i, j] = Q[i, j+1] + p[i, j] D.

    Off-grid cells have p = 0 and grad = 0, so Q right of the last column
    stays 0, and nothing left of column 0 reaches a real cell.
    """
    n_heads, n_target, n_source = grad.shape
    ds = np.zeros_like(ps)
    _skewed(ds, n_source)[...] = grad
    q_adj = np.zeros((n_target + n_source + 1, n_target + 1, n_heads))
    # diagonals c = last, ..., 1: Q[i, j+1] (after) and Q[i+1, j] (after_up)
    # read from Q[c + 1], D written over grad's slab c, and Q[c]; dp = q D last
    for after, after_up, d, p, q_adj_c in zip(
            q_adj[:1:-1, :-1], q_adj[:1:-1, 1:], ds[:0:-1], ps[:0:-1],
            q_adj[-2:0:-1, :-1]):
        d += after_up
        d -= after
        np.multiply(p, d, out=q_adj_c)
        q_adj_c += after
    out = np.multiply(_skewed(qs, n_source), _skewed(ds, n_source), order="C")
    if force_last_column:
        out[..., -1] = 0.0
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


def delay_moments(alpha: np.ndarray):
    """``(d, v)`` per row of ``alpha``: the expected source position
    d = sum_j j alpha[j] and its spread v = sum_j j^2 alpha[j] - d^2, with
    positions j counted from 1. Stacked alignments (R x rows x |x|) go
    through as one batched product, which gives each block's rows bit for
    bit as its own call would."""
    positions = np.arange(1.0, alpha.shape[-1] + 1.0)
    d = alpha @ positions
    return d, alpha @ (positions * positions) - d * d
