"""Latency and variance regularizers computed from the alignment matrix.

The latency regularizer is mean(d - d*), the expected delays' gap to the
uniform-rate policy; the variance regularizer is the mean per-step
variance of the aligned source position. Positions are 1-indexed
throughout: reading the first source token during the first prediction is
a delay of 1, not 0.
"""

from __future__ import annotations

import numpy as np

from ..numerics import matrix as mx
from ..numerics.monotonic import delay_moments

__all__ = [
    "expected_delays",
    "ideal_delays",
    "latency_loss",
    "alignment_variance",
    "variance_loss",
]


def expected_delays(alpha) -> np.ndarray:
    """Expected source position per target step: d_i = sum_j j * alpha[i, j]."""
    return delay_moments(mx.as_matrix(alpha))[0]


def ideal_delays(source_len: int, target_len: int) -> np.ndarray:
    """Delays of a uniform-rate policy: d*_i = (i - 1) * |x| / |y|."""
    if source_len < 1 or target_len < 1:
        raise ValueError("ideal delays need positive sequence lengths")
    return np.arange(target_len, dtype=np.float64) * (source_len / target_len)


def latency_loss(delays, source_len: int, target_len: int) -> float:
    """mean(d_i - d*_i), the gap of the expected delays to the uniform-rate
    policy of :func:`ideal_delays`."""
    if target_len < 1:
        raise ValueError("latency loss needs a positive target length")
    delays = np.asarray(delays, dtype=np.float64).ravel()
    if delays.size != target_len:
        raise ValueError(
            f"got {delays.size} delays for target length {target_len}")
    return float(np.mean(delays - ideal_delays(source_len, target_len)))


def alignment_variance(alpha) -> np.ndarray:
    """Per-step variance of the aligned source position.

    v_i = sum_j j^2 alpha[i, j] - (sum_j j alpha[i, j])^2. With row mass
    below one the usual shortcut can undershoot, but it stays above -1e-12
    for any matrix produced by the alignment recurrence; the tests pin that.
    """
    return delay_moments(mx.as_matrix(alpha))[1]


def variance_loss(variances) -> float:
    variances = np.asarray(variances, dtype=np.float64).ravel()
    if variances.size == 0:
        raise ValueError("variance loss needs at least one entry")
    return float(np.mean(variances))
