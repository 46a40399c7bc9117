"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DomainError

__all__ = ["central_difference_gradient", "finite_diff_check"]


def central_difference_gradient(f: Callable[[np.ndarray], np.ndarray],
                                theta: np.ndarray,
                                h: float = 1e-5) -> np.ndarray:
    """Gradient estimate (f(t + h e_k) - f(t - h e_k)) / 2h per coordinate.

    ``f`` is batched: it gets every probe at once, as a 2n x n matrix whose
    row 2k is theta with coordinate k set to theta[k] + h and row 2k + 1
    with it set to theta[k] - h, and returns their 2n values.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    theta = np.asarray(theta, dtype=np.float64).ravel()
    k = np.arange(theta.size)
    probes = np.repeat(theta[None], 2 * theta.size, axis=0)
    probes[2 * k, k] = theta + h
    probes[2 * k + 1, k] = theta - h
    values = np.asarray(f(probes), dtype=np.float64).ravel()
    if values.size != len(probes):
        raise ValueError(f"{values.size} values for {len(probes)} probes")
    f_plus, f_minus = values[0::2], values[1::2]
    finite = np.isfinite(f_plus) & np.isfinite(f_minus)
    if not finite.all():
        raise DomainError(f"objective non-finite at probe for coordinate "
                          f"{int(np.argmin(finite))}")
    return (f_plus - f_minus) / (2.0 * h)


def finite_diff_check(f: Callable[[np.ndarray], np.ndarray],
                      grad: Callable[[np.ndarray], np.ndarray],
                      theta: np.ndarray,
                      h: float = 1e-5) -> float:
    """Max relative error between an analytic gradient and central
    differences of the batched ``f`` (see :func:`central_difference_gradient`).

    Per coordinate: |g_analytic - g_central| / max(1e-8, |g_central|).
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    g_analytic = np.asarray(grad(theta), dtype=np.float64).ravel()
    if g_analytic.size != theta.size:
        raise ValueError(
            f"gradient size {g_analytic.size} does not match parameter size {theta.size}")
    g_central = central_difference_gradient(f, theta, h)
    denom = np.maximum(1e-8, np.abs(g_central))
    return float(np.max(np.abs(g_analytic - g_central) / denom)) if theta.size else 0.0
