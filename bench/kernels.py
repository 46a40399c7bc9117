"""Kernel probe of the emma layer and the gradient check of train-mid.

The probe times ``alignment_parallel`` and ``beta_parallel`` at three sizes
and ``emma_objective`` with and without its gradient at the toy size and at
train-mid's size. At the two small sizes it holds the closed forms against
the ``alignment_recursive`` and ``beta_recursive`` oracles.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from emma_stream.emma import (LossWeights, alignment_parallel,
                              alignment_recursive, beta_parallel,
                              beta_recursive, emma_objective, pack_parameters,
                              random_head, random_readout, random_states,
                              unpack_parameters)
from emma_stream.harness import ToyTrainConfig

KERNEL_SIZES = ((8, 16), (32, 64), (128, 512))
ORACLE_SIZES = ((8, 16), (32, 64))
OBJECTIVE_SIZES = ((6, 4), (64, 16))
ORACLE_TOL = 1e-10
# Central differences at h = 1e-5 on objectives of order 10 carry about
# 1e-10 of round-off and truncation; a missing gradient term errs by a
# share of |g| orders of magnitude above this tolerance.
FD_STEP = 1e-5
FD_TOL = 1e-6


def median_ms(fn, min_reps: int = 3, min_s: float = 0.3) -> float:
    """Median wall time of ``fn()`` over at least ``min_reps`` calls and
    ``min_s`` seconds, whichever takes longer."""
    times = []
    start = perf_counter()
    while len(times) < min_reps or perf_counter() - start < min_s:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * float(np.median(times))


def objective_problem(rng, source_len: int, target_len: int, n_heads: int = 2):
    """A toy objective instance drawn like the toy training loop draws one."""
    cfg = ToyTrainConfig()
    heads = [random_head(rng, cfg.d, cfg.d_k, bias=-1.0, temperature=1.0,
                         scale=0.5) for _ in range(n_heads)]
    readout = random_readout(rng, cfg.d_v, cfg.vocab, scale=0.5)
    states = random_states(rng, source_len, target_len, cfg.d, cfg.d_v)
    targets = rng.integers(0, cfg.vocab, size=target_len)
    return heads, readout, states, targets


def kernel_probe(seed: int) -> tuple[dict, list[str]]:
    """Per-size kernel times in ms, and the oracle disagreements found."""
    rng = np.random.default_rng(seed)
    metrics, problems = {}, []
    for n_target, n_source in KERNEL_SIZES:
        size = f"{n_target}x{n_source}"
        p = rng.uniform(0.05, 0.95, size=(n_target, n_source))
        e = np.exp(rng.standard_normal((n_target, n_source)))
        alpha = alignment_parallel(p)
        beta = beta_parallel(alpha, e)
        if (n_target, n_source) in ORACLE_SIZES:
            for what, got, want in (
                    ("alignment", alpha, alignment_recursive(p)),
                    ("beta", beta, beta_recursive(alpha, e))):
                err = float(np.max(np.abs(got - want)))
                if not err <= ORACLE_TOL:
                    problems.append(f"{what}_parallel at {size} differs from "
                                    f"its oracle by {err:.3g}")
        metrics[f"emma.alignment_ms.{size}"] = median_ms(
            lambda: alignment_parallel(p))
        metrics[f"emma.beta_ms.{size}"] = median_ms(
            lambda: beta_parallel(alpha, e))
    for source_len, target_len in OBJECTIVE_SIZES:
        size = f"{source_len}x{target_len}"
        heads, readout, states, targets = objective_problem(
            rng, source_len, target_len)
        weights = LossWeights(0.5, 0.0)
        for label, with_gradient in (("grad", True), ("nograd", False)):
            metrics[f"emma.objective_{label}_ms.{size}"] = median_ms(
                lambda: emma_objective(heads, states, targets, weights,
                                       readout, with_gradient=with_gradient))
    return metrics, problems


def gradient_check(seed: int, source_len: int, target_len: int,
                   weights: LossWeights) -> list[str]:
    """One central-difference directional derivative of emma_objective at
    freshly drawn parameters theta_0, against the analytic gradient."""
    rng = np.random.default_rng(seed)
    heads, readout, states, targets = objective_problem(rng, source_len,
                                                        target_len)
    theta = pack_parameters(heads, readout)
    direction = rng.standard_normal(theta.size)
    direction /= np.linalg.norm(direction)

    def loss(t, with_gradient=False):
        h, r = unpack_parameters(t, heads, readout)
        return emma_objective(h, states, targets, weights, r,
                              with_gradient=with_gradient)

    gradient = loss(theta, with_gradient=True).gradient
    analytic = float(gradient @ direction)
    central = (loss(theta + FD_STEP * direction).loss
               - loss(theta - FD_STEP * direction).loss) / (2 * FD_STEP)
    scale = max(1.0, float(np.linalg.norm(gradient)))
    if not abs(central - analytic) <= FD_TOL * scale:
        return [f"directional derivative {analytic!r} of emma_objective "
                f"disagrees with central difference {central!r}"]
    return []
