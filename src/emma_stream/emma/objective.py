"""Training objective: NLL plus latency and variance regularizers.

The whole computation is recorded on a reverse-mode tape, so the reported
loss value and the returned gradient come from one graph. The gradient is
flattened in the same order as :func:`~emma_stream.emma.params.pack_parameters`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics.tape import Tape
from . import graph
from .losses import ideal_delays
from .params import EncDecStates, LossWeights, PolicyHeadParams, Readout

__all__ = ["ObjectiveResult", "emma_objective"]


@dataclass(frozen=True)
class ObjectiveResult:
    """Loss breakdown for one instance.

    ``latency`` and ``variance`` are the unweighted per-head means; ``loss``
    already includes the lambda weighting. ``delay_mean`` averages the
    expected delays over heads and target steps, for training logs.
    """

    loss: float
    nll: float
    latency: float
    variance: float
    delay_mean: float
    gradient: np.ndarray | None

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.loss))


def emma_objective(heads: list[PolicyHeadParams], states: EncDecStates,
                   targets, weights: LossWeights, readout: Readout, *,
                   force_last_column: bool = False,
                   latency_mode: str = "ideal-lag",
                   with_gradient: bool = True) -> ObjectiveResult:
    if not heads:
        raise ValueError("objective needs at least one policy head")
    for k, hp in enumerate(heads):
        if not hp.has_energy_projections:
            raise ValueError(f"head {k} has no w_q/w_k energy projections")
    targets = [int(v) for v in np.asarray(targets).ravel()]
    if len(targets) != states.target_len:
        raise ValueError(
            f"{len(targets)} targets for {states.target_len} decoder steps")
    vocab = readout.vocab_size
    for v in targets:
        if not 0 <= v < vocab:
            raise ValueError(f"target index {v} outside vocabulary of {vocab}")
    if latency_mode == "ideal-lag":
        ideal = ideal_delays(states.source_len, states.target_len)
    elif latency_mode == "mean":
        ideal = np.zeros(states.target_len)
    else:
        raise ValueError(f"unknown latency mode: {latency_mode!r}")

    t = Tape()
    s_const = t.constant(states.s)
    h_const = t.constant(states.h)
    n_heads = len(heads)
    n_target, n_source = states.target_len, states.source_len
    positions = np.arange(1.0, n_source + 1.0).reshape(n_source, 1)

    all_leaves = [graph.head_leaves(t, hp) for hp in heads]
    p = [graph.stepwise_nodes(t, leaves, s_const, h_const) for leaves in all_leaves]
    e = [graph.energy_nodes(t, leaves, s_const, h_const) for leaves in all_leaves]
    # every head's alignment, attention, delays and spread, stacked by row
    alpha = t.monotonic_alignment(p, force_last_column)
    attn = t.matmul(t.lookback_attention(alpha, e), t.constant(states.v))
    delays = t.matmul(alpha, t.constant(positions))
    spread = t.sub(t.matmul(alpha, t.constant(positions * positions)),
                   t.mul(delays, delays))
    ideal_col = t.constant(np.tile(ideal, n_heads).reshape(-1, 1))
    lat_mean = graph.mean_node(t, t.sub(delays, ideal_col))
    var_mean = graph.mean_node(t, spread)
    # the head average [I ... I] / H of the stacked rows, as one matmul
    head_mean = t.constant(np.tile(np.eye(n_target) / n_heads, n_heads))
    attn_mean = t.matmul(head_mean, attn)

    w_out = t.leaf(readout.w_out)
    b_out = t.leaf(readout.b_out)
    logits = t.add_bias(t.matmul(attn_mean, w_out), b_out)
    log_probs = t.log(t.row_softmax(logits))
    onehot = np.zeros((n_target, vocab))
    onehot[np.arange(n_target), targets] = 1.0
    nll = t.scale(t.sum(t.mul(t.constant(onehot), log_probs)), -1.0)
    loss = t.add(nll, t.add(t.scale(lat_mean, weights.lambda_latency),
                            t.scale(var_mean, weights.lambda_variance)))

    gradient = None
    if with_gradient:
        grads = t.backward(loss)
        ordered = [leaf for leaves in all_leaves for leaf in leaves.ordered()]
        ordered += [w_out, b_out]
        gradient = np.concatenate(
            [t.grad_of(grads, leaf).ravel() for leaf in ordered])

    return ObjectiveResult(
        loss=loss.item(),
        nll=nll.item(),
        latency=lat_mean.item(),
        variance=var_mean.item(),
        delay_mean=float(np.mean(delays.value)),
        gradient=gradient,
    )
