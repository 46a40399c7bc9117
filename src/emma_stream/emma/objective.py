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
    v_const = t.constant(states.v)
    n_target, n_source = states.target_len, states.source_len
    positions = np.arange(1.0, n_source + 1.0).reshape(n_source, 1)
    pos_node = t.constant(positions)
    pos_sq_node = t.constant(positions * positions)
    ideal_col = t.constant(ideal.reshape(n_target, 1))

    all_leaves = []
    attn_sum = lat_sum = var_sum = None
    delay_rows = []
    for hp in heads:
        leaves = graph.head_leaves(t, hp)
        all_leaves.append(leaves)
        p = graph.stepwise_nodes(t, leaves, s_const, h_const)
        alpha = t.monotonic_alignment(p, force_last_column)
        e = graph.energy_nodes(t, leaves, s_const, h_const)
        beta = t.lookback_attention(alpha, e)
        attn = t.matmul(beta, v_const)
        delays = t.matmul(alpha, pos_node)
        lat = graph.mean_node(t, t.sub(delays, ideal_col))
        spread = t.sub(t.matmul(alpha, pos_sq_node), t.mul(delays, delays))
        var = graph.mean_node(t, spread)
        attn_sum = attn if attn_sum is None else t.add(attn_sum, attn)
        lat_sum = lat if lat_sum is None else t.add(lat_sum, lat)
        var_sum = var if var_sum is None else t.add(var_sum, var)
        delay_rows.append(delays.value.ravel())

    n_heads = len(heads)
    attn_mean = t.scale(attn_sum, 1.0 / n_heads)
    w_out = t.leaf(readout.w_out)
    b_out = t.leaf(readout.b_out)
    ones_col = t.constant(np.ones((n_target, 1)))
    logits = t.add(t.matmul(attn_mean, w_out), t.matmul(ones_col, b_out))
    log_probs = t.log(t.row_softmax(logits))
    onehot = np.zeros((n_target, vocab))
    onehot[np.arange(n_target), targets] = 1.0
    nll = t.scale(t.sum(t.mul(t.constant(onehot), log_probs)), -1.0)

    lat_mean = t.scale(lat_sum, 1.0 / n_heads)
    var_mean = t.scale(var_sum, 1.0 / n_heads)
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
        delay_mean=float(np.mean(np.concatenate(delay_rows))),
        gradient=gradient,
    )
