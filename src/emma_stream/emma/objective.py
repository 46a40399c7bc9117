"""Training objective: NLL plus latency and variance regularizers.

The whole computation is recorded on a reverse-mode tape, so the reported
loss value and the returned gradient come from one graph. Every trainable
array is read from one leaf, the flat parameter vector of
:func:`~emma_stream.emma.params.pack_parameters`: the policy heads through
the fused ``Tape.stepwise`` and ``Tape.energies`` ops, the readout through
``Tape.affine``. The gradient is that leaf's gradient, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics.tape import Tape
from .losses import ideal_delays
from .params import (EncDecStates, LossWeights, PolicyHeadParams, Readout,
                     pack_parameters, parameter_slots)

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
                   with_gradient: bool = True,
                   theta: np.ndarray | None = None) -> ObjectiveResult:
    """Loss and gradient of one instance.

    ``theta``, when given, is the flat parameter vector in
    :func:`~emma_stream.emma.params.pack_parameters` order; the arrays of
    ``heads`` and ``readout`` then serve only as shape templates, as in
    :func:`~emma_stream.emma.params.unpack_parameters`.
    """
    if not heads:
        raise ValueError("objective needs at least one policy head")
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
    head_slots, (w_out_slot, b_out_slot) = parameter_slots(heads, readout)
    if theta is None:
        theta = pack_parameters(heads, readout)
    elif np.size(theta) != b_out_slot[0] + b_out_slot[2]:
        raise ValueError(f"expected {b_out_slot[0] + b_out_slot[2]} "
                         f"parameters, got {np.size(theta)}")

    t = Tape()
    params = t.leaf(np.ravel(theta))
    n_heads, n_target = len(heads), states.target_len

    # every head's probabilities, alignment and attention, stacked by row
    p = t.stepwise(params, states.s, states.h, head_slots)
    e = t.energies(params, states.s, states.h, head_slots)
    alpha = t.monotonic_alignment(p, force_last_column, heads=n_heads)
    moments = t.delay_moments(alpha, ideal)  # [latency, variance]
    attn = t.matmul(t.lookback_attention(alpha, e), t.constant(states.v))
    # the head average [I ... I] / H of the stacked rows, as one matmul
    head_mean = t.constant(
        (np.arange(n_heads * n_target) % n_target == np.arange(n_target)[:, None])
        / n_heads)
    logits = t.affine(t.matmul(head_mean, attn), params, w_out_slot, b_out_slot)
    nll = t.cross_entropy(logits, targets)
    loss = t.add(nll, t.matmul(moments, t.constant(
        [[weights.lambda_latency], [weights.lambda_variance]])))

    latency, variance = moments.value[0]
    return ObjectiveResult(
        loss=loss.item(),
        nll=nll.item(),
        latency=float(latency),
        variance=float(variance),
        delay_mean=float(moments.saved[0].mean()),
        gradient=t.backward(loss)[params.index].ravel() if with_gradient else None,
    )
