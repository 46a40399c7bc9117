"""Training objective: NLL plus latency and variance regularizers.

The latency regularizer is mean(d - d*), the expected delays' gap to the
uniform-rate policy d*_i = (i - 1) |x| / |y|; the variance regularizer is
the mean per-step variance of the aligned source position.

The whole computation is recorded on a reverse-mode tape, so the reported
loss value and the returned gradient come from one graph. Every trainable
array is read from one leaf, the flat parameter vector of
:func:`~emma_stream.emma.params.pack_parameters`: the policy heads through
the fused ``Tape.stepwise`` and ``Tape.energies`` ops, the readout through
``Tape.affine``. The gradient is that leaf's gradient, in the same order.

Several loss-weight settings step in lockstep through one call: the leaf
then has one row per setting, and the heads of every setting go through
one stepwise, energies, alignment and lookback node. Each setting records
its own tail (delay moments, head mean, readout, NLL and weighting) on
its block of rows, and backward runs once from the sum of the losses.
Each parameter slot of a row feeds only its own setting's loss, so each
row of the leaf's gradient is that setting's gradient, bit for bit as if
computed alone.
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
                   targets, weights: LossWeights | tuple[LossWeights, ...],
                   readout: Readout, *,
                   force_last_column: bool = False,
                   with_gradient: bool = True,
                   theta: np.ndarray | None = None):
    """Loss and gradient of one instance, as an :class:`ObjectiveResult`.

    ``theta``, when given, is the flat parameter vector in
    :func:`~emma_stream.emma.params.pack_parameters` order; the arrays of
    ``heads`` and ``readout`` then serve only as shape templates, as in
    :func:`~emma_stream.emma.params.unpack_parameters`.

    ``weights`` may also be a tuple of R settings. ``theta`` is then R x n,
    row r holding setting r's parameters (without it, every row holds the
    packed ``heads`` and ``readout``), and the result is a tuple of R
    results, each equal to setting r's call on its own.
    """
    lockstep = isinstance(weights, tuple)
    settings = weights if lockstep else (weights,)
    if not heads:
        raise ValueError("objective needs at least one policy head")
    if not settings:
        raise ValueError("objective needs at least one loss-weight setting")
    targets = [int(v) for v in np.asarray(targets).ravel()]
    if len(targets) != states.target_len:
        raise ValueError(
            f"{len(targets)} targets for {states.target_len} decoder steps")
    vocab = readout.vocab_size
    for v in targets:
        if not 0 <= v < vocab:
            raise ValueError(f"target index {v} outside vocabulary of {vocab}")
    ideal = ideal_delays(states.source_len, states.target_len)
    layout = parameter_slots(heads, readout)
    head_slots, (w_out_slot, b_out_slot) = layout
    n_settings, n = len(settings), b_out_slot[0] + b_out_slot[2]
    if theta is None:
        theta = np.tile(pack_parameters(heads, readout, layout), (n_settings, 1))
    elif (np.shape(theta) != (n_settings, n) if lockstep
          else np.size(theta) != n):
        raise ValueError(f"expected {n_settings} x {n} parameters, "
                         f"got shape {np.shape(theta)}")

    t = Tape()
    params = t.leaf(np.reshape(theta, (n_settings, n)))
    n_heads, n_target = len(heads), states.target_len
    block = n_heads * n_target  # rows of one setting's stacked heads

    # every setting's heads: probabilities, alignment and attention, stacked
    # by row, setting by setting
    p = t.stepwise(params, states.s, states.h, head_slots)
    e = t.energies(params, states.s, states.h, head_slots)
    alpha = t.monotonic_alignment(p, force_last_column,
                                  heads=n_settings * n_heads)
    beta = t.lookback_attention(alpha, e)
    v = t.constant(states.v)
    # the head average [I ... I] / H of one setting's rows, as one matmul
    head_mean = t.constant(
        (np.arange(block) % n_target == np.arange(n_target)[:, None]) / n_heads)

    losses, parts = [], []
    for r, w in enumerate(settings):
        rows, shift = (r * block, (r + 1) * block), r * n
        moments = t.delay_moments(t.rows(alpha, *rows), ideal)  # [latency, variance]
        attn = t.matmul(t.rows(beta, *rows), v)
        logits = t.affine(t.matmul(head_mean, attn), params,
                          (w_out_slot[0] + shift,) + w_out_slot[1:],
                          (b_out_slot[0] + shift,) + b_out_slot[1:])
        nll = t.cross_entropy(logits, targets)
        losses.append(t.add(nll, t.matmul(moments, t.constant(
            [[w.lambda_latency], [w.lambda_variance]]))))
        parts.append((nll, moments))

    gradient = [None] * n_settings
    if with_gradient:
        total = losses[0]
        for loss in losses[1:]:
            total = t.add(total, loss)
        gradient = t.backward(total)[params.index]
    results = tuple(
        ObjectiveResult(
            loss=loss.item(),
            nll=nll.item(),
            latency=float(moments.value[0, 0]),
            variance=float(moments.value[0, 1]),
            delay_mean=float(moments.saved[0].mean()),
            gradient=g,
        )
        for loss, (nll, moments), g in zip(losses, parts, gradient))
    return results if lockstep else results[0]
