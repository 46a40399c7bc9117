"""Training objective: NLL plus latency and variance regularizers.

The latency regularizer is mean(d - d*), the expected delays' gap to the
uniform-rate policy d*_i = (i - 1) |x| / |y|; the variance regularizer is
the mean per-step variance of the aligned source position.

The whole computation is recorded on a reverse-mode tape, so the reported
loss value and the returned gradient come from one graph. Every trainable
array is read from one leaf, the flat parameter vector of
:func:`~emma_stream.emma.params.pack_parameters`: the policy heads through
the fused ``Tape.stepwise`` and ``Tape.energies`` ops, the readout through
``Tape.readout``. The gradient is that leaf's gradient, in the same order.

Several loss-weight settings step in lockstep through one call: the leaf
then has one row per setting, and every op is recorded once for all of
them, ten nodes with the gradient at any number of settings. The heads
of every setting go through one stepwise, energies, alignment and
lookback node; the tail (weighted delay moments, readout, NLL and their
sum) works on the settings' blocks of rows and gives one output row per
setting, and backward runs once from the sum of the losses. Each
parameter slot of a row feeds only its own setting's loss, and the tail
ops compute each block as a call of its own would, so each row of the
leaf's gradient is that setting's gradient, bit for bit as if computed
alone.
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
    if np.size(targets) != states.target_len:
        raise ValueError(
            f"{np.size(targets)} targets for {states.target_len} decoder steps")
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
    # every setting's heads, then every setting's tail: one node each, its
    # rows or output rows stacked setting by setting
    p = t.stepwise(params, states.s, states.h, head_slots)
    e = t.energies(params, states.s, states.h, head_slots)
    alpha = t.monotonic_alignment(p, force_last_column,
                                  heads=n_settings * len(heads))
    beta = t.lookback_attention(alpha, e)
    penalty = t.delay_moments(alpha, ideal, [
        [w.lambda_latency, w.lambda_variance] for w in settings])
    nll = t.cross_entropy(t.readout(beta, params, states.v, len(heads),
                                    w_out_slot, b_out_slot), targets)
    loss = t.add(nll, penalty)

    gradient = [None] * n_settings
    if with_gradient:
        gradient = t.backward(t.sum(loss))[params.index]
    moments, delays = penalty.saved
    results = tuple(
        ObjectiveResult(float(total), float(nll_r), float(latency),
                        float(variance), float(d.mean()), g)
        for total, nll_r, (latency, variance), d, g in zip(
            loss.value[:, 0], nll.value[:, 0], moments, delays, gradient))
    return results if lockstep else results[0]
