"""Reverse-mode graph builders mirroring the numpy policy math.

Each builder records onto a :class:`~emma_stream.numerics.tape.Tape` the same
composition the plain-array functions in :mod:`alignment`, :mod:`attention`
and :mod:`losses` evaluate, so the objective's gradients come from the exact
graph whose value is reported. The alignment and the lookback attention need
no builder: each is one tape op over all heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics.tape import Node, Tape
from .params import PolicyHeadParams

__all__ = [
    "HeadLeaves",
    "feedforward_nodes",
    "head_leaves",
    "stepwise_nodes",
    "energy_nodes",
    "mean_node",
]


def feedforward_nodes(t: Tape, x: Node, weights: list[Node],
                      biases: list[Node]) -> Node:
    """x @ W_k + b_k per layer, tanh between layers, none after the last:
    the formula of :meth:`~emma_stream.emma.params.FeedForward.apply`."""
    out = x
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        out = t.add_bias(t.matmul(out, w), b)
        if k < last:
            out = t.tanh(out)
    return out


@dataclass
class HeadLeaves:
    """Trainable leaves of one head, in the flat-parameter order."""

    ffn_s_weights: list[Node]
    ffn_s_biases: list[Node]
    ffn_h_weights: list[Node]
    ffn_h_biases: list[Node]
    bias: Node
    w_q: Node | None
    w_k: Node | None
    temperature: float

    def ordered(self) -> list[Node]:
        out: list[Node] = []
        for w, b in zip(self.ffn_s_weights, self.ffn_s_biases):
            out += [w, b]
        for w, b in zip(self.ffn_h_weights, self.ffn_h_biases):
            out += [w, b]
        out.append(self.bias)
        if self.w_q is not None:
            out += [self.w_q, self.w_k]
        return out


def head_leaves(t: Tape, params: PolicyHeadParams) -> HeadLeaves:
    return HeadLeaves(
        ffn_s_weights=[t.leaf(w) for w in params.ffn_s.weights],
        ffn_s_biases=[t.leaf(b) for b in params.ffn_s.biases],
        ffn_h_weights=[t.leaf(w) for w in params.ffn_h.weights],
        ffn_h_biases=[t.leaf(b) for b in params.ffn_h.biases],
        bias=t.leaf(np.array([[params.bias]])),
        w_q=None if params.w_q is None else t.leaf(params.w_q),
        w_k=None if params.w_k is None else t.leaf(params.w_k),
        temperature=params.temperature,
    )


def stepwise_nodes(t: Tape, leaves: HeadLeaves, s: Node, h: Node) -> Node:
    """sigmoid((FFN_s(s) @ FFN_h(h)^T + bias) / temperature)."""
    fs = feedforward_nodes(t, s, leaves.ffn_s_weights, leaves.ffn_s_biases)
    fh = feedforward_nodes(t, h, leaves.ffn_h_weights, leaves.ffn_h_biases)
    energy = t.matmul(fs, t.transpose(fh))
    return t.sigmoid(t.scale(t.add_bias(energy, leaves.bias), 1.0 / leaves.temperature))


def energy_nodes(t: Tape, leaves: HeadLeaves, s: Node, h: Node) -> Node:
    """exp of scaled dot-product scores, row max subtracted as a constant.

    Detaching the max is exact: beta is invariant to per-row energy shifts,
    so the shift contributes zero gradient.
    """
    if leaves.w_q is None:
        raise ValueError("head has no w_q/w_k energy projections")
    d_k = leaves.w_q.shape[1]
    q = t.matmul(s, leaves.w_q)
    k = t.matmul(h, leaves.w_k)
    scores = t.scale(t.matmul(q, t.transpose(k)), 1.0 / np.sqrt(d_k))
    row_max = scores.value.max(axis=1, keepdims=True)
    shift = t.constant(np.broadcast_to(row_max, scores.shape).copy())
    return t.exp(t.sub(scores, shift))


def mean_node(t: Tape, x: Node) -> Node:
    """Arithmetic mean of all entries as a 1x1 node."""
    rows, cols = x.shape
    return t.scale(t.sum(x), 1.0 / (rows * cols))
