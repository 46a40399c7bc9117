"""Policy-head networks: stepwise probabilities and attention energies,
forwards and adjoints.

Per head, with FFN(x) the layer stack x @ W_k + b_k, tanh between layers
and none after the last:

    p = sigmoid((FFN_s(s) FFN_h(h)^T + bias) / temperature),
    e = exp(scores - row max of scores),  scores = (s W_q)(h W_k)^T / sqrt(d_k).

Both the plain-array API (``FeedForward.apply``, ``stepwise_probability``,
``attention_energies``) and the tape ops ``Tape.stepwise`` and
``Tape.energies`` call the forwards defined here, so each formula has one
definition. A forward takes one head's 2-D arrays, or H same-shape heads
stacked on a leading axis, which evaluates every head in the same numpy
calls. It also returns the intermediates its adjoint reads: the layer
activations of both FFN stacks, or the query and key rows.

The tape ops read the heads' arrays as stacked views of one flat parameter
vector theta, placed there by a :class:`HeadSlots`; their adjoints return
one theta-shaped gradient, zero outside the slots the op reads. theta may
also be R x n, R parameter vectors of the same layout: its heads are then
read as an R x H stack, ordered by row and then by head, and evaluated in
the same numpy calls.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import matrix as mx

__all__ = [
    "Slot",
    "HeadSlots",
    "view",
    "ffn_forward",
    "stepwise_forward",
    "energies_forward",
    "heads_stepwise",
    "heads_stepwise_adjoint",
    "heads_energies",
    "heads_energies_adjoint",
]

Slot = tuple[int, int, int]  # (offset, rows, cols) of one matrix in theta
Layers = Sequence[tuple[np.ndarray, np.ndarray]]  # (W_k, b_k) per layer


def view(theta: np.ndarray, slot: Slot) -> np.ndarray:
    """The rows x cols matrix stored at ``offset`` of the 1-D ``theta``."""
    offset, rows, cols = slot
    return theta[offset:offset + rows * cols].reshape(rows, cols)


class HeadSlots(NamedTuple):
    """Where H same-shape policy heads sit at the start of theta.

    Every slot is head 0's; head k's copy lies ``k * stride`` entries later.
    ``ffn_s`` and ``ffn_h`` hold one (weight, bias) slot pair per layer, and
    ``temperature`` one fixed temperature per head.
    """

    stride: int
    ffn_s: tuple[tuple[Slot, Slot], ...]
    ffn_h: tuple[tuple[Slot, Slot], ...]
    bias: Slot
    w_q: Slot
    w_k: Slot
    temperature: tuple[float, ...]

    @property
    def n_heads(self) -> int:
        return len(self.temperature)

    def block(self, theta: np.ndarray) -> np.ndarray:
        """H x stride view of the heads' part of the 1-D ``theta``, or
        R x H x stride of the R x n ``theta``."""
        return theta[..., :len(self.temperature) * self.stride].reshape(
            theta.shape[:-1] + (len(self.temperature), self.stride))


def _stacked(block: np.ndarray, slot: Slot) -> np.ndarray:
    """[R x] H x rows x cols view of every head's copy of ``slot``."""
    offset, rows, cols = slot
    return block[..., offset:offset + rows * cols].reshape(
        block.shape[:-1] + (rows, cols))


def _layers(block: np.ndarray, slots) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(_stacked(block, w), _stacked(block, b)) for w, b in slots]


# -- forwards, one head or H stacked heads -----------------------------------

def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return np.swapaxes(a, -1, -2)


def ffn_forward(x: np.ndarray, layers: Layers) -> list[np.ndarray]:
    """Activations [x, a_1, ..., a_L] of the stack, a_L its output."""
    acts = [x]
    last = len(layers) - 1
    for k, (w, b) in enumerate(layers):
        out = acts[-1] @ w + b
        acts.append(np.tanh(out) if k < last else out)
    return acts


def _ffn_adjoint(acts: list[np.ndarray], layers: Layers, grad: np.ndarray):
    """(dW_k, db_k) per layer, given the gradient of the stack's output."""
    out = []
    for k in range(len(layers) - 1, -1, -1):
        if k < len(layers) - 1:
            grad = grad * (1.0 - acts[k + 1] * acts[k + 1])
        out.append((_t(acts[k]) @ grad, grad.sum(axis=-2, keepdims=True)))
        if k:
            grad = grad @ _t(layers[k][0])
    return out[::-1]


def stepwise_forward(s: np.ndarray, h: np.ndarray, ffn_s: Layers,
                     ffn_h: Layers, bias, temperature):
    """``(p, acts_s, acts_h)``: the stepwise probabilities (|y| x |x| per
    head) and the activations of both FFN stacks. ``bias`` and
    ``temperature`` are scalars, or H x 1 x 1 for stacked heads."""
    acts_s, acts_h = ffn_forward(s, ffn_s), ffn_forward(h, ffn_h)
    z = (acts_s[-1] @ _t(acts_h[-1]) + bias) / temperature
    return mx.sigmoid(z.reshape(-1, z.shape[-1])).reshape(z.shape), acts_s, acts_h


def energies_forward(s: np.ndarray, h: np.ndarray, w_q: np.ndarray,
                     w_k: np.ndarray):
    """``(e, q, k)``: the positive attention energies, with each row's max
    score subtracted before exponentiation, and the query and key rows."""
    q, k = s @ w_q, h @ w_k
    scores = q @ _t(k) / np.sqrt(w_q.shape[-1])
    return np.exp(scores - scores.max(axis=-1, keepdims=True)), q, k


# -- every head, parameters in theta ------------------------------------------

def _temperatures(heads: HeadSlots) -> np.ndarray:
    return np.array(heads.temperature).reshape(-1, 1, 1)


def heads_stepwise(theta: np.ndarray, s: np.ndarray, h: np.ndarray,
                   heads: HeadSlots):
    """Row-stacked [R] H |y| x |x| stepwise probabilities of the heads in
    ``theta``, and the layers and activations of their FFN stacks."""
    block = heads.block(theta)
    layers_s, layers_h = _layers(block, heads.ffn_s), _layers(block, heads.ffn_h)
    p, acts_s, acts_h = stepwise_forward(s, h, layers_s, layers_h,
                                         _stacked(block, heads.bias),
                                         _temperatures(heads))
    return p.reshape(-1, p.shape[-1]), (layers_s, layers_h, acts_s, acts_h)


def heads_stepwise_adjoint(theta: np.ndarray, p: np.ndarray, saved,
                           heads: HeadSlots, grad: np.ndarray) -> np.ndarray:
    """theta-shaped gradient of the stacked p, given its gradient ``grad``."""
    layers_s, layers_h, acts_s, acts_h = saved
    out = np.zeros_like(theta)
    block = heads.block(out)
    p = p.reshape(block.shape[:-1] + (-1, p.shape[1]))
    d = grad.reshape(p.shape) * p * (1.0 - p) / _temperatures(heads)
    _stacked(block, heads.bias)[...] = d.sum(axis=(-2, -1), keepdims=True)
    for slots, layers, acts, g in (
            (heads.ffn_s, layers_s, acts_s, d @ acts_h[-1]),
            (heads.ffn_h, layers_h, acts_h, _t(d) @ acts_s[-1])):
        for (w, b), (dw, db) in zip(slots, _ffn_adjoint(acts, layers, g)):
            _stacked(block, w)[...] = dw
            _stacked(block, b)[...] = db
    return out


def heads_energies(theta: np.ndarray, s: np.ndarray, h: np.ndarray,
                   heads: HeadSlots):
    """Row-stacked [R] H |y| x |x| attention energies of the heads in
    ``theta``, and their query and key rows."""
    block = heads.block(theta)
    e, q, k = energies_forward(s, h, _stacked(block, heads.w_q),
                               _stacked(block, heads.w_k))
    return e.reshape(-1, e.shape[-1]), (q, k)


def heads_energies_adjoint(theta: np.ndarray, e: np.ndarray, qk, s: np.ndarray,
                           h: np.ndarray, heads: HeadSlots,
                           grad: np.ndarray) -> np.ndarray:
    """theta-shaped gradient of the stacked energies, given ``grad``.

    The subtracted row max is held constant. That is exact for the lookback
    attention, which a per-row energy scale does not change.
    """
    q, k = qk
    out = np.zeros_like(theta)
    block = heads.block(out)
    d = (grad * e).reshape(block.shape[:-1] + (-1, e.shape[1])) \
        / np.sqrt(heads.w_q[2])
    _stacked(block, heads.w_q)[...] = s.T @ (d @ k)
    _stacked(block, heads.w_k)[...] = h.T @ (_t(d) @ q)
    return out
