"""Parameter and state containers for the monotonic-attention policy."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..errors import ShapeError
from ..numerics.policy import HeadSlots, ffn_forward, view

__all__ = [
    "FeedForward",
    "PolicyHeadParams",
    "LossWeights",
    "EncDecStates",
    "Readout",
    "random_feedforward",
    "random_head",
    "random_readout",
    "random_states",
    "pack_parameters",
    "parameter_slots",
    "unpack_parameters",
]

# Documented defaults: the bias starts negative so optimization begins near
# the offline policy, and a small temperature polarizes the probabilities.
DEFAULT_BIAS = -4.0
DEFAULT_TEMPERATURE = 0.2


def _as_weight(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FeedForward:
    """Stack of linear layers with tanh between them (none after the last).

    Layer ``k`` maps x -> x @ weights[k] + biases[k]; biases are 1 x out rows.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("feedforward needs matching weight/bias lists")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            _as_weight(w, f"weight[{k}]")
            if b.shape != (1, w.shape[1]):
                raise ShapeError(
                    f"bias[{k}] shape {b.shape} does not match weight output {w.shape}")
            if k > 0 and w.shape[0] != self.weights[k - 1].shape[1]:
                raise ShapeError("feedforward layer dimensions do not chain")

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.weights, self.biases))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return ffn_forward(np.asarray(x, dtype=np.float64), self.layers())[-1]


@dataclass(frozen=True)
class PolicyHeadParams:
    """One attention head's policy: energy-projection networks, the
    query/key projections of its soft attention energies, a learnable bias
    and a fixed temperature. Every objective and every trained model reads
    all four arrays, so ``w_q`` and ``w_k`` are required."""

    ffn_s: FeedForward
    ffn_h: FeedForward
    w_q: np.ndarray
    w_k: np.ndarray
    bias: float = DEFAULT_BIAS
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.ffn_s.output_dim != self.ffn_h.output_dim:
            raise ShapeError(
                f"energy projections disagree: {self.ffn_s.output_dim} vs "
                f"{self.ffn_h.output_dim}")
        w_q, w_k = _as_weight(self.w_q, "w_q"), _as_weight(self.w_k, "w_k")
        if w_q.shape[1] != w_k.shape[1]:
            raise ShapeError("w_q and w_k must share their output dimension")


@dataclass(frozen=True)
class LossWeights:
    lambda_latency: float = 0.0
    lambda_variance: float = 0.0

    def __post_init__(self):
        for weight in (self.lambda_latency, self.lambda_variance):
            if not 0 <= weight < math.inf:
                raise ValueError(f"loss weights must be non-negative and finite, got {weight}")


@dataclass(frozen=True)
class EncDecStates:
    """Frozen encoder states h (|x| x d), decoder states s (|y| x d) where
    row 0 is the begin-of-sequence state, and value projections v (|x| x d_v)."""

    h: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", _as_weight(self.h, "h"))
        object.__setattr__(self, "s", _as_weight(self.s, "s"))
        object.__setattr__(self, "v", _as_weight(self.v, "v"))
        if self.h.shape[0] < 1 or self.s.shape[0] < 1:
            raise ShapeError("states need at least one source and one target row")
        if self.h.shape[1] != self.s.shape[1]:
            raise ShapeError(
                f"encoder/decoder dims differ: {self.h.shape[1]} vs {self.s.shape[1]}")
        if self.v.shape[0] != self.h.shape[0]:
            raise ShapeError(
                f"value rows {self.v.shape[0]} do not match source length {self.h.shape[0]}")

    @property
    def source_len(self) -> int:
        return self.h.shape[0]

    @property
    def target_len(self) -> int:
        return self.s.shape[0]


@dataclass(frozen=True)
class Readout:
    """Toy output projection turning attention rows into vocabulary logits."""

    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_out", _as_weight(self.w_out, "w_out"))
        b = np.asarray(self.b_out, dtype=np.float64).reshape(1, -1)
        object.__setattr__(self, "b_out", b)
        if b.shape[1] != self.w_out.shape[1]:
            raise ShapeError("b_out width must match w_out output dimension")
        if self.vocab_size < 2:
            raise ValueError("vocabulary must have at least two entries")

    @property
    def vocab_size(self) -> int:
        return self.w_out.shape[1]


# -- random construction -----------------------------------------------------

def random_feedforward(rng: np.random.Generator, in_dim: int, out_dim: int,
                       depth: int = 2, scale: float = 0.5) -> FeedForward:
    if depth < 1:
        raise ValueError("depth must be at least 1")
    dims = [in_dim] + [in_dim] * (depth - 1) + [out_dim]
    weights, biases = [], []
    for a, b in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(scale=scale, size=(a, b)))
        biases.append(rng.normal(scale=scale, size=(1, b)))
    return FeedForward(tuple(weights), tuple(biases))


def random_head(rng: np.random.Generator, d: int, d_k: int, depth: int = 2,
                bias: float = DEFAULT_BIAS, temperature: float = DEFAULT_TEMPERATURE,
                scale: float = 0.5) -> PolicyHeadParams:
    w_q = rng.normal(scale=scale, size=(d, d_k))
    w_k = rng.normal(scale=scale, size=(d, d_k))
    return PolicyHeadParams(
        ffn_s=random_feedforward(rng, d, d_k, depth, scale),
        ffn_h=random_feedforward(rng, d, d_k, depth, scale),
        w_q=w_q,
        w_k=w_k,
        bias=bias,
        temperature=temperature,
    )


def random_readout(rng: np.random.Generator, d_v: int, vocab: int,
                   scale: float = 0.5) -> Readout:
    return Readout(rng.normal(scale=scale, size=(d_v, vocab)),
                   rng.normal(scale=scale, size=(1, vocab)))


def random_states(rng: np.random.Generator, source_len: int, target_len: int,
                  d: int, d_v: int) -> EncDecStates:
    return EncDecStates(
        h=rng.normal(size=(source_len, d)),
        s=rng.normal(size=(target_len, d)),
        v=rng.normal(size=(source_len, d_v)),
    )


# -- flattening for gradient checks and plain gradient descent ---------------

def parameter_slots(heads: list[PolicyHeadParams], readout: Readout):
    """The layout of theta, the flat parameter vector: a
    :class:`~emma_stream.numerics.policy.HeadSlots` for the heads, which
    must share one shape and lie one after another, and then the readout's
    ``(w_out, b_out)`` slots. :func:`pack_parameters` writes through these
    slots and :func:`unpack_parameters` reads through them."""
    return _layout(tuple([(tuple([w.shape for w in hp.ffn_s.weights]),
                           tuple([w.shape for w in hp.ffn_h.weights]),
                           hp.w_q.shape, hp.w_k.shape) for hp in heads]),
                   tuple([hp.temperature for hp in heads]), readout.w_out.shape)


@lru_cache(maxsize=64)
def _layout(head_shapes: tuple, temperature: tuple, w_out: tuple[int, int]):
    """:func:`parameter_slots` for one key of shapes and temperatures: per
    head each FFN_s then FFN_h layer's weight and 1-row bias, then [[bias]],
    w_q and w_k, flattened row-major; then w_out and its 1-row b_out."""
    if len(set(head_shapes)) > 1:
        raise ValueError("policy heads must share one shape")
    pos = 0

    def slot(shape: tuple[int, int]):
        nonlocal pos
        pos += shape[0] * shape[1]
        return (pos - shape[0] * shape[1],) + shape

    *ffns, w_q, w_k = head_shapes[0]
    ffn_s, ffn_h = (tuple((slot(w), slot((1, w[1]))) for w in ffn) for ffn in ffns)
    bias, w_q, w_k = slot((1, 1)), slot(w_q), slot(w_k)
    head = HeadSlots(pos, ffn_s, ffn_h, bias, w_q, w_k, temperature)
    pos *= len(temperature)
    return head, (slot(w_out), slot((1, w_out[1])))


def pack_parameters(heads: list[PolicyHeadParams], readout: Readout) -> np.ndarray:
    """Every trainable array (temperatures excluded) in one vector, laid out
    by :func:`parameter_slots`."""
    head, (w_out, b_out) = parameter_slots(heads, readout)
    theta = np.empty(b_out[0] + b_out[2])
    for row, hp in zip(head.block(theta), heads):
        for slots, ffn in ((head.ffn_s, hp.ffn_s), (head.ffn_h, hp.ffn_h)):
            for (w, b), layer in zip(slots, ffn.layers()):
                view(row, w)[...], view(row, b)[...] = layer
        view(row, head.bias)[...] = hp.bias
        view(row, head.w_q)[...], view(row, head.w_k)[...] = hp.w_q, hp.w_k
    view(theta, w_out)[...], view(theta, b_out)[...] = readout.w_out, readout.b_out
    return theta


def unpack_parameters(theta: np.ndarray, heads: list[PolicyHeadParams],
                      readout: Readout) -> tuple[list[PolicyHeadParams], Readout]:
    """Rebuild head and readout containers from a flat vector, using the
    given containers as shape templates; the arrays are views of ``theta``."""
    head, (w_out, b_out) = parameter_slots(heads, readout)
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size != b_out[0] + b_out[2]:
        raise ValueError(f"expected {b_out[0] + b_out[2]} parameters, got {theta.size}")

    def ffn(row, slots) -> FeedForward:
        return FeedForward(tuple(view(row, w) for w, _ in slots),
                           tuple(view(row, b) for _, b in slots))

    new_heads = [replace(hp, ffn_s=ffn(row, head.ffn_s), ffn_h=ffn(row, head.ffn_h),
                         bias=float(view(row, head.bias)[0, 0]),
                         w_q=view(row, head.w_q), w_k=view(row, head.w_k))
                 for row, hp in zip(head.block(theta), heads)]
    return new_heads, Readout(view(theta, w_out), view(theta, b_out))
