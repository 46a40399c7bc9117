"""Parameter and state containers for the monotonic-attention policy."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from ..errors import ShapeError
from ..numerics.policy import HeadSlots, ffn_forward

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
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def arrays(self) -> Iterator[np.ndarray]:
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.weights, self.biases))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return ffn_forward(np.asarray(x, dtype=np.float64), self.layers())[-1]


@dataclass(frozen=True)
class PolicyHeadParams:
    """One attention head's policy: energy-projection networks, a learnable
    bias, a fixed temperature, and (optionally) the query/key projections
    used for its soft attention energies."""

    ffn_s: FeedForward
    ffn_h: FeedForward
    bias: float = DEFAULT_BIAS
    temperature: float = DEFAULT_TEMPERATURE
    w_q: np.ndarray | None = None
    w_k: np.ndarray | None = None

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.ffn_s.output_dim != self.ffn_h.output_dim:
            raise ShapeError(
                f"energy projections disagree: {self.ffn_s.output_dim} vs "
                f"{self.ffn_h.output_dim}")
        if (self.w_q is None) != (self.w_k is None):
            raise ValueError("w_q and w_k must be provided together")
        if self.w_q is not None:
            _as_weight(self.w_q, "w_q")
            _as_weight(self.w_k, "w_k")
            if self.w_q.shape[1] != self.w_k.shape[1]:
                raise ShapeError("w_q and w_k must share their output dimension")

    @property
    def has_energy_projections(self) -> bool:
        return self.w_q is not None

    def arrays(self) -> Iterator[np.ndarray]:
        """Trainable arrays in a fixed order (temperature excluded)."""
        yield from self.ffn_s.arrays()
        yield from self.ffn_h.arrays()
        yield np.array([[self.bias]])
        if self.w_q is not None:
            yield self.w_q
            yield self.w_k


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

    @property
    def model_dim(self) -> int:
        return self.h.shape[1]

    @property
    def value_dim(self) -> int:
        return self.v.shape[1]


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

    def arrays(self) -> Iterator[np.ndarray]:
        yield self.w_out
        yield self.b_out


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
                scale: float = 0.5, with_energy_projections: bool = True) -> PolicyHeadParams:
    w_q = rng.normal(scale=scale, size=(d, d_k)) if with_energy_projections else None
    w_k = rng.normal(scale=scale, size=(d, d_k)) if with_energy_projections else None
    return PolicyHeadParams(
        ffn_s=random_feedforward(rng, d, d_k, depth, scale),
        ffn_h=random_feedforward(rng, d, d_k, depth, scale),
        bias=bias,
        temperature=temperature,
        w_q=w_q,
        w_k=w_k,
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

def _all_arrays(heads, readout) -> list[np.ndarray]:
    arrays = []
    for hp in heads:
        arrays.extend(hp.arrays())
    arrays.extend(readout.arrays())
    return arrays


def pack_parameters(heads: list[PolicyHeadParams], readout: Readout) -> np.ndarray:
    """Flatten every trainable array (fixed order) into one vector."""
    return np.concatenate([a.ravel() for a in _all_arrays(heads, readout)])


def _shape_key(hp: PolicyHeadParams) -> tuple:
    return (tuple(w.shape for w in hp.ffn_s.weights),
            tuple(w.shape for w in hp.ffn_h.weights),
            None if hp.w_q is None else (hp.w_q.shape, hp.w_k.shape))


def parameter_slots(heads: list[PolicyHeadParams], readout: Readout):
    """Where :func:`pack_parameters` puts each array: a
    :class:`~emma_stream.numerics.policy.HeadSlots` for the heads, which
    must share one shape and have energy projections, and the readout's
    ``(w_out, b_out)`` slots."""
    key = _shape_key(heads[0])
    if key[2] is None or any(_shape_key(hp) != key for hp in heads[1:]):
        raise ValueError("policy heads must share one shape, with w_q/w_k")
    pos = 0

    def slot(shape: tuple[int, int]):
        nonlocal pos
        pos += shape[0] * shape[1]
        return (pos - shape[0] * shape[1],) + shape

    ffn_s, ffn_h = (tuple((slot(w), slot((1, w[1]))) for w in ws) for ws in key[:2])
    bias, w_q, w_k = slot((1, 1)), slot(key[2][0]), slot(key[2][1])
    head = HeadSlots(pos, ffn_s, ffn_h, bias, w_q, w_k,
                     tuple(hp.temperature for hp in heads))
    pos *= len(heads)
    return head, (slot(readout.w_out.shape), slot(readout.b_out.shape))


def unpack_parameters(theta: np.ndarray, heads: list[PolicyHeadParams],
                      readout: Readout) -> tuple[list[PolicyHeadParams], Readout]:
    """Rebuild head and readout containers from a flat vector, using the
    given containers as shape templates."""
    theta = np.asarray(theta, dtype=np.float64).ravel()
    expected = sum(a.size for a in _all_arrays(heads, readout))
    if theta.size != expected:
        raise ValueError(f"expected {expected} parameters, got {theta.size}")

    pos = 0

    def take(template: np.ndarray) -> np.ndarray:
        nonlocal pos
        out = theta[pos:pos + template.size].reshape(template.shape)
        pos += template.size
        return out

    new_heads = []
    for hp in heads:
        ffns = []
        for ffn in (hp.ffn_s, hp.ffn_h):
            ws = tuple(take(w) for pair in zip(ffn.weights, ffn.biases) for w in pair)
            ffns.append(FeedForward(ws[0::2], ws[1::2]))
        bias = float(take(np.empty((1, 1)))[0, 0])
        if hp.w_q is not None:
            w_q, w_k = take(hp.w_q), take(hp.w_k)
        else:
            w_q = w_k = None
        new_heads.append(replace(hp, ffn_s=ffns[0], ffn_h=ffns[1], bias=bias,
                                 w_q=w_q, w_k=w_k))
    new_readout = Readout(take(readout.w_out), take(readout.b_out))
    return new_heads, new_readout
