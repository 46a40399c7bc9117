"""Copy models: the shared copy core and deterministic scripted models."""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .types import EOS_TOKEN, PrefixView, SourceChunk

__all__ = ["CopyModel", "Payloads", "scripted_waitk_model",
           "scripted_probability_model"]


class Payloads(PrefixView):
    """Read-only view of the payloads of a chunk sequence, made in O(1):
    item j is ``chunks[j].payload``. A :class:`PrefixView` is unwrapped,
    so a read goes through one view, not two."""

    __slots__ = ()

    def __init__(self, chunks: Sequence[SourceChunk]):
        self._items = chunks._items if isinstance(chunks, PrefixView) else chunks
        self._n = len(chunks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(c.payload for c in super().__getitem__(index))
        if not -self._n <= index < self._n:
            raise IndexError("payload index out of range")
        return self._items[index % self._n].payload

    def __iter__(self):
        return (c.payload for c in super().__iter__())


class CopyModel:
    """Copy core of every built-in model: the states are a view of the
    consumed payloads (:class:`Payloads`), not a copy of them.

    ``next_token`` copies the first payload not yet copied and returns EOS
    once every consumed payload has been copied. With nothing left to copy
    every head returns 0, so the loop reads on. Subclasses supply
    ``n_heads`` and ``_probabilities(states, prefix)``, which is only asked
    while an uncopied payload exists.
    """

    n_heads = 1

    def encode_prefix(self, chunks: Sequence[SourceChunk]) -> Payloads:
        return Payloads(chunks)

    def head_probabilities(self, states, prefix: Sequence[int]) -> list[float]:
        if len(prefix) >= len(states):
            return [0.0] * self.n_heads
        return self._probabilities(states, prefix)

    def next_token(self, states, prefix: Sequence[int]) -> int:
        if len(prefix) >= len(states):
            return EOS_TOKEN
        return states[len(prefix)]

    def _probabilities(self, states, prefix: Sequence[int]) -> list[float]:
        raise NotImplementedError


class _WaitK(CopyModel):
    """Copies source payloads after a fixed head start of k chunks.

    The head probability is 1 exactly when consumed >= k + written, else 0;
    thresholds in (0,1) are irrelevant.
    """

    def __init__(self, k: int, vocab_map: Mapping[int, int] | None):
        self.k = k
        self.vocab_map = vocab_map

    def _probabilities(self, states, prefix: Sequence[int]) -> list[float]:
        return [1.0 if len(states) >= self.k + len(prefix) else 0.0]

    def next_token(self, states, prefix: Sequence[int]) -> int:
        token = super().next_token(states, prefix)
        if self.vocab_map is None or token == EOS_TOKEN:
            return token
        if token not in self.vocab_map:
            raise ValueError(f"payload {token} is missing from vocab_map")
        return self.vocab_map[token]


def scripted_waitk_model(k: int, vocab_map: Mapping[int, int] | None = None) -> _WaitK:
    """Wait-k copy policy; ``vocab_map`` of None copies payloads verbatim."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return _WaitK(k, vocab_map)


class _ScriptedProbability(CopyModel):
    """Head probabilities from a pure function of (written, consumed).

    Useful for threshold-dominance properties: the probability surface is
    fixed, so raising the threshold can only postpone writes.
    """

    def __init__(self, prob_fn: Callable[[int, int], Sequence[float]]):
        self.prob_fn = prob_fn

    def _probabilities(self, states, prefix: Sequence[int]) -> list[float]:
        return list(self.prob_fn(len(prefix), len(states)))


def scripted_probability_model(prob_fn: Callable[[int, int], Sequence[float]]):
    """Model whose write probabilities are ``prob_fn(written, consumed)``."""
    return _ScriptedProbability(prob_fn)
