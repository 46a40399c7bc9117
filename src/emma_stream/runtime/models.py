"""Copy models: the shared copy core and deterministic scripted models.

The copy core's encoder states are the chunk view the streaming loop
hands ``encode_prefix``, and every token it writes is the payload of a
consumed chunk. Every scripted model is a :class:`_ScriptedProbability`:
its head probabilities are a pure function of (written, consumed). The
wait-k copier is that core over the rule consumed >= k + written.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .types import EOS_TOKEN, PrefixView, SourceChunk

__all__ = ["CopyModel", "scripted_waitk_model", "scripted_probability_model"]


class CopyModel:
    """Copy core of every built-in model: the states are the chunk view
    the loop hands ``encode_prefix`` (an O(1) :class:`PrefixView` of the
    consumed chunks), kept as it is, not copied or wrapped. Any other
    sequence of chunks is wrapped once in a view of its tuple, so the
    states are always a view and are read through its ``n`` and
    ``items`` slots.

    ``next_token`` copies the payload of the first chunk not yet copied
    and returns EOS once every consumed payload has been copied. Answers
    are tuples; with nothing left to copy every head answers 0.0, so the
    loop reads on. Subclasses supply ``n_heads`` and ``_probabilities``,
    which is only asked while an uncopied payload exists.
    """

    n_heads = 1

    def encode_prefix(self, chunks: Sequence[SourceChunk]) -> PrefixView:
        if isinstance(chunks, PrefixView):
            return chunks
        chunks = tuple(chunks)
        return PrefixView(chunks, len(chunks))

    def head_probabilities(self, states: PrefixView,
                           prefix: Sequence[int]) -> Sequence[float]:
        if len(prefix) >= states.n:
            return (0.0,) * self.n_heads
        return self._probabilities(states, prefix)

    def next_token(self, states: PrefixView, prefix: Sequence[int]) -> int:
        written = len(prefix)
        if written >= states.n:
            return EOS_TOKEN
        return states.items[written].payload

    def _probabilities(self, states, prefix: Sequence[int]) -> Sequence[float]:
        raise NotImplementedError


class _ScriptedProbability(CopyModel):
    """Head probabilities from a pure function of (written, consumed).

    Useful for threshold-dominance properties: the probability surface is
    fixed, so raising the threshold can only postpone writes.
    """

    def __init__(self, prob_fn: Callable[[int, int], Sequence[float]]):
        self.prob_fn = prob_fn

    def _probabilities(self, states, prefix: Sequence[int]) -> tuple[float, ...]:
        return tuple(self.prob_fn(len(prefix), states.n))


def scripted_probability_model(prob_fn: Callable[[int, int], Sequence[float]]):
    """Model whose write probabilities are ``prob_fn(written, consumed)``."""
    return _ScriptedProbability(prob_fn)


class _WaitK(_ScriptedProbability):
    """Copies source payloads after a fixed head start of k chunks.

    The head probability is 1 exactly when consumed >= k + written, else 0;
    thresholds in (0,1) are irrelevant. Tokens go through ``vocab_map``
    when one is given.
    """

    def __init__(self, k: int, vocab_map: Mapping[int, int] | None):
        super().__init__(lambda written, consumed:
                         [1.0 if consumed >= k + written else 0.0])
        self.vocab_map = vocab_map

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
