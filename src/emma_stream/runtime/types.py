"""Domain types for the streaming decoder state machine."""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol, Sequence, runtime_checkable

# End-of-sequence marker; never recorded as an output token.
EOS_TOKEN = -1

__all__ = [
    "EOS_TOKEN",
    "SourceChunk",
    "StreamInstance",
    "PrefixView",
    "RuntimeConfig",
    "IncrementalModel",
    "TraceEvent",
    "Emission",
    "DecisionTrace",
]


@dataclass(frozen=True, slots=True)
class SourceChunk:
    duration_s: float
    payload: int

    def __post_init__(self):
        if not self.duration_s > 0:
            raise ValueError(f"chunk duration must be positive, got {self.duration_s}")


@dataclass(frozen=True)
class StreamInstance:
    id: str
    source_chunks: tuple[SourceChunk, ...]
    reference: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "source_chunks", tuple(self.source_chunks))
        object.__setattr__(self, "reference", tuple(int(t) for t in self.reference))

    @cached_property
    def source_duration_s(self) -> float:
        return sum(c.duration_s for c in self.source_chunks)


class PrefixView(SequenceABC):
    """Read-only view of ``items[:n]`` made in O(1), without copying.

    It supports ``len``, indexing (negative too), iteration and slicing,
    with the results the tuple ``tuple(items[:n])`` would give, and compares
    equal to that tuple. ``items`` must not change while the view is used;
    an instance's chunk tuple never does.
    """

    __slots__ = ("_items", "_n")

    def __init__(self, items: Sequence, n: int):
        if not 0 <= n <= len(items):
            raise ValueError(f"prefix length {n} outside 0..{len(items)}")
        self._items = items
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._items[i] for i in range(self._n)[index])
        if not -self._n <= index < self._n:
            raise IndexError("prefix index out of range")
        return self._items[index % self._n]

    def __iter__(self):
        return itertools.islice(self._items, self._n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (PrefixView, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the streaming loop.

    ``threshold`` is the write-decision cut t applied to the minimum head
    probability; ``min_unit_chunk`` is the smallest unit count worth
    emitting before the stream ends; each committed token synthesizes
    ``units_per_token`` units of ``unit_duration_s`` seconds playback.
    """

    threshold: float = 0.5
    min_unit_chunk: int = 1
    units_per_token: int = 1
    unit_duration_s: float = 0.020
    max_target_len: int = 256

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie strictly in (0,1), got {self.threshold}")
        if self.min_unit_chunk < 1:
            raise ValueError("min_unit_chunk must be at least 1")
        if self.units_per_token < 1:
            raise ValueError("units_per_token must be at least 1")
        if not self.unit_duration_s > 0:
            raise ValueError("unit_duration_s must be positive")
        if self.max_target_len < 1:
            raise ValueError("max_target_len must be at least 1")


@runtime_checkable
class IncrementalModel(Protocol):
    """Behavioral contract the streaming loop drives.

    After every read the loop calls ``encode_prefix`` on the whole consumed
    prefix, passed as an O(1) :class:`PrefixView` of the instance's chunks;
    while source remains it calls ``head_probabilities`` once per
    (written, consumed) state, and ``next_token`` for every write.
    Implementations must be deterministic given identical call history.
    The built-in models (``runtime.models.CopyModel``) keep the view they
    are handed as their states and read each chunk's payload from it, so
    encoding a prefix is O(1) too.
    """

    def encode_prefix(self, chunks: Sequence[SourceChunk]):
        """Encoder states for the consumed prefix."""

    def head_probabilities(self, states, prefix: Sequence[int]) -> list[float]:
        """Per-head write probabilities for the next target position."""

    def next_token(self, states, prefix: Sequence[int]) -> int:
        """Next target token id, or EOS_TOKEN."""


@dataclass(frozen=True, slots=True)
class TraceEvent:
    sim_time_s: float
    kind: str  # READ | WRITE | EMIT | FINISH
    token: int | None = None
    units: int | None = None


@dataclass(frozen=True, slots=True)
class Emission:
    """One synthesized output chunk: emission time and playback length."""

    emit_time_s: float
    playback_duration_s: float
    tokens: tuple[int, ...]


@dataclass
class DecisionTrace:
    """Everything a run produced: events, committed tokens, their delays
    (seconds of source consumed at commit time), and emitted chunks.

    ``threshold_interval`` is (lo, hi): the run took every policy decision
    the way it would at any threshold t with lo < t <= hi. ``run_stream``
    sets lo to the largest minimum head probability among its READ
    decisions (-inf without any) and hi to the smallest among its WRITE
    decisions (+inf without any); the unconditional first read and the
    offline-tail writes are no decisions, and a read on a NaN head moves
    neither bound. The default is empty: a trace made by hand claims no
    threshold.
    """

    instance_id: str
    source_duration_s: float
    events: list[TraceEvent] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)
    delays: list[float] = field(default_factory=list)
    emissions: list[Emission] = field(default_factory=list)
    truncated: bool = False
    threshold_interval: tuple[float, float] = (math.inf, -math.inf)
