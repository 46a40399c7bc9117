"""Latency metrics over decision traces: lagging and speech offsets.

A trace has a few dozen delays at most, so the lagging metrics check and
scan them as Python floats; only the final mean goes to numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, EmptyOutputError
from ..runtime.types import DecisionTrace

__all__ = [
    "average_lagging",
    "length_adaptive_average_lagging",
    "offsets",
    "InstanceLatency",
    "LatencyReport",
    "build_latency_report",
]

# equality cut for "delay reached the source end" on real-valued seconds
_CUTOFF_TOL = 1e-9


def _checked_delays(delays, source_len: float) -> list[float]:
    """Delays as a list of floats: non-empty, finite, non-decreasing, within
    the source."""
    d = np.asarray(delays, dtype=np.float64).ravel().tolist()
    if not d:
        raise ValueError("lagging needs at least one delay")
    if not all(map(math.isfinite, d)):
        raise DomainError("delays must be finite")
    if d != sorted(d):
        raise DomainError("delays must be non-decreasing")
    if d[-1] > source_len + _CUTOFF_TOL:
        raise DomainError("delays exceed the source length")
    return d


def _cutoff(d: list[float], source_len: float) -> int:
    """1-based index of the first delay equal to the source length.

    Falls back to |d| when no delay reaches the end (truncated outputs).
    """
    for k, delay in enumerate(d, 1):
        if abs(delay - source_len) <= _CUTOFF_TOL:
            return k
    return len(d)


def _lagging(d: list[float], source_len: float, denom_len: int) -> float:
    """Mean of d_k - k * |x| / denom_len over the cutoff prefix.

    The terms go to numpy's pairwise sum; a Python ``sum`` or ``math.fsum``
    rounds differently from 8 terms up.
    """
    tau = _cutoff(d, source_len)
    rate = source_len / denom_len
    return float(np.add.reduce([d[k] - k * rate for k in range(tau)]) / tau)


def average_lagging(delays, source_len: float, ref_len: int) -> float:
    """Mean lag over the cutoff prefix against the uniform-rate ideal.

    Works in any consistent delay unit: seconds with source_len in seconds,
    or token counts with source_len in tokens.
    """
    d = _checked_delays(delays, source_len)
    if ref_len < 1:
        raise ValueError("ref_len must be positive")
    return _lagging(d, source_len, ref_len)


def length_adaptive_average_lagging(delays, source_len: float, ref_len: int,
                                    hyp_len: int) -> float:
    """AL with the ideal rate slowed to max(ref_len, hyp_len) steps."""
    d = _checked_delays(delays, source_len)
    if ref_len < 1 or hyp_len < 1:
        raise ValueError("sequence lengths must be positive")
    return _lagging(d, source_len, max(ref_len, hyp_len))


def offsets(trace: DecisionTrace) -> dict:
    """Start and end offsets of the synthesized output stream.

    Output chunks play back serialized: each starts at its emission time or
    at the end of the previous chunk, whichever is later. The end offset is
    how far past the source end the playback finishes.
    """
    if not trace.emissions:
        raise EmptyOutputError(
            f"instance {trace.instance_id!r} produced no output to time")
    playback_end = 0.0
    for emission in trace.emissions:
        start = max(emission.emit_time_s, playback_end)
        playback_end = start + emission.playback_duration_s
    return {
        "start_offset_s": trace.emissions[0].emit_time_s,
        "end_offset_s": playback_end - trace.source_duration_s,
    }


@dataclass(frozen=True)
class InstanceLatency:
    instance_id: str
    al: float
    laal: float
    start_offset_s: float
    end_offset_s: float


@dataclass(frozen=True)
class LatencyReport:
    """Per-instance rows plus their unweighted corpus means."""

    per_instance: tuple[InstanceLatency, ...]
    al: float
    laal: float
    start_offset_s: float
    end_offset_s: float


def build_latency_report(rows) -> LatencyReport:
    rows = tuple(rows)
    if not rows:
        raise ValueError("latency report needs at least one scored instance")
    return LatencyReport(
        per_instance=rows,
        al=float(np.mean([r.al for r in rows])),
        laal=float(np.mean([r.laal for r in rows])),
        start_offset_s=float(np.mean([r.start_offset_s for r in rows])),
        end_offset_s=float(np.mean([r.end_offset_s for r in rows])),
    )
