"""Corpus evaluation and threshold sweeps.

``evaluate_corpus`` and ``threshold_sweep`` share one scoring path: each
instance runs the call's thresholds in ascending order, and a threshold
inside the previous trace's ``threshold_interval`` reuses that outcome
instead of streaming again. ``run_stream``, ``model_factory``,
``load_instances``, ``corpus_bleu`` and the lagging and offset functions
are looked up in this module's globals at call time, so callers can swap
them (tracing does).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from ..errors import CorpusError, DomainError, EmptyOutputError
from ..metrics.bleu import QualityReport, corpus_bleu
from ..metrics.latency import (InstanceLatency, LatencyReport,
                               average_lagging, build_latency_report,
                               length_adaptive_average_lagging, offsets)
from ..runtime.machine import run_stream
from ..runtime.trace import write_trace_jsonl
from ..runtime.types import StreamInstance
from .manifest import Manifest, load_instances
from .models import model_factory

__all__ = ["CorpusResult", "SweepRow", "SweepReport", "evaluate_corpus",
           "threshold_sweep"]


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    bleu: float
    al: float
    laal: float
    start_offset: float
    end_offset: float
    n_instances: int
    n_failures: int


@dataclass(frozen=True)
class CorpusResult:
    threshold: float
    latency: LatencyReport
    quality: QualityReport
    n_instances: int
    failures: tuple[tuple[str, str], ...]

    def to_row(self) -> SweepRow:
        return SweepRow(
            threshold=self.threshold,
            bleu=self.quality.bleu,
            al=self.latency.al,
            laal=self.latency.laal,
            start_offset=self.latency.start_offset_s,
            end_offset=self.latency.end_offset_s,
            n_instances=self.n_instances,
            n_failures=len(self.failures),
        )


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]


@dataclass(frozen=True)
class _Scored:
    instance_id: str
    latency: InstanceLatency
    hypothesis: tuple[int, ...]
    reference: tuple[int, ...]


def _score_trace(instance: StreamInstance, trace) -> _Scored:
    duration = instance.source_duration_s
    ref_len = len(instance.reference)
    al = average_lagging(trace.delays, duration, ref_len)
    # LAAL paces the ideal by max(ref_len, hyp_len): no more outputs than
    # references is AL's pace, so the value is AL's, bit for bit
    laal = (al if len(trace.delays) <= ref_len else
            length_adaptive_average_lagging(trace.delays, duration, ref_len,
                                            len(trace.delays)))
    offs = offsets(trace)
    row = InstanceLatency(instance_id=instance.id, al=al, laal=laal,
                          start_offset_s=offs["start_offset_s"],
                          end_offset_s=offs["end_offset_s"])
    if not all(math.isfinite(v) for v in (al, laal, row.start_offset_s,
                                          row.end_offset_s)):
        raise DomainError(f"instance {instance.id!r} has a non-finite latency "
                          f"(AL {al}, LAAL {laal}, offsets "
                          f"{row.start_offset_s}, {row.end_offset_s})")
    return _Scored(instance.id, row, tuple(trace.outputs),
                   instance.reference)


def _score_instance(instance: StreamInstance, factory, configs, trace_dirs):
    """The outcome of one instance at each config, thresholds ascending: a
    ``_Scored``, or ``(id, error)`` when streaming or scoring failed.

    A trace holds at every threshold inside its ``threshold_interval``, so
    the previous threshold's outcome is reused (and its trace written again
    under the new trace directory) when the next threshold lies inside it.
    A failed instance is streamed again at the next threshold. Only the
    previous trace is kept.
    """
    outcomes = []
    last = None  # (trace, scored) of the previous threshold
    for config, trace_dir in zip(configs, trace_dirs):
        if last is not None:
            lo, hi = last[0].threshold_interval
            if not lo < config.threshold <= hi:
                last = None
        if last is None:
            try:
                trace = run_stream(factory(instance), instance, config)
                if trace_dir is not None:
                    write_trace_jsonl(trace, trace_dir)
                last = (trace, _score_trace(instance, trace))
            except (EmptyOutputError, DomainError, ValueError) as exc:
                outcomes.append((instance.id, f"{type(exc).__name__}: {exc}"))
                continue
        elif trace_dir is not None:
            write_trace_jsonl(last[0], trace_dir)
        outcomes.append(last[1])
    return outcomes


def _prepare(manifest: Manifest, workers: int):
    """The instances and the model factory of one top-level call."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    instances = load_instances(manifest.instances)
    if not instances:
        raise CorpusError(f"no instances in {manifest.instances}")
    factory = model_factory(manifest.model_kind, manifest.model_parameters,
                            manifest.seed)
    return instances, factory


def _score_corpus(instances, factory, configs, workers: int,
                  trace_dirs) -> list[CorpusResult]:
    """Stream every instance at each of ``configs`` (thresholds ascending)
    and aggregate each threshold in instance-id order.

    The first threshold at which every instance failed raises CorpusError.
    """

    def score(instance):
        return _score_instance(instance, factory, configs, trace_dirs)

    if workers == 1:
        per_instance = [score(inst) for inst in instances]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_instance = list(pool.map(score, instances))

    results = []
    for k, config in enumerate(configs):
        outcomes = [row[k] for row in per_instance]
        scored = sorted((o for o in outcomes if isinstance(o, _Scored)),
                        key=lambda s: s.instance_id)
        failures = tuple(sorted(o for o in outcomes
                                if not isinstance(o, _Scored)))
        if not scored:
            raise CorpusError(f"all {len(instances)} instances failed; "
                              f"first: {failures[0][1]}")
        quality = corpus_bleu([s.hypothesis for s in scored],
                              [s.reference for s in scored])
        latency = build_latency_report(s.latency for s in scored)
        results.append(CorpusResult(threshold=config.threshold,
                                    latency=latency, quality=quality,
                                    n_instances=len(scored),
                                    failures=failures))
    return results


def evaluate_corpus(manifest: Manifest, *, threshold: float | None = None,
                    workers: int = 1, trace_dir=None) -> CorpusResult:
    """Stream every instance, score it, aggregate in instance-id order.

    Per-instance failures are recorded, not fatal; a corpus where every
    instance failed raises CorpusError. The reduction sorts by instance id,
    so the result does not depend on worker scheduling.
    """
    instances, factory = _prepare(manifest, workers)
    config = manifest.runtime
    if threshold is not None:
        config = replace(config, threshold=float(threshold))
    return _score_corpus(instances, factory, (config,), workers,
                         (trace_dir,))[0]


def threshold_sweep(manifest: Manifest, *, workers: int = 1,
                    trace_dir=None) -> SweepReport:
    """One corpus score per sweep threshold, rows sorted by threshold.

    The instances are loaded and the model factory is built (for
    ``toy_trained``: trained) once for the whole sweep. Each instance runs
    the thresholds in ascending order and is streamed again only when a
    policy decision would change (see ``_score_instance``), so each row
    still equals ``evaluate_corpus(manifest, threshold=t).to_row()``.
    Traces of threshold t go to ``trace_dir/threshold-<t:.6f>/``. Every
    instance runs every threshold before the rows are aggregated, so when
    every instance fails at some threshold the CorpusError comes after the
    traces of all thresholds are written.
    """
    thresholds = sorted(manifest.sweep)
    if len(thresholds) < 2:
        raise ValueError("a sweep needs at least two thresholds")
    instances, factory = _prepare(manifest, workers)
    configs = tuple(replace(manifest.runtime, threshold=float(t))
                    for t in thresholds)
    trace_dirs = tuple(None if trace_dir is None
                       else Path(trace_dir) / f"threshold-{t:.6f}"
                       for t in thresholds)
    results = _score_corpus(instances, factory, configs, workers, trace_dirs)
    return SweepReport(rows=tuple(result.to_row() for result in results))
