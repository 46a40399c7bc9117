"""Corpus evaluation and threshold sweeps."""

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


def _score_instance(instance: StreamInstance, factory, config, trace_dir):
    model = factory(instance)
    trace = run_stream(model, instance, config)
    if trace_dir is not None:
        write_trace_jsonl(trace, trace_dir)
    duration = instance.source_duration_s
    al = average_lagging(trace.delays, duration, len(instance.reference))
    laal = length_adaptive_average_lagging(
        trace.delays, duration, len(instance.reference), len(trace.delays))
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


def _prepare(manifest: Manifest, workers: int):
    """The instances and the model factory of one top-level call.

    ``load_instances`` and ``model_factory`` are looked up in this module's
    globals at call time, so callers can swap them (tracing does).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    instances = load_instances(manifest.instances)
    if not instances:
        raise CorpusError(f"no instances in {manifest.instances}")
    factory = model_factory(manifest.model_kind, manifest.model_parameters,
                            manifest.seed)
    return instances, factory


def _score_corpus(instances, factory, config, workers: int,
                  trace_dir) -> CorpusResult:
    """Stream every instance at ``config``, aggregate in instance-id order."""

    def score(instance):
        try:
            return _score_instance(instance, factory, config, trace_dir)
        except (EmptyOutputError, DomainError, ValueError) as exc:
            return (instance.id, f"{type(exc).__name__}: {exc}")

    if workers == 1:
        outcomes = [score(inst) for inst in instances]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(score, instances))

    scored = sorted((o for o in outcomes if isinstance(o, _Scored)),
                    key=lambda s: s.instance_id)
    failures = tuple(sorted(o for o in outcomes if not isinstance(o, _Scored)))
    if not scored:
        raise CorpusError(
            f"all {len(instances)} instances failed; first: {failures[0][1]}")

    quality = corpus_bleu([s.hypothesis for s in scored],
                          [s.reference for s in scored])
    latency = build_latency_report(s.latency for s in scored)
    return CorpusResult(threshold=config.threshold, latency=latency,
                        quality=quality, n_instances=len(scored),
                        failures=failures)


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
    return _score_corpus(instances, factory, config, workers, trace_dir)


def threshold_sweep(manifest: Manifest, *, workers: int = 1,
                    trace_dir=None) -> SweepReport:
    """One corpus score per sweep threshold, rows sorted by threshold.

    The instances are loaded and the model factory is built (for
    ``toy_trained``: trained) once for the whole sweep; each row equals
    ``evaluate_corpus(manifest, threshold=t).to_row()``. Traces of
    threshold t go to ``trace_dir/threshold-<t:.6f>/``.
    """
    thresholds = sorted(manifest.sweep)
    if len(thresholds) < 2:
        raise ValueError("a sweep needs at least two thresholds")
    instances, factory = _prepare(manifest, workers)
    rows = tuple(
        _score_corpus(instances, factory,
                      replace(manifest.runtime, threshold=float(t)), workers,
                      None if trace_dir is None
                      else Path(trace_dir) / f"threshold-{t:.6f}").to_row()
        for t in thresholds)
    return SweepReport(rows=rows)
