"""Benchmark-side tracing: spans around the calls into each layer.

A traced run swaps the module attributes that the package looks up at call
time (``emma_stream.harness.evaluate.run_stream``, ``...training.emma_objective``,
``Tape.backward`` and the rest listed in :func:`instrument`) for wrappers that
record a span, and wraps every model the factory returns in
:class:`CountingModel`. Nothing in the package changes; :meth:`Tracer.restore`
puts the originals back. Spans stay in memory until :meth:`Tracer.write`.

A span is ``(id, parent, name, start, end, data)``. The parent is the
innermost open span on the same thread; a span opened on a worker thread with
nothing open there takes the innermost span open on the thread that made the
tracer, which is the ``evaluate_corpus`` call that started the pool.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# Per-layer metrics in the order BENCHMARK.json lists them. Times and counts
# are per top-level call unless the name says per instance (runtime counts
# are per streamed instance, numerics figures per objective with gradient).
# A layer the workload does not use reads 0.
PER_LAYER = (
    ("harness.load_calls", "count", "lower"),
    ("harness.load_instances_s", "s", "lower"),
    ("harness.factory_builds", "count", "lower"),
    ("harness.factory_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("runtime.encode_chunk_ratio", "ratio", "lower"),
    ("runtime.encodes", "count", "lower"),
    ("runtime.encode_s", "s", "lower"),
    ("runtime.duplicate_query_ratio", "ratio", "lower"),
    ("runtime.policy_queries", "count", "lower"),
    ("runtime.query_s", "s", "lower"),
    ("runtime.decision_us_p50", "us", "lower"),
    ("runtime.decision_us_ptop", "us", "lower"),
    ("runtime.decision_us_ptop_q", "percentile", "higher"),
    ("runtime.decision_samples", "count", "higher"),
    ("runtime.stream_ms_p50", "ms", "lower"),
    ("runtime.stream_ms_ptop", "ms", "lower"),
    ("runtime.stream_ms_ptop_q", "percentile", "higher"),
    ("runtime.stream_samples", "count", "higher"),
    ("runtime.next_token_s", "s", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("runtime.reads", "count", "lower"),
    ("runtime.writes", "count", "lower"),
    ("runtime.emissions", "count", "lower"),
    ("metrics.lagging_s", "s", "lower"),
    ("metrics.bleu_s", "s", "lower"),
    ("metrics.bleu", "BLEU", "higher"),
    ("metrics.al_s", "s", "lower"),
    ("metrics.end_offset_s", "s", "lower"),
    ("emma.objective_s", "s", "lower"),
    ("emma.delay_gap", "positions", "higher"),
    ("emma.objective_grad_ms.6x4", "ms", "lower"),
    ("emma.objective_grad_ms.64x16", "ms", "lower"),
    ("emma.objective_nograd_ms.6x4", "ms", "lower"),
    ("emma.objective_nograd_ms.64x16", "ms", "lower"),
    ("emma.alignment_ms.8x16", "ms", "lower"),
    ("emma.alignment_ms.32x64", "ms", "lower"),
    ("emma.alignment_ms.128x512", "ms", "lower"),
    ("emma.beta_ms.8x16", "ms", "lower"),
    ("emma.beta_ms.32x64", "ms", "lower"),
    ("emma.beta_ms.128x512", "ms", "lower"),
    ("numerics.tape_nodes", "count", "lower"),
    ("numerics.backward_ms", "ms", "lower"),
    ("numerics.record_ms", "ms", "lower"),
    ("numerics.tape_mb", "MB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

_CALLS = ("harness.evaluate_corpus", "harness.threshold_sweep",
          "harness.train_toy_policy")
_LAGGING = ("metrics.average_lagging",
            "metrics.length_adaptive_average_lagging", "metrics.offsets",
            "metrics.build_latency_report")


class Tracer:
    """In-memory span recorder with patch and restore of package attributes."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()
        self._saved: list[tuple] = []
        self._tape_bytes: dict[int, int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name, fn, args, kwargs, describe=None):
        """Call ``fn`` inside a span; ``describe(args, result)`` gives its data."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home[-1] if self._home else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = perf_counter()
            stack.pop()
            data = describe(args, out) if describe and out is not None else None
            self.spans.append((sid, parent, name, start, end, data))

    def wrap(self, name, fn, describe=None):
        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs, describe)
        return traced

    def patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def tape_bytes(self, tape) -> int:
        """Bytes of node values a tape holds; equal-length tapes of one
        objective size hold equal bytes, so each length is summed once."""
        n = len(tape)
        if n not in self._tape_bytes:
            self._tape_bytes[n] = sum(node.value.nbytes for node in tape.nodes)
        return self._tape_bytes[n]

    def write(self, path: Path) -> None:
        """Gzipped JSON lines ``[id, parent, name, start, end, data]``,
        times in seconds from the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, parent, name, start, end, data in self.spans:
                fh.write(json.dumps([sid, parent, name, round(start - t0, 9),
                                     round(end - t0, 9), data]) + "\n")


class CountingModel:
    """IncrementalModel proxy: spans every model call, notes how many chunks
    each encode covers and whether a policy query repeats a (written,
    consumed) state this instance already queried."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer
        self._consumed = 0
        self._queried: set[tuple[int, int]] = set()

    def encode_prefix(self, chunks):
        self._consumed = len(chunks)
        return self._tracer.run("runtime.encode_prefix",
                                self._model.encode_prefix, (chunks,), {},
                                lambda args, out: len(args[0]))

    def head_probabilities(self, states, prefix):
        key = (len(prefix), self._consumed)
        repeat = int(key in self._queried)
        self._queried.add(key)
        return self._tracer.run("runtime.head_probabilities",
                                self._model.head_probabilities,
                                (states, prefix), {}, lambda args, out: repeat)

    def next_token(self, states, prefix):
        return self._tracer.run("runtime.next_token", self._model.next_token,
                                (states, prefix), {})


def instrument(tracer: Tracer) -> None:
    """Swap the package's layer entry points for span-recording wrappers."""
    from emma_stream.harness import evaluate, training
    from emma_stream.numerics.tape import Tape

    original_factory = evaluate.model_factory

    def traced_factory(kind, parameters, seed):
        factory = tracer.run("harness.model_factory", original_factory,
                             (kind, parameters, seed), {})
        return lambda instance: CountingModel(factory(instance), tracer)

    def stream_counts(args, trace):
        kinds = [event.kind for event in trace.events]
        return (kinds.count("READ"), len(trace.outputs), len(trace.emissions))

    tracer.patch(evaluate, "model_factory", traced_factory)
    tracer.patch(evaluate, "evaluate_corpus",
                 tracer.wrap("harness.evaluate_corpus", evaluate.evaluate_corpus))
    tracer.patch(evaluate, "load_instances",
                 tracer.wrap("harness.load_instances", evaluate.load_instances))
    tracer.patch(evaluate, "run_stream",
                 tracer.wrap("runtime.run_stream", evaluate.run_stream,
                             stream_counts))
    for name in ("average_lagging", "length_adaptive_average_lagging",
                 "offsets", "build_latency_report", "corpus_bleu"):
        tracer.patch(evaluate, name,
                     tracer.wrap(f"metrics.{name}", getattr(evaluate, name)))
    tracer.patch(training, "emma_objective",
                 tracer.wrap("emma.emma_objective", training.emma_objective))
    tracer.patch(Tape, "backward",
                 tracer.wrap("numerics.backward", Tape.backward,
                             lambda args, out: (len(args[0]),
                                                tracer.tape_bytes(args[0]))))


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] that the union of ``intervals`` covers."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def _self_time(spans, children) -> float:
    return sum(s[4] - s[3] - _covered(s[3], s[4], children.get(s[0], ()))
               for s in spans)


def top_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples above it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def _distribution(prefix: str, values, scale: float) -> dict:
    n = len(values)
    q = top_percentile(n)
    if n:
        p50, ptop = (float(v) * scale for v in np.percentile(values, [50, q]))
    else:
        p50 = ptop = 0.0
    return {f"{prefix}_p50": p50, f"{prefix}_ptop": ptop,
            f"{prefix}_ptop_q": q if n else 0.0}


def layer_metrics(spans, n_calls: int) -> dict:
    """Per-layer figures from the spans of ``n_calls`` top-level calls."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    by_id = {}
    for span in spans:
        by_name[span[2]].append(span)
        children[span[1]].append((span[3], span[4]))
        by_id[span[0]] = span

    def dur(names) -> float:
        names = (names,) if isinstance(names, str) else names
        return sum(s[4] - s[3] for n in names for s in by_name[n])

    def per(value, base) -> float:
        return value / base if base else 0.0

    # A call that raised leaves its span without data; the run already
    # counts it as failed, so its figures are left out here.
    streams = by_name["runtime.run_stream"]
    encodes = by_name["runtime.encode_prefix"]
    queries = by_name["runtime.head_probabilities"]
    backwards = [s for s in by_name["numerics.backward"] if s[5] is not None]
    counted = [s[5] for s in streams if s[5] is not None]
    reads, writes, emissions = (sum(c[k] for c in counted) for k in range(3))
    out = {
        "harness.load_calls": per(len(by_name["harness.load_instances"]), n_calls),
        "harness.load_instances_s": per(dur("harness.load_instances"), n_calls),
        "harness.factory_builds": per(len(by_name["harness.model_factory"]), n_calls),
        "harness.factory_s": per(dur("harness.model_factory"), n_calls),
        "harness.self_s": per(_self_time([s for n in _CALLS for s in by_name[n]],
                                         children), n_calls),
        "runtime.encode_chunk_ratio": per(sum(s[5] or 0 for s in encodes), reads),
        "runtime.encodes": per(len(encodes), len(streams)),
        "runtime.encode_s": per(dur("runtime.encode_prefix"), n_calls),
        "runtime.duplicate_query_ratio": per(sum(s[5] or 0 for s in queries),
                                             len(queries)),
        "runtime.policy_queries": per(len(queries), len(streams)),
        "runtime.query_s": per(dur("runtime.head_probabilities"), n_calls),
        "runtime.decision_samples": float(len(queries)),
        "runtime.stream_samples": float(len(streams)),
        "runtime.next_token_s": per(dur("runtime.next_token"), n_calls),
        "runtime.self_s": per(_self_time(streams, children), n_calls),
        "runtime.reads": per(reads, len(streams)),
        "runtime.writes": per(writes, len(streams)),
        "runtime.emissions": per(emissions, len(streams)),
        "metrics.lagging_s": per(dur(_LAGGING), n_calls),
        "metrics.bleu_s": per(dur("metrics.corpus_bleu"), n_calls),
        "emma.objective_s": per(dur("emma.emma_objective"), n_calls),
        "numerics.tape_nodes": per(sum(s[5][0] for s in backwards), len(backwards)),
        "numerics.backward_ms": per(1e3 * sum(s[4] - s[3] for s in backwards),
                                    len(backwards)),
        "numerics.record_ms": per(1e3 * sum(
            (by_id[s[1]][4] - by_id[s[1]][3]) - (s[4] - s[3]) for s in backwards),
            len(backwards)),
        "numerics.tape_mb": per(sum(s[5][1] for s in backwards) / 1e6, len(backwards)),
    }
    out.update(_distribution("runtime.decision_us",
                             [s[4] - s[3] for s in queries], 1e6))
    out.update(_distribution("runtime.stream_ms",
                             [s[4] - s[3] for s in streams], 1e3))
    return out
