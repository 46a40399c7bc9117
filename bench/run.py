#!/usr/bin/env python3
"""emma-stream benchmark: one workload per run, outputs checked, one JSON line.

Run from anywhere; the package is imported from ``src/`` beside this
directory, so no install is needed:

    python3 bench/run.py --workload stream-long --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

- ``stream-long``: ``harness.evaluate_corpus`` at threshold 0.5, one worker,
  ``toy_trained`` (20 training steps), 40 instances x 200 chunks.
- ``sweep-short``: ``harness.threshold_sweep`` over 0.3/0.5/0.7/0.9, one
  worker, ``toy_trained``, 400 instances x 8 chunks; set-up also checks
  the two-worker report against it.
- ``train-mid``: ``harness.train_toy_policy`` at |x|=64, |y|=16, 2 heads,
  lambda_latency 0 and 0.5.

The load is a closed loop from one process: one caller issues the next
top-level call when the previous one has returned, for ``--seconds``.
``--trace 0`` reports the end-to-end metrics of an uninstrumented run.
``--trace 1`` measures half the time uninstrumented and half with spans
(see spans.py), then runs the emma kernel probe, and reports every
per-layer metric plus the tracing overhead; the spans go to
``bench/.work/spans-<workload>.jsonl.gz``. ``--smoke`` shrinks every
size so a run takes seconds; the benchmark's tests use it.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``attempted`` counts top-level calls plus the items inside them (instance
scorings, or training runs on train-mid); ``failed`` counts calls that
raised or failed a check plus items the harness reported as failed. Exit
codes: 0 when every check held, 1 when one failed, 2 when the package
source is missing or an argument is bad.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 3
MIN_CALLS = 3
BLEU_TOL = 1e-9


class SetupError(RuntimeError):
    """The package source is missing or is not the one beside the benchmark."""


def import_package():
    """Import emma_stream from ``src/`` of this checkout, never from elsewhere."""
    package = SRC / "emma_stream"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"package source not found at {package}")
    sys.path.insert(0, str(SRC))
    import emma_stream
    if Path(emma_stream.__file__).resolve().parent != package.resolve():
        raise SetupError(f"emma_stream imported from {emma_stream.__file__}, "
                         f"not from {package}")
    return emma_stream


@dataclass(frozen=True)
class Evaluate:
    """stream-long and sweep-short: score a generated copy corpus.

    With one threshold the call is ``evaluate_corpus``, with several it is
    ``threshold_sweep``. The model is ``toy_trained`` with a fixed training
    seed, so every run streams with the same policy and ``--seed`` draws
    only the corpus. ``check_workers`` above one makes set-up compare the
    report of that many workers with the warm-up's one-worker report.
    """

    name: str
    n_instances: int
    chunks: int
    thresholds: tuple[float, ...]
    workers: int
    check_workers: int = 1
    train_steps: int = 20
    chunk_ms: float = 40.0
    vocab: int = 100
    model_seed: int = 7

    rate_name = "instances_per_s"

    @property
    def entry(self) -> str:
        return "threshold_sweep" if len(self.thresholds) > 1 else "evaluate_corpus"

    @property
    def items_per_call(self) -> int:
        return self.n_instances * len(self.thresholds)

    @property
    def work_per_call(self) -> int:
        """Instance x threshold scorings."""
        return self.items_per_call

    def prepare(self, harness, workdir: Path, seed: int):
        corpus = harness.generate_corpus(self.n_instances, self.chunks,
                                         self.chunk_ms, self.vocab, seed)
        harness.write_corpus(corpus, workdir / "corpus.jsonl")
        manifest = {
            "instances": "corpus.jsonl",
            "model": {"kind": "toy_trained",
                      "parameters": {"steps": self.train_steps}},
            "runtime": {"threshold": self.thresholds[0]},
            "seed": self.model_seed,
        }
        if len(self.thresholds) > 1:
            manifest["sweep"] = list(self.thresholds)
        path = workdir / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return harness.Manifest.from_file(path)

    def invoke(self, fn, manifest):
        """One top-level call; returns the report rows and per-instance AL."""
        if len(self.thresholds) > 1:
            return fn(manifest, workers=self.workers).rows, ()
        result = fn(manifest, threshold=self.thresholds[0], workers=self.workers)
        return (result.to_row(),), tuple(r.al for r in result.latency.per_instance)

    def failed_items(self, result) -> int:
        rows, _ = result
        return sum(row.n_failures for row in rows)

    def check(self, result) -> list[str]:
        rows, per_instance_al = result
        duration = self.chunks * self.chunk_ms / 1000.0
        problems = []
        if [row.threshold for row in rows] != sorted(self.thresholds):
            problems.append(f"report thresholds {[r.threshold for r in rows]}")
        for row in rows:
            at = f"threshold {row.threshold}"
            if row.n_failures:
                problems.append(f"{at}: {row.n_failures} instance failures")
            if row.n_instances != self.n_instances:
                problems.append(f"{at}: {row.n_instances} instances scored "
                                f"of {self.n_instances}")
            if not abs(row.bleu - 100.0) <= BLEU_TOL:
                problems.append(f"{at}: BLEU {row.bleu!r} on a copy corpus")
        for al in [row.al for row in rows] + list(per_instance_al):
            if not 0.0 <= al <= duration:
                problems.append(f"AL {al!r} outside [0, {duration}]")
        als = [row.al for row in rows]
        if any(b < a for a, b in zip(als, als[1:])):
            problems.append(f"AL decreases as the threshold rises: {als}")
        return problems

    def setup_check(self, harness, manifest, result) -> list[str]:
        """Criterion 9: a parallel sweep report is byte-identical to the
        warm-up's report."""
        if self.check_workers == self.workers or len(self.thresholds) < 2:
            return []
        rows, _ = result
        texts = [harness.render_report(report, format="json") for report in
                 (harness.SweepReport(rows=tuple(rows)),
                  harness.threshold_sweep(manifest,
                                          workers=self.check_workers))]
        if texts[0] != texts[1]:
            return [f"sweep report with {self.check_workers} workers differs "
                    f"from the one with {self.workers}"]
        return []

    def outcomes(self, result) -> dict:
        rows, _ = result
        return {"metrics.bleu": float(np.mean([r.bleu for r in rows])),
                "metrics.al_s": float(np.mean([r.al for r in rows])),
                "metrics.end_offset_s": float(np.mean([r.end_offset for r in rows]))}


@dataclass(frozen=True)
class Train:
    """train-mid: the toy latency trade-off at |x| x |y| = 64 x 16."""

    name: str
    source_len: int
    target_len: int
    steps: int
    n_heads: int = 2
    lambdas: tuple[float, ...] = (0.0, 0.5)

    entry = "train_toy_policy"
    rate_name = "train_steps_per_s"

    @property
    def items_per_call(self) -> int:
        return len(self.lambdas)

    @property
    def work_per_call(self) -> int:
        """Objective-and-gradient steps."""
        return self.steps * len(self.lambdas)

    def prepare(self, harness, workdir: Path, seed: int):
        from emma_stream.emma import LossWeights
        return harness.ToyTrainConfig(
            source_len=self.source_len, target_len=self.target_len,
            n_heads=self.n_heads, steps=self.steps, seed=seed,
            weight_settings=tuple(LossWeights(lam, 0.0) for lam in self.lambdas))

    def invoke(self, fn, config):
        return fn(config)

    def failed_items(self, report) -> int:
        return 0

    def check(self, report) -> list[str]:
        problems = []
        for run in report.runs:
            bad = [e["step"] for e in run.log if not math.isfinite(e["loss"])]
            if bad:
                problems.append(f"lambda {run.weights.lambda_latency}: "
                                f"non-finite loss at steps {bad[:5]}")
        d0, d1 = report.finals("delay_mean")
        if not d1 < d0:
            problems.append(f"final delay {d1!r} at lambda {self.lambdas[1]} "
                            f"is not below {d0!r} at lambda {self.lambdas[0]}")
        return problems

    def setup_check(self, harness, config, result) -> list[str]:
        from emma_stream.emma import LossWeights
        from kernels import gradient_check
        return gradient_check(config.seed, self.source_len, self.target_len,
                              LossWeights(max(self.lambdas), 0.0))

    def outcomes(self, report) -> dict:
        d0, d1 = report.finals("delay_mean")
        return {"emma.delay_gap": d0 - d1}


WORKLOADS = {
    "stream-long": Evaluate("stream-long", 40, 200, (0.5,), workers=1),
    "sweep-short": Evaluate("sweep-short", 400, 8, (0.3, 0.5, 0.7, 0.9),
                            workers=1, check_workers=2),
    "train-mid": Train("train-mid", 64, 16, steps=20),
}
SMOKE = {
    "stream-long": Evaluate("stream-long", 3, 12, (0.5,), workers=1,
                            train_steps=3),
    "sweep-short": Evaluate("sweep-short", 12, 4, (0.3, 0.5, 0.7, 0.9),
                            workers=1, check_workers=2, train_steps=3),
    "train-mid": Train("train-mid", 12, 4, steps=3),
}


class Ledger:
    """Counts attempted and failed calls and items; keeps the problems."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.last = None

    def call(self, fn, state):
        """One checked top-level call; returns its duration in seconds."""
        self.attempted += 1 + self.workload.items_per_call
        t0 = perf_counter()
        try:
            result = self.workload.invoke(fn, state)
        except Exception:  # a failed call is counted, and the loop goes on
            self.failed += 1 + self.workload.items_per_call
            self.problems.append(traceback.format_exc(limit=3))
            return perf_counter() - t0
        elapsed = perf_counter() - t0
        self.last = result
        problems = self.workload.check(result)
        outcomes = self.workload.outcomes(result)
        if self.reference is None:
            self.reference = outcomes
        elif outcomes != self.reference:
            problems.append(f"outcomes {outcomes} differ from the first "
                            f"call's {self.reference}")
        self.failed += bool(problems) + self.workload.failed_items(result)
        self.problems += problems
        return elapsed


def closed_loop(ledger: Ledger, fn, state, seconds: float) -> list[float]:
    """Call back to back for ``seconds``, and at least MIN_CALLS times."""
    durations = []
    deadline = perf_counter() + seconds
    while len(durations) < MIN_CALLS or perf_counter() < deadline:
        durations.append(ledger.call(fn, state))
    return durations


def set_up(workload, harness, ledger, workdir: Path, seed: int, repeats: int):
    """Input generation plus the warm-up call, ``repeats`` times; returns
    the last state and the median set-up time."""
    fn = getattr(harness, workload.entry)
    times = []
    for k in range(repeats):
        target = workdir / f"setup-{k}"
        target.mkdir(parents=True)
        t0 = perf_counter()
        state = workload.prepare(harness, target, seed)
        ledger.call(fn, state)
        times.append(perf_counter() - t0)
    if ledger.last is not None:
        ledger.problems += workload.setup_check(harness, state, ledger.last)
    return state, float(np.median(times))


E2E = (("setup_s", "s"), ("throughput_per_s", "1/s"), ("peak_rss_mb", "MB"))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def traced_metrics(args, workload, ledger, fn, state) -> dict:
    """Half the time untraced, half traced, then the kernel probe."""
    import kernels
    import spans
    half = args.seconds / 2
    plain = closed_loop(ledger, fn, state, half)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        traced = closed_loop(ledger, tracer.wrap(f"harness.{workload.entry}", fn),
                             state, half)
    finally:
        tracer.restore()
    metrics = {name: 0.0 for name, _, _ in spans.PER_LAYER}
    metrics.update(spans.layer_metrics(tracer.spans, len(traced)))
    metrics.update(ledger.reference or {})
    probe, problems = kernels.kernel_probe(args.seed)
    ledger.problems += problems
    metrics.update(probe)
    metrics["trace.overhead_pct"] = 100.0 * (
        float(np.median(traced)) / float(np.median(plain)) - 1.0)
    tracer.write(WORK / f"spans-{args.workload}.jsonl.gz")
    return {name: (metrics[name], unit) for name, unit, _ in spans.PER_LAYER}


def run(args):
    """Set up, measure and check one workload; returns the ledger, the
    metrics as name -> (value, unit), and lines for a human reader."""
    import_package()
    from emma_stream import harness
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    ledger = Ledger(workload)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        repeats = 1 if args.trace or args.smoke else SETUP_REPEATS
        state, setup_s = set_up(workload, harness, ledger, workdir, args.seed,
                                repeats)
        fn = getattr(harness, workload.entry)
        lines = [f"workload {workload.name} seed {args.seed}, "
                 f"nproc {len(os.sched_getaffinity(0))}, "
                 f"python {platform.python_version()}, numpy {np.__version__}"]
        if args.trace:
            return ledger, traced_metrics(args, workload, ledger, fn, state), lines
        durations = closed_loop(ledger, fn, state, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Work over time rather than a median of per-call rates: the host's load
    # moves call times by up to 2x for tens of seconds, and the total over
    # the run held steadier across runs than the median of ~20 calls.
    rate = workload.work_per_call * len(durations) / sum(durations)
    values = (setup_s, rate, peak_rss_mb())
    metrics = {name: (v, unit) for (name, unit), v in zip(E2E, values)}
    lines.append(f"{workload.rate_name} {rate:.6g} 1/s over "
                 f"{len(durations)} calls of {workload.entry}")
    lines.append("call seconds " + " ".join(f"{d:.4f}" for d in durations))
    for name, value in (ledger.reference or {}).items():
        lines.append(f"{name.split('.', 1)[1]} {value:.6g}")
    return ledger, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        ledger, metrics, lines = run(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for problem in ledger.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not ledger.problems and ledger.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
