"""Tests of the benchmark itself: contract shape, smoke runs, and checks.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
The smoke runs use ``--smoke`` sizes and take a few seconds each.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_lists_what_the_runner_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(spans.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_smoke_trace_counts_runtime_work():
    proc = bench("--workload", "stream-long", "--seed", "3", "--seconds", "0.3",
                 "--trace", "1", "--smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    chunks = run.SMOKE["stream-long"].chunks
    # every read re-encodes the prefix: 1 + 2 + ... + n chunks over n reads
    assert metrics["runtime.encode_chunk_ratio"]["value"] == (chunks + 1) / 2
    assert metrics["runtime.reads"]["value"] == chunks
    assert metrics["harness.factory_builds"]["value"] == 1


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "train-mid", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_evaluate_check_flags_wrong_reports():
    run.import_package()
    from emma_stream.harness import SweepRow
    workload = run.SMOKE["sweep-short"]
    n = workload.n_instances

    def row(threshold, al, bleu=100.0, n_instances=n, n_failures=0):
        return SweepRow(threshold, bleu, al, al, al, 0.1, n_instances, n_failures)

    good = [row(t, t / 10) for t in workload.thresholds]
    assert workload.check((good, ())) == []
    for bad in ([row(0.3, 0.03, bleu=99.0)] + good[1:],
                [row(0.3, 0.03, n_failures=1)] + good[1:],
                [row(0.3, 0.03, n_instances=n - 1)] + good[1:],
                [row(0.3, 0.08)] + good[1:],  # AL falls as the threshold rises
                [row(0.3, 0.5)] + good[1:],
                [row(0.3, -0.1)] + good[1:],
                good[:-1]):
        assert workload.check((bad, ())) != []


def test_train_check_flags_missing_tradeoff_and_nonfinite_loss():
    run.import_package()
    from emma_stream.emma import LossWeights
    from emma_stream.harness import TrainingReport, TrainingRun
    workload = run.SMOKE["train-mid"]

    def report(d0, d1, loss=1.0):
        runs = tuple(TrainingRun(weights=LossWeights(lam, 0.0),
                                 log=[{"step": 0, "loss": loss, "delay_mean": d}])
                     for lam, d in zip(workload.lambdas, (d0, d1)))
        return TrainingReport(config=None, runs=runs)

    assert workload.check(report(3.0, 2.0)) == []
    assert workload.check(report(2.0, 3.0)) != []
    assert workload.check(report(3.0, 2.0, loss=float("nan"))) != []


def test_self_time_subtracts_the_union_of_children():
    # parent 0..10 with overlapping children 1..4 and 3..6 (threads) -> 5 s
    spans_ = [(1, None, "harness.threshold_sweep", 0.0, 10.0, None),
              (2, 1, "harness.load_instances", 1.0, 4.0, None),
              (3, 1, "harness.load_instances", 3.0, 6.0, None)]
    metrics = spans.layer_metrics(spans_, n_calls=1)
    assert metrics["harness.self_s"] == pytest.approx(5.0)
    assert metrics["harness.load_calls"] == 2
