"""Corpus ingestion, evaluation, sweeps, training, reports, and the CLI."""

import gc
import hashlib
import json
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from emma_stream.emma.alignment import stepwise_probability
from emma_stream.emma import emma_objective
from emma_stream.emma.params import EncDecStates, LossWeights, pack_parameters
from emma_stream.errors import CorpusError, TrainingDivergedError
from emma_stream.harness import (COLUMNS, Manifest, SweepReport, SweepRow,
                                 evaluate_corpus, generate_corpus,
                                 load_instances, model_factory,
                                 render_report, threshold_sweep,
                                 train_toy_policy, write_corpus)
from emma_stream.harness import evaluate, training
from emma_stream.harness.cli import main
from emma_stream.harness.models import ToyPolicyModel, _hash_rng, _sigmoid
from emma_stream.harness.training import ToyTrainConfig, train_single
from emma_stream.metrics import (average_lagging,
                                 length_adaptive_average_lagging)
from emma_stream.numerics.matrix import sigmoid
from emma_stream.runtime import (EOS_TOKEN, PrefixView, RuntimeConfig,
                                 SourceChunk, StreamInstance, run_stream,
                                 scripted_probability_model)
from emma_stream.runtime.models import CopyModel


class RawLine(str):
    """A JSONL line written as it is, not through ``json.dumps``."""


def write_jsonl(path, entries):
    path.write_text("".join((e if isinstance(e, RawLine) else json.dumps(e))
                            + "\n" for e in entries), encoding="utf-8")
    return path


def digit_limit_message(digits):
    """Python's own error text for an int literal of ``digits`` digits."""
    with pytest.raises(ValueError) as err:
        int("7" * digits)
    return str(err.value)


def copy_corpus_path(tmp_path, n=10, length=6, chunk_ms=1000.0, seed=3):
    return write_corpus(generate_corpus(n, length, chunk_ms, vocab=50, seed=seed),
                        tmp_path / "corpus.jsonl")


# -- instance loading ---------------------------------------------------------

def test_load_empty_file_gives_empty_list(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("", encoding="utf-8")
    assert load_instances(p) == []


def test_load_single_instance_converts_ms_to_seconds(tmp_path):
    p = write_jsonl(tmp_path / "one.jsonl", [
        {"id": "a", "source": [{"dur_ms": 320, "token": 5}], "reference": [5]}])
    insts = load_instances(p)
    assert len(insts) == 1
    assert insts[0].id == "a"
    assert insts[0].source_duration_s == pytest.approx(0.32)
    assert insts[0].reference == (5,)


def test_load_zero_duration_names_instance(tmp_path):
    p = write_jsonl(tmp_path / "bad.jsonl", [
        {"id": "broken", "source": [{"dur_ms": 0, "token": 1}], "reference": [1]}])
    with pytest.raises(CorpusError, match="broken"):
        load_instances(p)


def test_load_malformed_line_reports_line_number(tmp_path):
    p = tmp_path / "mixed.jsonl"
    good = json.dumps({"id": "a", "source": [{"dur_ms": 10, "token": 1}],
                       "reference": [1]})
    p.write_text(good + "\n{not json\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=":2:"):
        load_instances(p)


def test_load_line_that_is_not_utf8_reports_line_number(tmp_path):
    p = tmp_path / "bytes.jsonl"
    good = json.dumps({"id": "a", "source": [{"dur_ms": 10, "token": 1}],
                       "reference": [1]})
    p.write_bytes(good.encode() + b"\n\xff\n")
    with pytest.raises(CorpusError, match=":2: not valid UTF-8"):
        load_instances(p)


def test_load_duplicate_id_rejected(tmp_path):
    entry = {"id": "dup", "source": [{"dur_ms": 10, "token": 1}], "reference": [1]}
    p = write_jsonl(tmp_path / "dup.jsonl", [entry, entry])
    with pytest.raises(CorpusError, match="dup"):
        load_instances(p)


def test_load_empty_source_rejected(tmp_path):
    p = write_jsonl(tmp_path / "es.jsonl", [{"id": "x", "source": [],
                                             "reference": [1]}])
    with pytest.raises(CorpusError, match="empty source"):
        load_instances(p)


REGULAR = {"id": "a", "source": [{"dur_ms": 10, "token": 1},
                                 {"dur_ms": 2.5, "token": 2}],
           "reference": [1, 2]}


def with_entry(**entry):
    return dict(REGULAR, source=[REGULAR["source"][0], entry])


# The error text after "path:1: " for each irregular line, as the parser
# gave it before it tested regular fields inline.
BAD_LINES = {
    "bool-token": (with_entry(dur_ms=2.5, token=True),
                   "instance 'a' token must be a finite int, got True"),
    "float-token": (with_entry(dur_ms=2.5, token=3.0),
                    "instance 'a' token must be a finite int, got 3.0"),
    "bool-dur": (with_entry(dur_ms=True, token=2),
                 "instance 'a' dur_ms must be a finite float, got True"),
    "zero-dur": (with_entry(dur_ms=0, token=2),
                 "instance 'a' has non-positive dur_ms 0.0"),
    "negative-dur": (with_entry(dur_ms=-1, token=2),
                     "instance 'a' has non-positive dur_ms -1.0"),
    "infinite-dur": (with_entry(dur_ms=math.inf, token=2),
                     "instance 'a' dur_ms must be a finite float, got inf"),
    "nan-dur": (with_entry(dur_ms=math.nan, token=2),
                "instance 'a' dur_ms must be a finite float, got nan"),
    "underflowing-dur": (with_entry(dur_ms=5e-324, token=2),  # 0 s
                         "chunk duration must be positive, got 0.0"),
    "missing-dur": (with_entry(token=2), "'dur_ms'"),
    "missing-token": (with_entry(dur_ms=2.5), "'token'"),
    "missing-reference": ({"id": "a", "source": REGULAR["source"]},
                          "'reference'"),
    "dict-source": (dict(REGULAR, source={"dur_ms": 10, "token": 1}),
                    "string indices must be integers, not 'str'"),
    "string-source": (dict(REGULAR, source="ab"),
                      "string indices must be integers, not 'str'"),
    "list-entry": (dict(REGULAR, source=[[10, 1]]),
                   "list indices must be integers or slices, not str"),
    "bool-reference": (
        dict(REGULAR, reference=[1, False]),
        "instance 'a' reference token must be a finite int, got False"),
    "int-reference": (dict(REGULAR, reference=3),
                      "'int' object is not iterable"),
    "path-id": (dict(REGULAR, id="a/b"),
                "instance id 'a/b' is not a plain file name"),
    "int-id": (dict(REGULAR, id=7), "instance id must be a string, got 7"),
    "list-instance": ([REGULAR],
                      "list indices must be integers or slices, not str"),
    # an int too large for a float is rejected, not an OverflowError
    "huge-int-dur": (with_entry(dur_ms=10**400, token=2),
                     "instance 'a' dur_ms must be a finite float, "
                     "got an int of 401 digits"),
    "huge-int-token": (with_entry(dur_ms=2.5, token=-10**400),
                       "instance 'a' token must be a finite int, "
                       "got an int of 401 digits"),
    "huge-int-reference": (
        dict(REGULAR, reference=[1, 10**400]),
        "instance 'a' reference token must be a finite int, "
        "got an int of 401 digits"),
    # json.loads raises a plain ValueError past the int-string digit limit
    "over-long-int-literal": (
        RawLine('{"id": "a", "source": [{"dur_ms": 10, "token": %s}], '
                '"reference": [1]}' % ("7" * 5000)),
        f"not valid JSON ({digit_limit_message(5000)})"),
}


@pytest.mark.parametrize("raw,message", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_load_bad_line_messages_are_pinned(tmp_path, raw, message):
    p = write_jsonl(tmp_path / "one.jsonl", [raw])
    with pytest.raises(CorpusError) as err:
        load_instances(p)
    assert str(err.value) == f"{p}:1: {message}"


@pytest.mark.parametrize("raw,expected", [
    (with_entry(dur_ms=2.5, token=2, extra=1), ((0.01, 1), (0.0025, 2), (1, 2))),
    (dict(REGULAR, extra=1), ((0.01, 1), (0.0025, 2), (1, 2))),
    # ints beyond 64 bits take _number's path and load unchanged
    (dict(REGULAR, source=[{"dur_ms": 10, "token": 2**63}],
          reference=[-2**63 - 1, 2**63 - 1]),
     ((0.01, 2**63), (-2**63 - 1, 2**63 - 1))),
], ids=["extra-entry-key", "extra-instance-key", "beyond-int64"])
def test_load_regular_lines(tmp_path, raw, expected):
    [inst] = load_instances(write_jsonl(tmp_path / "one.jsonl", [raw]))
    *chunks, reference = expected
    assert inst == StreamInstance("a", tuple(SourceChunk(*c) for c in chunks),
                                  reference)
    assert all(type(c.duration_s) is float and type(c.payload) is int
               for c in inst.source_chunks)


def test_loaded_chunks_are_plain_frozen_source_chunks(tmp_path):
    corpus = write_corpus(generate_corpus(4, 6, 40.0, vocab=9, seed=5),
                          tmp_path / "corpus.jsonl")
    lines = load_instances(corpus) + load_instances(
        write_jsonl(tmp_path / "one.jsonl", [REGULAR]))
    chunks = [c for inst in lines for c in inst.source_chunks]
    assert len(chunks) == 4 * 6 + 2
    for c in chunks:
        made = SourceChunk(c.duration_s, c.payload)
        assert type(c) is SourceChunk
        assert c == made and hash(c) == hash(made) and repr(c) == repr(made)
        for name in ("duration_s", "payload"):
            with pytest.raises(AttributeError):
                setattr(c, name, 1)
        assert replace(c, payload=c.payload + 1) == SourceChunk(
            c.duration_s, c.payload + 1)
        with pytest.raises(ValueError, match="chunk duration must be positive"):
            replace(c, duration_s=0.0)


# -- manifest -----------------------------------------------------------------

def test_manifest_from_file_resolves_relative_instances(tmp_path):
    corpus = copy_corpus_path(tmp_path, n=2)
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({
        "instances": corpus.name,
        "model": {"kind": "scripted_stochastic", "parameters": {"heads": 3}},
        "runtime": {"threshold": 0.6, "min_unit_chunk": 2},
        "sweep": [0.4, 0.6],
        "seed": 9,
    }), encoding="utf-8")
    m = Manifest.from_file(mpath)
    assert m.instances == corpus
    assert m.model_kind == "scripted_stochastic"
    assert m.model_parameters == {"heads": 3}
    assert m.runtime.threshold == 0.6
    assert m.runtime.min_unit_chunk == 2
    assert m.sweep == (0.4, 0.6)
    assert m.seed == 9


def test_manifest_missing_instance_file_rejected(tmp_path):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"instances": "nope.jsonl"}), encoding="utf-8")
    with pytest.raises(ValueError, match="nope.jsonl"):
        Manifest.from_file(mpath)


def test_manifest_unknown_model_kind_rejected(tmp_path):
    corpus = copy_corpus_path(tmp_path, n=1)
    with pytest.raises(ValueError, match="unknown model kind"):
        Manifest(instances=corpus, model_kind="oracle")


def test_manifest_threshold_outside_unit_interval_rejected(tmp_path):
    corpus = copy_corpus_path(tmp_path, n=1)
    with pytest.raises(ValueError, match="sweep threshold"):
        Manifest(instances=corpus, sweep=(0.5, 1.0))


# -- corpus evaluation --------------------------------------------------------

def waitk_manifest(tmp_path, k=2, **kwargs):
    corpus = copy_corpus_path(tmp_path, **kwargs)
    return Manifest(instances=corpus, model_kind="scripted_waitk",
                    model_parameters={"k": k},
                    runtime=RuntimeConfig(threshold=0.5))


def test_wait2_copy_corpus_al_2_bleu_100(tmp_path):
    res = evaluate_corpus(waitk_manifest(tmp_path, k=2, n=10, length=6))
    assert res.latency.al == pytest.approx(2.0, abs=1e-9)
    assert res.quality.bleu == pytest.approx(100.0, abs=1e-6)
    assert res.n_instances == 10
    assert res.failures == ()


def test_offline_corpus_al_is_mean_duration(tmp_path):
    # wait-k with k >= longest source never writes before the drain
    entries = []
    for i, length in enumerate([3, 5, 8]):
        payloads = list(range(10, 10 + length))
        entries.append({"id": f"off-{i}",
                        "source": [{"dur_ms": 1000, "token": t} for t in payloads],
                        "reference": payloads})
    corpus = write_jsonl(tmp_path / "off.jsonl", entries)
    m = Manifest(instances=corpus, model_kind="scripted_waitk",
                 model_parameters={"k": 100})
    res = evaluate_corpus(m)
    assert res.latency.al == pytest.approx((3 + 5 + 8) / 3, abs=1e-9)
    assert res.quality.bleu == pytest.approx(100.0, abs=1e-6)


def test_per_instance_failures_recorded_not_fatal(tmp_path):
    entries = [{"id": f"ok-{i}",
                "source": [{"dur_ms": 1000, "token": 10 + i}],
                "reference": [10 + i]} for i in range(3)]
    # empty reference parses but cannot be scored (AL needs ref_len >= 1)
    entries.append({"id": "bad", "source": [{"dur_ms": 1000, "token": 9}],
                    "reference": []})
    corpus = write_jsonl(tmp_path / "mix.jsonl", entries)
    m = Manifest(instances=corpus, model_kind="scripted_waitk",
                 model_parameters={"k": 1})
    res = evaluate_corpus(m)
    assert res.n_instances == 3
    assert len(res.failures) == 1
    assert res.failures[0][0] == "bad"


def test_all_failed_corpus_raises(tmp_path):
    entries = [{"id": f"bad-{i}", "source": [{"dur_ms": 1000, "token": 1}],
                "reference": []} for i in range(3)]
    corpus = write_jsonl(tmp_path / "allbad.jsonl", entries)
    m = Manifest(instances=corpus, model_kind="scripted_waitk")
    with pytest.raises(CorpusError, match="all 3 instances failed"):
        evaluate_corpus(m)
    with pytest.raises(CorpusError, match="all 3 instances failed"):
        threshold_sweep(replace(m, sweep=(0.4, 0.7)))


def stochastic_manifest(tmp_path, **kwargs):
    corpus = copy_corpus_path(tmp_path, **kwargs)
    return Manifest(instances=corpus, model_kind="scripted_stochastic",
                    model_parameters={"heads": 2, "temperature": 1.0},
                    runtime=RuntimeConfig(threshold=0.5),
                    sweep=(0.4, 0.5, 0.6, 0.7), seed=11)


def test_worker_counts_1_and_8_bit_identical(tmp_path):
    m = stochastic_manifest(tmp_path, n=12)
    solo = evaluate_corpus(m, workers=1)
    pooled = evaluate_corpus(m, workers=8)
    assert solo == pooled
    assert render_report(solo) == render_report(pooled)


def test_repeated_runs_bit_identical(tmp_path):
    m = stochastic_manifest(tmp_path, n=8)
    assert render_report(evaluate_corpus(m)) == render_report(evaluate_corpus(m))


def test_toy_trained_model_evaluates(tmp_path):
    corpus = copy_corpus_path(tmp_path, n=4, length=5)
    m = Manifest(instances=corpus, model_kind="toy_trained",
                 model_parameters={"steps": 40, "lambda_latency": 0.2},
                 seed=5)
    res = evaluate_corpus(m)
    assert res.n_instances == 4
    assert res.quality.bleu == pytest.approx(100.0, abs=1e-6)


@pytest.mark.parametrize("ref_len", [3, 6, 9],
                         ids=["hyp-longer", "hyp-equal", "hyp-shorter"])
def test_scored_laal_is_the_metric_at_any_length(ref_len):
    # six outputs against three, six or nine references: LAAL reuses AL only
    # where max(ref_len, hyp_len) is ref_len, and always equals the metric
    rng = np.random.default_rng(ref_len)
    for k in range(20):
        durations = rng.uniform(0.01, 2.0, size=6).tolist()
        inst = StreamInstance(f"i{k}", tuple(SourceChunk(d, 1 + j) for j, d
                                             in enumerate(durations)),
                              tuple(range(1, ref_len + 1)))
        model = scripted_probability_model(
            lambda w, c, u=rng.uniform(size=(8, 8)): [u[w][c]])
        trace = run_stream(model, inst, RuntimeConfig(threshold=0.5))
        assert len(trace.delays) == 6
        scored = evaluate._score_trace(inst, trace)
        duration = inst.source_duration_s
        assert scored.latency.al == average_lagging(trace.delays, duration,
                                                    ref_len)
        assert scored.latency.laal == length_adaptive_average_lagging(
            trace.delays, duration, ref_len, len(trace.delays))


# -- threshold sweep ----------------------------------------------------------

def test_sweep_stochastic_al_non_decreasing(tmp_path):
    report = threshold_sweep(stochastic_manifest(tmp_path, n=12))
    als = [row.al for row in report.rows]
    assert [row.threshold for row in report.rows] == [0.4, 0.5, 0.6, 0.7]
    assert all(b >= a - 1e-12 for a, b in zip(als, als[1:]))


def counted_streams(monkeypatch):
    """Counts the calls through ``evaluate.run_stream``."""
    streams = []

    def counting(model, instance, config):
        streams.append((instance.id, config.threshold))
        return run_stream(model, instance, config)
    monkeypatch.setattr(evaluate, "run_stream", counting)
    return streams


def test_sweep_waitk_rows_identical(tmp_path, monkeypatch):
    m = waitk_manifest(tmp_path, k=2)
    m = Manifest(instances=m.instances, model_kind="scripted_waitk",
                 model_parameters={"k": 2}, sweep=(0.4, 0.5, 0.6, 0.7))
    streams = counted_streams(monkeypatch)
    report = threshold_sweep(m)
    stripped = {tuple(
        getattr(r, c) for c in COLUMNS if c != "threshold")
        for r in report.rows}
    assert len(stripped) == 1
    # wait-k heads answer exactly 0 or 1, so its traces hold on (0, 1]:
    # each instance is streamed once, at the lowest threshold
    assert sorted(streams) == [(inst.id, 0.4)
                               for inst in load_instances(m.instances)]


# threshold, bleu, al, laal, start_offset, end_offset, n_instances, n_failures
# of a 0.3/0.5/0.7 sweep over generate_corpus(12, 6, 250.0, vocab=50, seed=5)
# with manifest seed 11, at the default runtime and at max_target_len 5
PINNED_SWEEP_ROWS = {
    (256, "toy_trained"): [
        (0.3, 100.0, 1.430556, 1.430556, 1.4375, 0.115, 12, 0),
        (0.5, 100.0, 1.430556, 1.430556, 1.4375, 0.115, 12, 0),
        (0.7, 100.0, 1.5, 1.5, 1.5, 0.12, 12, 0)],
    (256, "scripted_stochastic"): [
        (0.3, 100.0, 0.429167, 0.429167, 0.395833, 0.041667, 12, 0),
        (0.5, 100.0, 0.980903, 0.980903, 0.8125, 0.091667, 12, 0),
        (0.7, 100.0, 1.333333, 1.333333, 1.291667, 0.11, 12, 0)],
    (256, "scripted_waitk"): [
        (0.3, 100.0, 0.5, 0.5, 0.5, 0.04, 12, 0),
        (0.5, 100.0, 0.5, 0.5, 0.5, 0.04, 12, 0),
        (0.7, 100.0, 0.5, 0.5, 0.5, 0.04, 12, 0)],
    (5, "toy_trained"): [
        (0.3, 81.873075, 1.430556, 1.430556, 1.4375, 0.095, 12, 0),
        (0.5, 81.873075, 1.430556, 1.430556, 1.4375, 0.095, 12, 0),
        (0.7, 81.873075, 1.5, 1.5, 1.5, 0.1, 12, 0)],
    (5, "scripted_stochastic"): [
        (0.3, 81.873075, 0.436111, 0.436111, 0.395833, -0.053333, 12, 0),
        (0.5, 81.873075, 0.980903, 0.980903, 0.8125, 0.071667, 12, 0),
        (0.7, 81.873075, 1.333333, 1.333333, 1.291667, 0.09, 12, 0)],
    (5, "scripted_waitk"): [
        (0.3, 81.873075, 0.5, 0.5, 0.5, 0.02, 12, 0),
        (0.5, 81.873075, 0.5, 0.5, 0.5, 0.02, 12, 0),
        (0.7, 81.873075, 0.5, 0.5, 0.5, 0.02, 12, 0)],
}


def test_sweep_report_bytes_are_pinned(tmp_path):
    corpus = write_corpus(generate_corpus(12, 6, 250.0, vocab=50, seed=5),
                          tmp_path / "corpus.jsonl")
    for (cap, kind), rows in PINNED_SWEEP_ROWS.items():
        m = Manifest(instances=corpus, model_kind=kind,
                     model_parameters={"steps": 20} if kind == "toy_trained"
                     else {},
                     runtime=RuntimeConfig(max_target_len=cap),
                     sweep=(0.3, 0.5, 0.7), seed=11)
        pinned = json.dumps({"rows": [dict(zip(COLUMNS, row)) for row in rows]},
                            indent=2) + "\n"
        assert render_report(threshold_sweep(m), format="json") == pinned


# sha256 over (relative path, bytes) of every trace file that `sweep
# --trace-dir` writes for a 0.3/0.5/0.7 sweep over
# generate_corpus(8, 6, 250.0, vocab=50, seed=5) with manifest seed 11
PINNED_TRACE_TREES = {
    "toy_trained":
        "a285c21b7bad97ba69af27eed9e199e9278e3c413981756465b3351842bf1873",
    "scripted_stochastic":
        "0ac111fa1f8bd1bdf831962bc24290d57b345ade418d6bc8db60a03aa6ada075",
}


@pytest.mark.parametrize("kind", sorted(PINNED_TRACE_TREES))
def test_sweep_trace_bytes_are_pinned(tmp_path, kind):
    corpus = write_corpus(generate_corpus(8, 6, 250.0, vocab=50, seed=5),
                          tmp_path / "corpus.jsonl")
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({
        "instances": corpus.name,
        "model": {"kind": kind, "parameters":
                  {"steps": 20} if kind == "toy_trained" else {}},
        "sweep": [0.3, 0.5, 0.7], "seed": 11}), encoding="utf-8")
    tdir = tmp_path / "traces"
    assert main(["sweep", "--manifest", str(mpath), "--trace-dir", str(tdir),
                 "--out", str(tmp_path / "s.csv")]) == 0
    paths = sorted(tdir.rglob("*.jsonl"))
    assert len(paths) == 3 * 8
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.relative_to(tdir).as_posix().encode() + b"\0"
                      + path.read_bytes())
    assert digest.hexdigest() == PINNED_TRACE_TREES[kind]


def test_sweep_needs_two_thresholds(tmp_path):
    corpus = copy_corpus_path(tmp_path, n=2)
    m = Manifest(instances=corpus, sweep=(0.5,))
    with pytest.raises(ValueError, match="two thresholds"):
        threshold_sweep(m)


# -- a sweep streams again only when a decision would change ------------------

SURFACE_THRESHOLDS = (0.3, 0.5, 0.7)


def instance_rng(seed, inst):
    return np.random.default_rng([seed, int(inst.id.rsplit("-", 1)[1])])


def with_quirks(model, inst):
    """Of every four instances, one fails (ValueError) when it writes
    before its third read and one writes token 0 there instead of a copy,
    so the failures and the hypotheses change with the threshold."""
    quirk = int(inst.id.rsplit("-", 1)[1]) % 4
    copy = model.next_token

    def next_token(states, prefix):
        if len(states) < 3 and quirk == 0:
            raise ValueError("wrote before the third read")
        if len(states) < 3 and quirk == 1:
            return 0
        return copy(states, prefix)
    model.next_token = next_token
    return model


def surface_factory(seed, n_heads):
    """Scripted-probability models over random surfaces: head probabilities
    drawn per (written, consumed) from the sweep thresholds themselves,
    NaN, 0, 1 and uniform values."""
    pool = SURFACE_THRESHOLDS + (math.nan, 0.0, 1.0)

    def build(inst):
        rng = instance_rng(seed, inst)
        n = len(inst.source_chunks)
        draws = rng.uniform(size=(n + 1, n + 1, n_heads))
        picks = rng.integers(0, 2 * len(pool), size=draws.shape)
        table = np.where(picks < len(pool),
                         np.take(pool, np.minimum(picks, len(pool) - 1)),
                         draws).tolist()
        return with_quirks(scripted_probability_model(
            lambda written, consumed: table[written][consumed]), inst)
    return build


class QueryCountModel(CopyModel):
    """History-dependent: its answer depends on how many policy queries it
    has served in this stream, not on (written, consumed)."""

    def __init__(self, answers):
        self.answers = answers
        self.served = 0

    def _probabilities(self, states, prefix):
        self.served += 1
        return [self.answers[(self.served - 1) % len(self.answers)]]


def history_factory(seed):
    pool = SURFACE_THRESHOLDS + (math.nan,)

    def build(inst):
        rng = instance_rng(seed, inst)
        return with_quirks(QueryCountModel(
            [pool[k] if k < len(pool) else rng.uniform()
             for k in rng.integers(0, 8, size=5)]), inst)
    return build


@pytest.mark.parametrize("model,seed,cap,l_unit,workers", [
    ("surface-1", 1, 256, 1, 1),
    ("surface-2", 2, 3, 1, 3),
    ("surface-3", 3, 256, 3, 1),
    ("surface-2", 4, 4, 2, 3),
    ("surface-3", 5, 2, 1, 3),
    ("history", 6, 256, 1, 1),
    ("history", 7, 4, 2, 3),
])
def test_sweep_rows_and_traces_equal_per_threshold_runs(tmp_path, monkeypatch,
                                                        model, seed, cap,
                                                        l_unit, workers):
    factory = (history_factory(seed) if model == "history"
               else surface_factory(seed, int(model[-1])))
    monkeypatch.setattr(evaluate, "model_factory", lambda *args: factory)
    corpus = copy_corpus_path(tmp_path, n=16, length=6, seed=seed)
    m = Manifest(instances=corpus, model_kind="scripted_waitk",
                 runtime=RuntimeConfig(max_target_len=cap,
                                       min_unit_chunk=l_unit),
                 sweep=SURFACE_THRESHOLDS)
    streams = counted_streams(monkeypatch)
    rows = threshold_sweep(m, workers=workers,
                           trace_dir=tmp_path / "sweep").rows
    # some outcomes were reused, and failures and BLEU vary by threshold
    assert len(streams) < len(SURFACE_THRESHOLDS) * 16
    assert len({(row.n_failures, row.bleu) for row in rows}) > 1
    for t, row in zip(SURFACE_THRESHOLDS, rows):
        one = tmp_path / f"eval-{t}"
        assert evaluate_corpus(m, threshold=t, workers=workers,
                               trace_dir=one).to_row() == row
        swept = tmp_path / "sweep" / f"threshold-{t:.6f}"
        names = sorted(p.name for p in one.iterdir())
        assert sorted(p.name for p in swept.iterdir()) == names
        for name in names:
            assert (swept / name).read_bytes() == (one / name).read_bytes()


# -- shared toy model and sweep reuse -----------------------------------------

def toy_manifest(tmp_path, n=6):
    corpus = copy_corpus_path(tmp_path, n=n, length=7, chunk_ms=40.0)
    return Manifest(instances=corpus, model_kind="toy_trained",
                    model_parameters={"steps": 20}, sweep=(0.3, 0.5, 0.7, 0.9),
                    seed=7)


class RecordingModel:
    """Proxy that notes every policy query and its answer."""

    def __init__(self, model):
        self.model = model
        self.queries = []

    def encode_prefix(self, chunks):
        return self.model.encode_prefix(chunks)

    def head_probabilities(self, states, prefix):
        ps = self.model.head_probabilities(states, prefix)
        self.queries.append((states, tuple(prefix), ps))
        return ps

    def next_token(self, states, prefix):
        return self.model.next_token(states, prefix)


def shared_toy_queries(manifest, threshold):
    """Every (states, prefix, probabilities) of a real run of each instance
    with one model built by the factory."""
    factory = model_factory(manifest.model_kind, manifest.model_parameters,
                            manifest.seed)
    instances = load_instances(manifest.instances)
    shared = factory(instances[0])
    assert all(factory(inst) is shared for inst in instances)
    runs = []
    for inst in instances:
        recorder = RecordingModel(shared)
        run_stream(recorder, inst, replace(manifest.runtime, threshold=threshold))
        runs.append(recorder.queries)
    return shared, runs


def test_shared_toy_model_matches_a_fresh_model_per_instance(tmp_path):
    manifest = toy_manifest(tmp_path)
    shared, runs = shared_toy_queries(manifest, 0.5)
    assert sum(len(queries) for queries in runs) > len(runs)
    for queries in runs:
        fresh = ToyPolicyModel(shared.heads, shared.d, shared.seed)
        for states, prefix, ps in queries:
            assert fresh.head_probabilities(states, prefix) == ps


def test_toy_model_probabilities_are_the_stepwise_formula(tmp_path):
    manifest = toy_manifest(tmp_path)
    shared, runs = shared_toy_queries(manifest, 0.7)
    checked = 0
    for queries in runs:
        for states, prefix, ps in queries:
            if len(prefix) >= len(states):
                continue  # nothing left to copy: every head answers 0
            last = (len(prefix), prefix[-1] if prefix else EOS_TOKEN)
            h = _hash_rng(shared.seed, "src", states[-1].payload).standard_normal(
                (1, shared.d))
            s = _hash_rng(shared.seed, "dec", *last).standard_normal((1, shared.d))
            rows = EncDecStates(h=h, s=s, v=np.zeros((1, 1)))
            expected = [stepwise_probability(head, rows).item()
                        for head in shared.heads]
            assert list(ps) == pytest.approx(expected, rel=0.0, abs=1e-12)
            # and bit for bit the per-head dot product of the cached rows
            assert ps == tuple(
                _sigmoid(((head.ffn_s.apply(s) @ head.ffn_h.apply(h).T).item()
                          + head.bias) / head.temperature)
                for head in shared.heads)
            checked += 1
    assert checked > 0


def test_toy_model_computes_each_state_once_per_call(tmp_path, monkeypatch):
    corpus = write_corpus(generate_corpus(40, 200, 40.0, vocab=50, seed=7),
                          tmp_path / "long.jsonl")
    manifest = Manifest(instances=corpus, model_kind="toy_trained",
                        model_parameters={"steps": 20}, seed=7)
    compute = ToyPolicyModel._probabilities
    computed = []

    def counted(self, states, prefix):
        computed.append((len(prefix), prefix[-1] if prefix else EOS_TOKEN,
                         states[-1].payload))
        return compute(self, states, prefix)

    build = evaluate.model_factory
    recorders = []

    def recording_factory(*args):
        factory = build(*args)

        def model(inst):
            recorders.append(RecordingModel(factory(inst)))
            return recorders[-1]
        return model

    monkeypatch.setattr(ToyPolicyModel, "_probabilities", counted)
    monkeypatch.setattr(evaluate, "model_factory", recording_factory)
    evaluate_corpus(manifest)
    shared = recorders[0].model
    queries = [q for recorder in recorders for q in recorder.queries]
    asked = {(len(prefix), prefix[-1] if prefix else EOS_TOKEN,
              states[-1].payload)
             for states, prefix, _ in queries if len(prefix) < len(states)}
    # one computation per distinct state, and the corpus repeats states
    assert sorted(computed) == sorted(asked)
    assert len(queries) > len(asked)
    fresh = ToyPolicyModel(shared.heads, shared.d, shared.seed)
    for states, prefix, ps in queries:
        assert ps == (compute(fresh, states, prefix)
                      if len(prefix) < len(states) else (0.0,) * fresh.n_heads)
    # the memo lives on the model, and the call keeps no model alive
    assert shared._memo
    alive = weakref.ref(shared)
    del shared, recorders[:], queries
    gc.collect()
    assert alive() is None


def test_toy_model_answer_is_its_memo_tuple(tmp_path):
    # the answer is immutable, so the memo hands out its own tuple
    shared, runs = shared_toy_queries(toy_manifest(tmp_path), 0.5)
    states, prefix, ps = next(q for q in runs[0] if len(q[1]) < len(q[0]))
    answer = shared.head_probabilities(states, prefix)
    assert type(answer) is tuple and answer is ps
    assert shared.head_probabilities(states, prefix) is answer
    fresh = ToyPolicyModel(shared.heads, shared.d, shared.seed)
    assert fresh.head_probabilities(states, prefix) == answer


@pytest.mark.parametrize("written,consumed,pinned", [
    (0, 1, [0.1613302683777454, 0.9754568552738209]),
    (1, 3, [0.42632934252534366, 0.7173735286221571]),
    (2, 5, [0.11042930190804598, 0.17042870532774773]),
])
def test_scripted_stochastic_probabilities_are_pinned(written, consumed, pinned):
    # head h answers sigmoid(g / temperature), g drawn from a generator seeded
    # by (seed, instance id, h, written, consumed); the values are fixed
    inst = StreamInstance("inst-0000",
                          tuple(SourceChunk(0.1, 5 + j) for j in range(6)), (1,))
    model = model_factory("scripted_stochastic",
                          {"heads": 2, "temperature": 0.7}, 11)(inst)
    states = model.encode_prefix(inst.source_chunks[:consumed])
    ps = model.head_probabilities(states, [7] * written)
    assert ps == tuple(pinned)
    g = [_hash_rng(11, "inst-0000", h, written, consumed).standard_normal()
         for h in range(2)]
    assert ps == tuple(sigmoid(np.array([g]) / 0.7)[0].tolist())


class EncodeRecorder:
    """Forwards to a model; keeps the view and the states of every encode
    and the chunks of the states at the time of the call."""

    def __init__(self, model):
        self.model = model
        self.encodes = []

    def encode_prefix(self, chunks):
        states = self.model.encode_prefix(chunks)
        self.encodes.append((chunks, states, tuple(states)))
        return states

    def head_probabilities(self, states, prefix):
        return self.model.head_probabilities(states, prefix)

    def next_token(self, states, prefix):
        return self.model.next_token(states, prefix)


BUILT_IN_MODELS = pytest.mark.parametrize("kind,parameters", [
    ("scripted_waitk", {"k": 3}),
    ("scripted_stochastic", {}),
    ("toy_trained", {"steps": 5}),
    ("scripted_probability", None),
])


def payload_instance():
    payloads = tuple(int(v) for v in np.random.default_rng(4).integers(1, 50, 12))
    return StreamInstance("p", tuple(SourceChunk(0.1, v) for v in payloads),
                          payloads)


def built_in_model(kind, parameters, inst):
    if parameters is None:
        return scripted_probability_model(lambda w, c: [0.3 + 0.4 * (c % 2)])
    return model_factory(kind, parameters, 7)(inst)


@BUILT_IN_MODELS
def test_models_see_the_payloads_of_the_read_prefix(kind, parameters):
    # after j reads a built-in model's states are the view of the first j
    # chunks it was handed, whose payloads are the first j payloads, and
    # they stay so while later reads extend the prefix
    inst = payload_instance()
    payloads = inst.reference
    model = built_in_model(kind, parameters, inst)
    recording = EncodeRecorder(model)
    run_stream(recording, inst, RuntimeConfig())
    assert [len(view) for view, _, _ in recording.encodes] == list(range(1, 13))
    for j, (view, states, at_call) in enumerate(recording.encodes, 1):
        assert states is view
        assert at_call == tuple(states) == inst.source_chunks[:j]
        assert states == inst.source_chunks[:j] and len(states) == j
        assert tuple(c.payload for c in states) == payloads[:j]
        assert states[-1].payload == payloads[j - 1]
        assert states[:2] == inst.source_chunks[:j][:2]


@BUILT_IN_MODELS
def test_models_answer_a_plain_tuple_like_its_view(kind, parameters):
    # a model handed a plain tuple of chunks wraps it once and answers as
    # a model handed the view of the same prefix; a view is kept as it is
    inst = payload_instance()
    chunks = inst.source_chunks
    by_tuple, by_view = (built_in_model(kind, parameters, inst) for _ in "ab")
    for consumed in range(1, len(chunks) + 1):
        view = PrefixView(chunks, consumed)
        assert by_view.encode_prefix(view) is view
        from_tuple = by_tuple.encode_prefix(chunks[:consumed])
        assert from_tuple == view and len(from_tuple) == consumed
        for written in range(consumed + 2):
            prefix = list(inst.reference[:written])
            for ask in ("head_probabilities", "next_token"):
                assert (getattr(by_tuple, ask)(from_tuple, prefix)
                        == getattr(by_view, ask)(view, prefix))


def test_sweep_loads_and_builds_the_model_once(tmp_path, monkeypatch):
    manifest = toy_manifest(tmp_path)
    calls = {"load_instances": 0, "model_factory": 0}

    def counted(name):
        original = getattr(evaluate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(evaluate, name, wrapper)

    counted("load_instances")
    counted("model_factory")
    rows = threshold_sweep(manifest).rows
    assert calls == {"load_instances": 1, "model_factory": 1}
    monkeypatch.undo()
    assert rows == tuple(evaluate_corpus(manifest, threshold=t).to_row()
                         for t in sorted(manifest.sweep))


def test_toy_trained_reports_identical_with_1_and_2_workers(tmp_path):
    manifest = toy_manifest(tmp_path, n=8)
    for run in (evaluate_corpus, threshold_sweep):
        texts = {render_report(run(manifest, workers=w), format="json")
                 for w in (1, 2)}
        assert len(texts) == 1


# -- toy training -------------------------------------------------------------

def test_training_needs_two_weight_settings():
    with pytest.raises(ValueError, match="two loss-weight settings"):
        train_toy_policy(ToyTrainConfig(weight_settings=(LossWeights(0, 0),)))


def test_pure_nll_descent_decreases_loss():
    run = train_single(ToyTrainConfig(steps=150, seed=0), LossWeights(0.0, 0.0))
    assert run.final["loss"] < run.log[0]["loss"]
    assert run.final["loss"] == run.final["nll"]


def test_latency_weight_lowers_final_delay():
    cfg = ToyTrainConfig(steps=150, seed=0,
                         weight_settings=(LossWeights(0.0, 0.0),
                                          LossWeights(0.5, 0.0)))
    report = train_toy_policy(cfg)
    free, constrained = report.finals("delay_mean")
    assert constrained < free


@pytest.mark.parametrize("seed,losses,delays", [
    (7, (3.342818154723469, 5.306178309324046),
     (16.105797668473677, 1.742748855202813)),
    # the latency weight does not lower the delay at this seed
    (311, (19.824668088774317, -0.024375854766827132),
     (2.472170672852706, 4.779825753043777)),
])
def test_training_bits_are_pinned_at_bench_size(seed, losses, delays):
    # the benchmark's train-mid call; a change that moves any training bit
    # can turn a seed's trade-off check from pass to fail, so it must
    # re-record these values on purpose
    cfg = ToyTrainConfig(source_len=64, target_len=16, n_heads=2, steps=20,
                         seed=seed,
                         weight_settings=(LossWeights(0.0, 0.0),
                                          LossWeights(0.5, 0.0)))
    report = train_toy_policy(cfg)
    assert tuple(report.finals("loss")) == losses
    assert tuple(report.finals("delay_mean")) == delays


def test_variance_weight_lowers_final_variance():
    cfg = ToyTrainConfig(steps=150, seed=1,
                         weight_settings=(LossWeights(0.0, 0.0),
                                          LossWeights(0.0, 0.5)))
    report = train_toy_policy(cfg)
    free, constrained = report.finals("variance")
    assert constrained < free


def test_divergence_aborts_with_step_number():
    cfg = ToyTrainConfig(steps=60, learning_rate=1000.0, seed=0)
    with pytest.raises(TrainingDivergedError) as exc:
        train_single(cfg, LossWeights(0.0, 0.0))
    assert exc.value.step >= 0
    assert "step" in str(exc.value)


@pytest.mark.parametrize("pairs", [
    ((0.0, 0.0), (0.5, 0.0)),
    ((0.0, 0.0), (0.2, 0.3), (0.0, 0.7)),
    ((0.4, 0.0), (0.0, 0.0), (0.1, 0.5)),
])
def test_lockstep_runs_equal_single_descents(pairs):
    cfg = ToyTrainConfig(steps=30, seed=3,
                         weight_settings=tuple(LossWeights(*w) for w in pairs))
    report = train_toy_policy(cfg)
    assert len(report.runs) == len(pairs)
    for run, weights in zip(report.runs, cfg.weight_settings):
        single = train_single(cfg, weights)
        assert run.weights == weights
        assert len(run.log) == cfg.steps + 1
        assert run.log == single.log
        assert np.array_equal(pack_parameters(run.heads, run.readout),
                              pack_parameters(single.heads, single.readout))


def sequential_divergence(cfg):
    """(step, loss) of the error a one-setting-at-a-time loop raises."""
    for weights in cfg.weight_settings:
        try:
            train_single(cfg, weights)
        except TrainingDivergedError as exc:
            return exc.step, exc.loss
    return None


@pytest.mark.parametrize("seed,lr,pairs,diverging", [
    (1, 5.0, ((0.0, 0.0), (2.0, 0.0)), [1]),        # only setting 1
    (0, 5.0, ((0.0, 0.0), (2.0, 0.0)), [0]),        # only setting 0
    (1, 5.0, ((0.0, 2.0), (2.0, 0.0)), [0, 1]),     # setting 1 first
])
def test_lockstep_divergence_matches_sequential_loop(seed, lr, pairs, diverging):
    cfg = ToyTrainConfig(steps=60, learning_rate=lr, seed=seed,
                         weight_settings=tuple(LossWeights(*w) for w in pairs))
    for r, weights in enumerate(cfg.weight_settings):
        if r in diverging:
            with pytest.raises(TrainingDivergedError):
                train_single(cfg, weights)
        else:
            train_single(cfg, weights)
    with pytest.raises(TrainingDivergedError) as exc:
        train_toy_policy(cfg)
    assert (exc.value.step, exc.value.loss) == sequential_divergence(cfg)


@pytest.mark.parametrize("lr", [100.0, 1e300])
def test_final_evaluation_divergence_matches_sequential_loop(lr):
    # one step moves theta out of the objective's domain, so only the final
    # evaluation sees it; an overflow on the way must not warn
    cfg = ToyTrainConfig(steps=1, learning_rate=lr, seed=0)
    with pytest.raises(TrainingDivergedError) as exc:
        train_toy_policy(cfg)
    assert exc.value.step == cfg.steps
    assert (exc.value.step, exc.value.loss) == sequential_divergence(cfg)


def test_non_finite_final_loss_is_divergence(monkeypatch):
    def nan_at_final_evaluation(*args, **kwargs):
        results = emma_objective(*args, **kwargs)
        if kwargs["with_gradient"]:
            return results
        return tuple(replace(res, loss=math.nan) for res in results)

    monkeypatch.setattr(training, "emma_objective", nan_at_final_evaluation)
    with pytest.raises(TrainingDivergedError) as exc:
        train_toy_policy(ToyTrainConfig(steps=3, seed=0))
    assert exc.value.step == 3 and math.isnan(exc.value.loss)


def test_lockstep_calls_objective_once_per_step(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("with_gradient", True))
        return emma_objective(*args, **kwargs)

    monkeypatch.setattr(training, "emma_objective", counting)
    cfg = ToyTrainConfig(steps=7, seed=2, weight_settings=(
        LossWeights(0.0, 0.0), LossWeights(0.5, 0.0), LossWeights(0.0, 0.5)))
    train_toy_policy(cfg)
    assert calls == [True] * cfg.steps + [False]


def test_training_runs_share_initial_loss():
    cfg = ToyTrainConfig(steps=5, seed=4,
                         weight_settings=(LossWeights(0.0, 0.0),
                                          LossWeights(0.0, 0.0)))
    a, b = train_toy_policy(cfg).runs
    assert a.log[0]["nll"] == b.log[0]["nll"]
    assert a.log[0]["delay_mean"] == b.log[0]["delay_mean"]


# -- report emission ----------------------------------------------------------

ROW = SweepRow(threshold=0.5, bleu=87.3219874, al=1.23456789, laal=1.5,
               start_offset=0.25, end_offset=-0.125, n_instances=10,
               n_failures=2)


def test_csv_header_matches_contract():
    text = render_report(SweepReport(rows=()))
    assert text == "threshold,bleu,al,laal,start_offset,end_offset,n_instances,n_failures\n"


def test_one_row_csv_round_trips():
    text = render_report(SweepReport(rows=(ROW,)))
    lines = text.strip().split("\n")
    assert len(lines) == 2
    values = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert values["threshold"] == "0.500000"
    assert values["bleu"] == "87.321987"
    assert values["n_instances"] == "10"
    assert values["n_failures"] == "2"


def test_json_and_csv_contain_identical_values():
    csv_text = render_report(SweepReport(rows=(ROW,)), format="csv")
    json_text = render_report(SweepReport(rows=(ROW,)), format="json")
    header, data = csv_text.strip().split("\n")
    from_csv = {}
    for col, cell in zip(header.split(","), data.split(",")):
        from_csv[col] = int(cell) if col.startswith("n_") else float(cell)
    from_json = json.loads(json_text)["rows"][0]
    assert from_csv == from_json


def test_emit_report_writes_file(tmp_path):
    from emma_stream.harness import emit_report
    out = tmp_path / "report.csv"
    text = emit_report(SweepReport(rows=(ROW,)), path=out)
    assert out.read_text(encoding="utf-8") == text


def test_cli_report_path_error_is_one_line(tmp_path, capsys):
    # the path is quoted, so a line break in it stays inside the one line
    mpath = cli_manifest(tmp_path)
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / "file" / "no\nsuch" / "r.csv"
    assert main(["evaluate", "--manifest", str(mpath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report to ")
    assert err.count("\n") == 1 and repr(str(out)) in err


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="format"):
        render_report(SweepReport(rows=()), format="yaml")


# -- command line -------------------------------------------------------------

def cli_manifest(tmp_path, kind="scripted_stochastic", sweep=(0.4, 0.5, 0.6, 0.7)):
    corpus = copy_corpus_path(tmp_path, n=6)
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({
        "instances": corpus.name,
        "model": {"kind": kind,
                  "parameters": {"k": 2} if kind == "scripted_waitk"
                  else {"heads": 2, "temperature": 1.0}},
        "runtime": {"threshold": 0.5},
        "sweep": list(sweep),
        "seed": 11,
    }), encoding="utf-8")
    return mpath


def test_cli_gen_writes_corpus(tmp_path):
    out = tmp_path / "c.jsonl"
    assert main(["gen", "--out", str(out), "--n", "4", "--length", "3",
                 "--chunk-ms", "500"]) == 0
    insts = load_instances(out)
    assert len(insts) == 4
    assert insts[0].source_duration_s == pytest.approx(1.5)


def test_cli_evaluate_writes_csv(tmp_path):
    mpath = cli_manifest(tmp_path, kind="scripted_waitk")
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--manifest", str(mpath), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(COLUMNS)
    cells = dict(zip(COLUMNS, lines[1].split(",")))
    assert cells["al"] == "2.000000"
    assert cells["bleu"] == "100.000000"


def test_cli_sweep_json_rows_sorted(tmp_path):
    mpath = cli_manifest(tmp_path)
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--manifest", str(mpath), "--format", "json",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [r["threshold"] for r in rows] == [0.4, 0.5, 0.6, 0.7]


def test_cli_trace_dir_writes_event_logs(tmp_path):
    mpath = cli_manifest(tmp_path, kind="scripted_waitk")
    tdir = tmp_path / "traces"
    assert main(["evaluate", "--manifest", str(mpath),
                 "--trace-dir", str(tdir), "--out",
                 str(tmp_path / "r.csv")]) == 0
    logs = sorted(tdir.glob("*.jsonl"))
    assert len(logs) == 6
    first = logs[0].read_text(encoding="utf-8").strip().split("\n")
    assert json.loads(first[0])["kind"] in ("READ", "WRITE")
    assert json.loads(first[-1])["kind"] == "SUMMARY"


def test_cli_l_unit_override_batches_emissions(tmp_path):
    mpath = cli_manifest(tmp_path, kind="scripted_waitk")
    lo = tmp_path / "lo.csv"
    hi = tmp_path / "hi.csv"
    assert main(["evaluate", "--manifest", str(mpath), "--out", str(lo)]) == 0
    assert main(["evaluate", "--manifest", str(mpath), "--l-unit", "6",
                 "--out", str(hi)]) == 0
    start = COLUMNS.index("start_offset")
    lo_start = float(lo.read_text().strip().split("\n")[1].split(",")[start])
    hi_start = float(hi.read_text().strip().split("\n")[1].split(",")[start])
    assert hi_start > lo_start  # six-unit batches delay the first emission


def test_cli_threshold_override(tmp_path):
    mpath = cli_manifest(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["evaluate", "--manifest", str(mpath), "--threshold", "0.4",
                 "--out", str(a)]) == 0
    assert main(["evaluate", "--manifest", str(mpath), "--threshold", "0.7",
                 "--out", str(b)]) == 0
    al = COLUMNS.index("al")
    al_a = float(a.read_text().strip().split("\n")[1].split(",")[al])
    al_b = float(b.read_text().strip().split("\n")[1].split(",")[al])
    assert al_b >= al_a


def test_cli_train_toy_summary(tmp_path, capsys):
    assert main(["train-toy", "--steps", "80", "--lambda-latency", "0,0.5",
                 "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    rows = [json.loads(line) for line in lines]
    assert [r["lambda_latency"] for r in rows] == [0.0, 0.5]
    assert rows[1]["final_delay"] < rows[0]["final_delay"]
    assert all(math.isfinite(r["final_loss"]) for r in rows)


def test_cli_missing_manifest_exits_2(tmp_path, capsys):
    assert main(["evaluate", "--manifest", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind,message", [
    ("directory", "cannot read manifest"),
    ("no-permission", "cannot read manifest"),
    ("not-utf8", "is not valid JSON")])
def test_cli_unreadable_manifest_exits_2_with_one_line(tmp_path, capsys,
                                                       monkeypatch, kind,
                                                       message):
    mpath = tmp_path / "m.json"
    if kind == "directory":
        mpath.mkdir()
    elif kind == "no-permission":
        # a mode bit cannot deny a privileged user, so the read is refused
        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))
        mpath.write_text("{}", encoding="utf-8")
        monkeypatch.setattr(type(mpath), "read_text", refuse)
    else:
        mpath.write_bytes(b'{"instances": "\xff"}')
    assert main(["evaluate", "--manifest", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and repr(str(mpath)) in err


def test_cli_single_threshold_sweep_exits_2(tmp_path, capsys):
    mpath = cli_manifest(tmp_path, sweep=(0.5,))
    assert main(["sweep", "--manifest", str(mpath)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("sweep,override", [
    ((0.5, 0.7, 0.5), None),
    ((0.4, 0.7), "0.4,0.4000001"),
])
def test_cli_sweep_thresholds_equal_to_six_decimals_exit_2(tmp_path, capsys,
                                                           sweep, override):
    # both would write one threshold-<t:.6f> trace directory and report row
    mpath = cli_manifest(tmp_path, sweep=sweep)
    argv = ["sweep", "--manifest", str(mpath), "--trace-dir", str(tmp_path / "tr")]
    if override is not None:
        argv += ["--sweep", override]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    first, second = (0.5, 0.5) if override is None else (0.4, 0.4000001)
    assert f"{first} and {second}" in err
    assert not (tmp_path / "tr").exists()


def test_cli_unparseable_args_exit_2(capsys):
    assert main(["evaluate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,message", [
    (["evaluate", "--manifest", "m.json", "--workers", "abc"],
     "argument --workers: invalid int value: 'abc'"),
    (["evaluate"], "the following arguments are required: --manifest"),
    (["sweep", "--manifest", "m.json", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    (["train-toy", "--lambda-latency", "-1,0"],
     "argument --lambda-latency: expected one argument"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
])
def test_cli_usage_error_is_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_help_still_prints_usage(capsys):
    assert main(["evaluate", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: emma-stream evaluate")


def test_cli_all_failed_corpus_exits_1(tmp_path, capsys):
    entries = [{"id": "bad", "source": [{"dur_ms": 1000, "token": 1}],
                "reference": []}]
    corpus = write_jsonl(tmp_path / "allbad.jsonl", entries)
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"instances": corpus.name}), encoding="utf-8")
    assert main(["evaluate", "--manifest", str(mpath)]) == 1
    assert "failed" in capsys.readouterr().err


def test_cli_corrupt_corpus_exits_1(tmp_path, capsys):
    corpus = tmp_path / "corrupt.jsonl"
    corpus.write_text("{oops\n", encoding="utf-8")
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"instances": corpus.name}), encoding="utf-8")
    assert main(["evaluate", "--manifest", str(mpath)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("field,value", [
    ("runtime", {"bogus": 1}),
    ("model", [1]),
    ("runtime", {"threshold": "0.5"}),
    ("sweep", [0.4, [0.6]]),
    ("seed", None),
    ("instances", ""),
    ("instances", "."),
    ("seed", -1),
    pytest.param("seed", 10**400, id="seed-huge-int"),
])
def test_cli_malformed_manifest_exits_2_with_one_line(tmp_path, capsys,
                                                      field, value):
    mpath = cli_manifest(tmp_path)
    manifest = json.loads(mpath.read_text(encoding="utf-8"))
    manifest[field] = value
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    command = "sweep" if field == "sweep" else "evaluate"
    assert main([command, "--manifest", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize("dur_ms", [
    "1e400", "true", pytest.param("1" + "0" * 400, id="huge-int"),
    pytest.param("7" * 5000, id="over-long-int-literal")])
def test_cli_bad_duration_exits_1_without_report(tmp_path, capsys, dur_ms):
    good = '{"id": "a", "source": [{"dur_ms": 10, "token": 1}], "reference": [1]}'
    bad = ('{"id": "b", "source": [{"dur_ms": %s, "token": 1}], '
           '"reference": [1]}' % dur_ms)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"instances": corpus.name}), encoding="utf-8")
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--manifest", str(mpath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert ":2:" in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_runs_byte_identical(tmp_path):
    mpath = cli_manifest(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["sweep", "--manifest", str(mpath), "--format", "json",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def manifest_with_model(tmp_path, kind, parameters_text):
    corpus = copy_corpus_path(tmp_path, n=3)
    mpath = tmp_path / "m.json"
    mpath.write_text('{"instances": "%s", "model": {"kind": "%s", '
                     '"parameters": %s}}' % (corpus.name, kind, parameters_text),
                     encoding="utf-8")
    return mpath


@pytest.mark.parametrize("kind,parameters_text", [
    ("toy_trained", '{"steps": null}'),
    ("toy_trained", '{"steps": 1e400}'),
    ("toy_trained", '{"d": 0}'),
    ("toy_trained", '{"bogus": 1}'),
    ("scripted_waitk", '{"vocab_map": [1, 2]}'),
    ("scripted_waitk", '{"vocab_map": {"x": 2}}'),
    ("scripted_waitk", '{"k": -1}'),
    ("scripted_stochastic", '{"temperature": 0}'),
])
def test_cli_bad_model_parameters_exit_2_with_one_line(tmp_path, capsys, kind,
                                                       parameters_text):
    mpath = manifest_with_model(tmp_path, kind, parameters_text)
    assert main(["evaluate", "--manifest", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_model_factory_checks_parameters_like_the_manifest():
    with pytest.raises(ValueError, match="unknown toy_trained parameter 'bogus'"):
        model_factory("toy_trained", {"bogus": 1}, 0)
    with pytest.raises(ValueError, match="k must be at least 0"):
        model_factory("scripted_waitk", {"k": -1}, 0)


def test_cli_vocab_map_missing_payload_fails_instances(tmp_path, capsys):
    mpath = manifest_with_model(tmp_path, "scripted_waitk", '{"vocab_map": {"1": 2}}')
    assert main(["evaluate", "--manifest", str(mpath)]) == 1
    err = capsys.readouterr().err
    assert "missing from vocab_map" in err and err.count("\n") == 1


@pytest.mark.parametrize("chunk_ms", ["nan", "inf"])
def test_cli_gen_non_finite_chunk_ms_exits_2(tmp_path, capsys, chunk_ms):
    out = tmp_path / "c.jsonl"
    assert main(["gen", "--out", str(out), "--chunk-ms", chunk_ms]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--learning-rate", "--lambda-latency",
                                  "--lambda-variance"])
def test_cli_train_toy_nan_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "summary.jsonl"
    assert main(["train-toy", "--steps", "5", flag, "nan",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command,lr", [("train-toy", "100"),
                                        ("train-toy", "1e300"),
                                        ("evaluate", "100")])
def test_cli_final_evaluation_divergence_exits_1_with_one_line(tmp_path, capsys,
                                                               command, lr):
    out = tmp_path / "out.txt"
    if command == "train-toy":
        argv = ["train-toy", "--learning-rate", lr, "--steps", "1"]
    else:
        corpus = copy_corpus_path(tmp_path, n=2)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({
            "instances": corpus.name,
            "model": {"kind": "toy_trained", "parameters": {
                "learning_rate": float(lr), "steps": 1}}}), encoding="utf-8")
        argv = ["evaluate", "--manifest", str(mpath)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss") and err.count("\n") == 1
    assert not out.exists()


def test_cli_sweep_trace_dir_keeps_every_threshold(tmp_path):
    mpath = cli_manifest(tmp_path, sweep=(0.4, 0.7))
    tdir = tmp_path / "sweep-traces"
    assert main(["sweep", "--manifest", str(mpath), "--trace-dir", str(tdir),
                 "--out", str(tmp_path / "s.csv")]) == 0
    for t in ("0.4", "0.7"):
        edir = tmp_path / f"eval-{t}"
        assert main(["evaluate", "--manifest", str(mpath), "--threshold", t,
                     "--trace-dir", str(edir),
                     "--out", str(tmp_path / "e.csv")]) == 0
        swept = tdir / f"threshold-{float(t):.6f}"
        names = sorted(p.name for p in edir.glob("*.jsonl"))
        assert len(names) == 6
        assert sorted(p.name for p in swept.glob("*.jsonl")) == names
        for name in names:
            assert (swept / name).read_bytes() == (edir / name).read_bytes()


@pytest.mark.parametrize("iid", ["", ".", "..", "../escaped", "a/b", "a\\b",
                                 "a\x00b", "a\ud800"])
def test_load_rejects_id_that_is_not_a_file_name(tmp_path, iid):
    good = {"id": "ok", "source": [{"dur_ms": 10, "token": 1}], "reference": [1]}
    p = write_jsonl(tmp_path / "ids.jsonl", [good, dict(good, id=iid)])
    with pytest.raises(CorpusError, match=":2:.*plain file name"):
        load_instances(p)


def test_cli_escaping_id_writes_no_trace(tmp_path, capsys):
    entry = {"id": "../escaped", "source": [{"dur_ms": 10, "token": 1}],
             "reference": [1]}
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [entry])
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"instances": corpus.name}), encoding="utf-8")
    tdir = tmp_path / "traces"
    assert main(["evaluate", "--manifest", str(mpath),
                 "--trace-dir", str(tdir)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "escaped.jsonl").exists()
    assert not tdir.exists()


@pytest.mark.parametrize("iid", [None, 7, ["a"]])
def test_cli_id_that_is_not_a_string_exits_1(tmp_path, capsys, iid):
    good = {"id": "ok", "source": [{"dur_ms": 10, "token": 1}], "reference": [1]}
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [good, dict(good, id=iid)])
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"instances": corpus.name}), encoding="utf-8")
    tdir = tmp_path / "traces"
    assert main(["evaluate", "--manifest", str(mpath),
                 "--trace-dir", str(tdir)]) == 1
    err = capsys.readouterr().err
    assert ":2:" in err and "must be a string" in err and err.count("\n") == 1
    assert not tdir.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_non_finite_latency_exits_1_with_one_line(tmp_path, capsys, fmt):
    # 4 units of 1e308 s each overflow the end offset to inf on every instance
    mpath = cli_manifest(tmp_path)
    manifest = json.loads(mpath.read_text(encoding="utf-8"))
    manifest["runtime"] = {"unit_duration_s": 1e308, "units_per_token": 4}
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / f"report.{fmt}"
    assert main(["evaluate", "--manifest", str(mpath), "--format", fmt,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite latency" in err
    assert not out.exists()


def test_cli_train_toy_negative_seed_exits_2_naming_seed(capsys):
    assert main(["train-toy", "--steps", "5", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be at least 0\n"


def test_cli_gen_negative_seed_exits_2_naming_seed(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert main(["gen", "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0\n"
    assert not out.exists()


def test_cli_gen_vocab_beyond_int64_exits_2_naming_vocab(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert main(["gen", "--out", str(out), "--vocab", str(2**63)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: vocab must be at most {2**63 - 1}, got {2**63}\n"
    assert not out.exists()
    assert main(["gen", "--out", str(out), "--n", "2", "--length", "3",
                 "--vocab", str(2**63 - 1)]) == 0


def test_cli_negative_seed_override_exits_2_naming_seed(tmp_path, capsys):
    mpath = cli_manifest(tmp_path)
    assert main(["sweep", "--manifest", str(mpath), "--seed", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed ") and err.count("\n") == 1


# -- parser fuzz --------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
numbers = (st.integers(0, 300) | st.floats(0.0, 2.0)
           | st.sampled_from([-1, float("nan"), float("inf"), True, "1"]))
parameter_keys = st.sampled_from(["k", "vocab_map", "heads", "temperature", "d",
                                  "d_k", "d_v", "steps", "learning_rate",
                                  "vocab", "source_len", "target_len",
                                  "lambda_latency", "lambda_variance",
                                  "train_seed", "bogus"])
runtime_keys = st.sampled_from(["threshold", "min_unit_chunk",
                                "units_per_token", "unit_duration_s",
                                "max_target_len", "bogus"])
manifest_keys = st.sampled_from(["instances", "model", "runtime", "sweep",
                                 "seed"])
shaped_manifests = st.fixed_dictionaries({
    "instances": st.just("corpus.jsonl"),
}, optional={
    "model": st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["scripted_waitk", "scripted_stochastic",
                                 "toy_trained", "oracle"]),
        "parameters": st.dictionaries(parameter_keys, numbers, max_size=2)}),
    "runtime": st.dictionaries(runtime_keys, numbers, max_size=2),
    "sweep": st.lists(numbers, max_size=3),
    "seed": numbers,
})
manifests = st.one_of(shaped_manifests,
                      st.dictionaries(manifest_keys, json_values), json_values)


def one_line(exc) -> bool:
    return "\n" not in str(exc)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    copy_corpus_path(directory, n=1)
    return directory


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=manifests)
@example(raw={"instances": "\n"})
def test_fuzz_manifest_valid_or_one_line_value_error(fuzz_dir, raw):
    path = fuzz_dir / "manifest.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    try:
        manifest = Manifest.from_file(path)
    except ValueError as exc:
        assert one_line(exc)
        return
    assert isinstance(manifest, Manifest)


instance_keys = st.sampled_from(["id", "source", "reference"])
shaped_instances = st.fixed_dictionaries({
    "id": st.text(max_size=3) | st.integers(),
    "source": st.lists(st.fixed_dictionaries({"dur_ms": numbers,
                                              "token": numbers}), max_size=3),
    "reference": st.lists(numbers, max_size=3),
})
instances = st.one_of(shaped_instances,
                      st.dictionaries(instance_keys, json_values), json_values)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(instances.map(json.dumps) | st.text(max_size=8),
                      max_size=3))
def test_fuzz_load_instances_valid_or_one_line_corpus_error(fuzz_dir, lines):
    path = fuzz_dir / "instances.jsonl"
    path.write_text("\n".join(line.replace("\n", " ") for line in lines),
                    encoding="utf-8")
    try:
        loaded = load_instances(path)
    except CorpusError as exc:
        assert one_line(exc)
        return
    assert all(isinstance(inst, StreamInstance) for inst in loaded)
