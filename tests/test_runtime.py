"""The streaming state machine against hand-traced schedules."""

import math
from dataclasses import replace

import numpy as np
import pytest

from emma_stream.emma import alignment_parallel
from emma_stream.runtime import (EOS_TOKEN, READ, WRITE, Emission, PrefixView,
                                 RuntimeConfig, SourceChunk, StreamInstance,
                                 TraceEvent, run_stream,
                                 scripted_probability_model,
                                 scripted_waitk_model, trace_to_lines)


def instance_of(n_chunks=6, duration=1.0, iid="t1"):
    chunks = tuple(SourceChunk(duration, 100 + j) for j in range(n_chunks))
    return StreamInstance(id=iid, source_chunks=chunks,
                          reference=tuple(100 + j for j in range(n_chunks)))


def offline_model():
    return scripted_probability_model(lambda written, consumed: [0.0])


# -- the write rule ------------------------------------------------------------

def first_decision(head_ps):
    """The kind of the event after the unconditional first read at t = 0.5,
    for a model whose heads always answer ``head_ps``."""
    model = scripted_probability_model(lambda written, consumed: head_ps)
    trace = run_stream(model, instance_of(2), RuntimeConfig(threshold=0.5))
    return trace.events[1].kind


def test_write_rule_takes_the_minimum_over_heads():
    assert first_decision([0.9, 0.6]) == WRITE
    assert first_decision([0.9, 0.4]) == READ
    assert first_decision([math.nan]) == READ
    for head_ps in ([math.nan, 0.9], [0.9, math.nan]):
        # any NaN head reads at every threshold and moves neither bound
        assert first_decision(head_ps) == READ
        model = scripted_probability_model(lambda written, consumed: head_ps)
        trace = run_stream(model, instance_of(3), RuntimeConfig(threshold=0.5))
        assert trace.delays == [3.0, 3.0, 3.0]
        assert trace.threshold_interval == (-math.inf, math.inf)


def test_write_rule_boundary_inclusive():
    assert first_decision([0.5]) == WRITE


def test_write_rule_errors():
    with pytest.raises(ValueError,
                       match="decision needs at least one head probability"):
        first_decision([])
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError, match="threshold must lie strictly"):
            RuntimeConfig(threshold=bad)


# -- hand-traced schedules ----------------------------------------------------

def test_offline_model_all_delays_at_source_end():
    inst = instance_of(5)
    trace = run_stream(offline_model(), inst, RuntimeConfig())
    assert trace.outputs == [100, 101, 102, 103, 104]
    assert trace.delays == [5.0] * 5
    assert not trace.truncated


def test_wait2_copy_schedule():
    inst = instance_of(6)
    trace = run_stream(scripted_waitk_model(2), inst, RuntimeConfig())
    assert trace.outputs == [100, 101, 102, 103, 104, 105]
    assert trace.delays == [2.0, 3.0, 4.0, 5.0, 6.0, 6.0]


def test_wait0_alternates_read_write():
    inst = instance_of(4)
    trace = run_stream(scripted_waitk_model(0), inst, RuntimeConfig())
    kinds = [e.kind for e in trace.events if e.kind in ("READ", "WRITE")]
    assert kinds == ["READ", "WRITE"] * 4
    assert trace.delays == [1.0, 2.0, 3.0, 4.0]


def test_waitk_beyond_source_behaves_offline():
    inst = instance_of(4)
    trace = run_stream(scripted_waitk_model(10), inst, RuntimeConfig())
    assert trace.delays == [4.0] * 4


def test_vocab_map_applied():
    inst = instance_of(3)
    trace = run_stream(scripted_waitk_model(1, {100: 7, 101: 8, 102: 9}),
                       inst, RuntimeConfig())
    assert trace.outputs == [7, 8, 9]


# -- emission gating ----------------------------------------------------------

def test_unit_chunk_gating():
    # 2 units per token, minimum chunk 5: writes accumulate 2, 4, then 6
    # units; the third write triggers the first emission
    inst = instance_of(6)
    cfg = RuntimeConfig(min_unit_chunk=5, units_per_token=2)
    trace = run_stream(scripted_waitk_model(2), inst, cfg)
    first_emit = next(e for e in trace.events if e.kind == "EMIT")
    writes_before = [e for e in trace.events
                     if e.kind == "WRITE" and e.sim_time_s <= first_emit.sim_time_s]
    assert len(writes_before) == 3
    assert first_emit.units == 6


def test_flush_below_minimum_at_finish():
    # 5 tokens * 1 unit with min chunk 4: one gated emission of 4, then a
    # final flush of the 1 leftover unit
    inst = instance_of(5)
    cfg = RuntimeConfig(min_unit_chunk=4, units_per_token=1)
    trace = run_stream(offline_model(), inst, cfg)
    units = [e.units for e in trace.events if e.kind == "EMIT"]
    assert units == [4, 1]
    assert sum(units) == 5


def test_every_token_emitted_exactly_once():
    inst = instance_of(6)
    cfg = RuntimeConfig(min_unit_chunk=4, units_per_token=3)
    trace = run_stream(scripted_waitk_model(1), inst, cfg)
    emitted = [t for e in trace.emissions for t in e.tokens]
    assert emitted == trace.outputs
    total_units = sum(e.units for e in trace.events if e.kind == "EMIT")
    assert total_units == len(trace.outputs) * 3


def test_no_output_trace_has_only_reads_and_finish():
    inst = instance_of(3)
    model = scripted_probability_model(lambda w, c: [0.0])
    model.next_token = lambda states, prefix: EOS_TOKEN
    trace = run_stream(model, inst, RuntimeConfig())
    assert trace.outputs == []
    assert trace.emissions == []
    assert trace.events[-1].kind == "FINISH"


# -- one query per state and termination --------------------------------------

class CountingModel:
    """Wraps a model; records the (written, consumed) state of every query."""

    def __init__(self, model):
        self.model = model
        self.consumed = 0
        self.queries = []

    def encode_prefix(self, chunks):
        self.consumed = len(chunks)
        return self.model.encode_prefix(chunks)

    def head_probabilities(self, states, prefix):
        self.queries.append((len(prefix), self.consumed))
        return self.model.head_probabilities(states, prefix)

    def next_token(self, states, prefix):
        return self.model.next_token(states, prefix)


@pytest.mark.parametrize("model", [
    scripted_waitk_model(0), scripted_waitk_model(2), scripted_waitk_model(9),
    scripted_probability_model(lambda w, c: [0.0]),
    scripted_probability_model(lambda w, c: [1.0]),
    scripted_probability_model(lambda w, c: [0.4 + 0.3 * ((w + 2 * c) % 2)]),
])
def test_each_state_queried_once_and_never_after_exhaustion(model):
    inst = instance_of(6)
    counting = CountingModel(model)
    trace = run_stream(counting, inst, RuntimeConfig())
    assert trace.outputs == [100 + j for j in range(6)]
    assert len(counting.queries) == len(set(counting.queries))
    assert all(consumed < 6 for _, consumed in counting.queries)
    # every decision before exhaustion is one query: reads after the
    # first plus writes made while source remained
    reads = sum(e.kind == "READ" for e in trace.events)
    early_writes = sum(1 for d in trace.delays if d < inst.source_duration_s)
    assert len(counting.queries) == reads - 1 + early_writes


def test_nonterminating_model_capped_and_flagged():
    class Babbler:
        def encode_prefix(self, chunks):
            return tuple(c.payload for c in chunks)

        def head_probabilities(self, states, prefix):
            return [1.0]

        def next_token(self, states, prefix):
            return 42

    trace = run_stream(Babbler(), instance_of(3),
                       RuntimeConfig(max_target_len=10))
    assert trace.truncated
    assert len(trace.outputs) == 10


def test_empty_instance_rejected():
    inst = StreamInstance(id="e", source_chunks=(), reference=(1,))
    with pytest.raises(ValueError):
        run_stream(offline_model(), inst, RuntimeConfig())


# -- invariants ---------------------------------------------------------------

def threshold_probability(written, consumed):
    # deterministic surface in (0,1), a pure function of (written, consumed)
    return [(((written * 37 + consumed * 17) % 9) + 0.5) / 10.0]


def test_delays_monotone_and_bounded():
    for n in (1, 3, 7):
        inst = instance_of(n)
        trace = run_stream(scripted_probability_model(threshold_probability),
                           inst, RuntimeConfig())
        assert all(a <= b for a, b in zip(trace.delays, trace.delays[1:]))
        if trace.delays:
            assert trace.delays[-1] <= inst.source_duration_s + 1e-12


def test_raising_threshold_never_lowers_delays():
    inst = instance_of(8)
    model = scripted_probability_model(threshold_probability)
    prev = None
    for t in (0.4, 0.5, 0.6, 0.7):
        trace = run_stream(model, inst, RuntimeConfig(threshold=t))
        if prev is not None:
            assert len(trace.delays) == len(prev)
            assert all(b >= a for a, b in zip(prev, trace.delays))
        prev = trace.delays


def test_delays_are_the_forced_alignment_of_the_thresholded_surface():
    # cross-layer oracle: the runtime is the forced monotonic alignment of
    # its own hard decisions. Row i (written) and column j (consumed j + 1)
    # write iff the copy mask allows it (i < j + 1) and every head clears
    # t; the forced alignment of that 0/1 matrix is one-hot at each row's
    # delay. Half the surfaces sit on a grid of tenths, so ties with t occur.
    # Each surface runs again with a tenth of its entries NaN: numpy's min
    # keeps a NaN head wherever it sits, so any NaN head reads.
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        n, n_heads = int(rng.integers(1, 13)), int(rng.integers(1, 4))
        if seed % 2:
            table, t = rng.uniform(size=(n, n + 1, n_heads)), rng.uniform(0.01, 0.99)
        else:
            table = rng.integers(0, 11, size=(n, n + 1, n_heads)) / 10
            t = int(rng.integers(1, 10)) / 10
        salted = np.where(rng.uniform(size=table.shape) < 0.1, np.nan, table)
        for surface in (table, salted):
            trace = run_stream(
                scripted_probability_model(lambda w, c: surface[w, c].tolist()),
                instance_of(n), RuntimeConfig(threshold=t))
            i, j = np.indices((n, n))
            p_hard = ((i < j + 1) & (surface.min(axis=2)[:, 1:] >= t)).astype(float)
            alpha = alignment_parallel(p_hard, force_last_column=True)
            assert trace.delays == (alpha.argmax(axis=1) + 1.0).tolist(), seed


class Listing:
    """Wraps a model; hands out its head probabilities as a fresh list,
    where the built-in models answer tuples."""

    def __init__(self, model):
        self.model = model

    def encode_prefix(self, chunks):
        return self.model.encode_prefix(chunks)

    def head_probabilities(self, states, prefix):
        return list(self.model.head_probabilities(states, prefix))

    def next_token(self, states, prefix):
        return self.model.next_token(states, prefix)


def test_trace_holds_exactly_on_its_threshold_interval():
    # on (lo, hi] every decision and so the trace are the same; at lo a
    # READ turns into a WRITE, just above hi a WRITE turns into a READ
    grid = [0.2, 0.4, 0.5, 0.6, 0.8, math.nan]
    tested = {"lo": 0, "hi": 0}
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n_heads = 1 + seed % 3
        table = rng.choice(grid, size=(9, 9, n_heads)).tolist()
        scripted = scripted_probability_model(lambda w, c: table[w][c])
        model = Listing(scripted)
        inst = instance_of(8)

        def lines_at(t):
            return trace_to_lines(run_stream(model, inst,
                                             RuntimeConfig(threshold=t)))

        t0 = float(rng.choice([0.3, 0.4, 0.5, 0.7]))
        trace = run_stream(model, inst, RuntimeConfig(threshold=t0))
        lo, hi = trace.threshold_interval
        assert lo < t0 <= hi
        # a list answer streams as the tuple answer does
        assert trace == run_stream(scripted, inst, RuntimeConfig(threshold=t0))
        middle = (max(lo, 0.0) + min(hi, 1.0)) / 2
        inside = [t for t in (np.nextafter(lo, math.inf), middle, hi)
                  if 0.0 < t < 1.0]
        assert all(lines_at(t) == trace_to_lines(trace) for t in inside)
        for side, t in (("lo", lo), ("hi", np.nextafter(hi, math.inf))):
            if 0.0 < t < 1.0:
                assert lines_at(t) != trace_to_lines(trace)
                tested[side] += 1
    assert min(tested.values()) >= 10


def test_sim_time_non_decreasing():
    inst = instance_of(6)
    trace = run_stream(scripted_waitk_model(2), inst,
                       RuntimeConfig(min_unit_chunk=3))
    times = [e.sim_time_s for e in trace.events]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_reencode_consistency_and_determinism():
    inst = instance_of(5)
    model = scripted_waitk_model(2)
    for j in range(1, 6):
        once = model.encode_prefix(inst.source_chunks[:j])
        again = model.encode_prefix(inst.source_chunks[:j])
        assert once == again
    t1 = run_stream(model, inst, RuntimeConfig())
    t2 = run_stream(scripted_waitk_model(2), inst, RuntimeConfig())
    assert trace_to_lines(t1) == trace_to_lines(t2)


def test_prefix_view_reads_like_the_tuple_prefix():
    items = tuple(range(10, 17))
    slices = [slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
              slice(2, 100, 2), slice(-3, None), slice(5, 1)]
    for n in range(len(items) + 1):
        view, want = PrefixView(items, n), items[:n]
        assert len(view) == n and tuple(view) == want and view == want
        assert [view[i] for i in range(-n, n)] == [want[i] for i in range(-n, n)]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                view[bad]
        assert all(view[sl] == want[sl] for sl in slices)
    with pytest.raises(ValueError):
        PrefixView(items, len(items) + 1)


# -- the records -----------------------------------------------------------------

@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan])
def test_source_chunk_rejects_a_duration_that_is_not_positive(duration):
    for make in (lambda: SourceChunk(duration, 1),
                 lambda: replace(SourceChunk(1.0, 1), duration_s=duration)):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == f"chunk duration must be positive, got {duration}"


@pytest.mark.parametrize("kind,values", [
    (SourceChunk, {"duration_s": 0.25, "payload": 7}),
    (TraceEvent, {"sim_time_s": 1.0, "kind": "WRITE", "token": 4, "units": None}),
    (Emission, {"emit_time_s": 1.0, "playback_duration_s": 0.04,
                "tokens": (4, 5)}),
])
def test_records_keep_their_fields_and_are_immutable_and_hashable(kind, values):
    record = kind(**values)
    assert record == kind(*values.values())  # the fields in this order
    assert {name: getattr(record, name) for name in values} == values
    assert hash(record) == hash(kind(**values))
    assert len({record, kind(**values)}) == 1
    for name in values:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    # a frozen slots dataclass refuses a new attribute with a TypeError
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1


def test_trace_records_are_tuples_with_defaults():
    event = TraceEvent(1.0, "READ")
    assert event.token is None and event.units is None
    assert event == TraceEvent(1.0, "READ", None, None)
    assert event == (1.0, "READ", None, None)
    assert Emission(1.0, 0.04, (4,)) == (1.0, 0.04, (4,))


@pytest.mark.parametrize("config", [
    RuntimeConfig(),
    RuntimeConfig(min_unit_chunk=4, units_per_token=3),  # gated and flushed
    RuntimeConfig(max_target_len=2),  # truncated
])
def test_run_stream_records_are_the_named_records(config):
    trace = run_stream(scripted_waitk_model(1), instance_of(5), config)
    kinds = {event.kind for event in trace.events}
    assert {READ, WRITE, "EMIT", "FINISH"} <= kinds and trace.emissions
    for kind, records in ((TraceEvent, trace.events),
                          (Emission, trace.emissions)):
        for record in records:
            assert type(record) is kind
            fields = record._asdict()
            assert list(fields) == list(kind._fields)
            assert record == kind(**fields) and hash(record) == hash(kind(**fields))
            assert record._replace() == record
    event, emission = trace.events[0], trace.emissions[0]
    assert event._replace(kind=WRITE, token=3) == TraceEvent(
        event.sim_time_s, WRITE, 3, None)
    assert emission._replace(tokens=(9,)) == Emission(
        emission.emit_time_s, emission.playback_duration_s, (9,))


def test_trace_lines_roundtrip():
    import json
    trace = run_stream(scripted_waitk_model(1), instance_of(3), RuntimeConfig())
    lines = trace_to_lines(trace)
    records = [json.loads(line) for line in lines]
    assert records[-1]["kind"] == "SUMMARY"
    assert records[-1]["outputs"] == trace.outputs
    kinds = {r["kind"] for r in records}
    assert kinds == {"READ", "WRITE", "EMIT", "FINISH", "SUMMARY"}
