"""Lagging and offset metrics on frozen fixtures."""

import numpy as np
import pytest

from emma_stream.errors import DomainError, EmptyOutputError
from emma_stream.metrics import (InstanceLatency, average_lagging,
                                 build_latency_report,
                                 length_adaptive_average_lagging, offsets)
from emma_stream.runtime import DecisionTrace, Emission


def trace_with(emissions, source_duration=4.0, iid="m1"):
    return DecisionTrace(instance_id=iid, source_duration_s=source_duration,
                         emissions=list(emissions))


# -- average lagging ----------------------------------------------------------

def test_offline_al_equals_source_length():
    assert average_lagging([4.0, 4.0, 4.0], 4.0, 3) == pytest.approx(4.0)
    # cutoff at the first full-source delay: later terms never contribute
    assert average_lagging([4.0], 4.0, 17) == pytest.approx(4.0)


def test_al_unit_rate_hand_value():
    assert average_lagging([1.0, 2.0, 3.0, 4.0], 4.0, 4) == pytest.approx(1.0)


def test_al_wait2_copy_value():
    assert average_lagging([2.0, 3.0, 4.0, 5.0, 6.0, 6.0], 6.0, 6) == pytest.approx(2.0)


def test_al_overgeneration_fixture():
    d = [1.0, 2.0, 3.0, 4.0]
    assert average_lagging(d, 4.0, 2) == pytest.approx(-0.5)
    assert length_adaptive_average_lagging(d, 4.0, 2, 4) == pytest.approx(1.0)


def test_laal_equals_al_for_equal_lengths():
    d = [2.0, 3.0, 4.0, 5.0, 6.0, 6.0]
    assert length_adaptive_average_lagging(d, 6.0, 6, 6) == pytest.approx(
        average_lagging(d, 6.0, 6))


def test_laal_offline_regardless_of_lengths():
    assert length_adaptive_average_lagging([5.0, 5.0], 5.0, 9, 2) == pytest.approx(5.0)


def test_cutoff_truncates_post_source_tokens():
    # everything past the first delay at |x| is ignored
    base = average_lagging([1.0, 3.0, 3.0], 3.0, 3)
    extended = average_lagging([1.0, 3.0, 3.0, 3.0, 3.0], 3.0, 3)
    assert extended == pytest.approx(base)


def test_cutoff_fallback_when_source_never_reached():
    # truncated hypothesis: no delay reaches the end, cutoff covers all of it
    got = average_lagging([1.0, 2.0], 4.0, 4)
    assert got == pytest.approx(((1.0 - 0.0) + (2.0 - 1.0)) / 2)


def test_lagging_errors():
    with pytest.raises(ValueError):
        average_lagging([], 4.0, 2)
    with pytest.raises(DomainError):
        average_lagging([2.0, 1.0], 4.0, 2)
    with pytest.raises(DomainError):
        average_lagging([5.0], 4.0, 2)
    with pytest.raises(ValueError):
        average_lagging([1.0], 4.0, 0)


def test_token_unit_mode():
    # same arithmetic in token counts instead of seconds
    assert average_lagging([2, 3, 4, 5, 6, 6], 6, 6) == pytest.approx(2.0)


@pytest.mark.parametrize("hyp_len,ref_len", [(6, 3), (8, 2), (4, 4), (2, 6)])
def test_laal_never_below_al(hyp_len, ref_len):
    rng = np.random.default_rng(hyp_len * 10 + ref_len)
    d = np.sort(rng.uniform(0.5, 4.0, size=hyp_len))
    d[-1] = 4.0
    al = average_lagging(d, 4.0, ref_len)
    laal = length_adaptive_average_lagging(d, 4.0, ref_len, hyp_len)
    if hyp_len > ref_len:
        assert laal >= al - 1e-12
    else:
        assert laal == pytest.approx(al)


# -- offsets ------------------------------------------------------------------

def test_single_emission_end_offset():
    trace = trace_with([Emission(4.0, 1.5, (1,))])
    got = offsets(trace)
    assert got["start_offset_s"] == pytest.approx(4.0)
    assert got["end_offset_s"] == pytest.approx(1.5)


def test_serialized_playback_no_overlap():
    trace = trace_with([Emission(2.0, 1.0, (1,)), Emission(4.0, 1.0, (2,))])
    got = offsets(trace)
    assert got["start_offset_s"] == pytest.approx(2.0)
    # chunks play 2-3 and 4-5; playback ends 1 s past the 4 s source
    assert got["end_offset_s"] == pytest.approx(1.0)


def test_queued_playback_pushes_end():
    # second chunk emitted while the first still plays: it queues
    trace = trace_with([Emission(1.0, 3.0, (1,)), Emission(2.0, 2.0, (2,))])
    got = offsets(trace)
    assert got["end_offset_s"] == pytest.approx(6.0 - 4.0)


def test_zero_duration_emission_at_source_end():
    trace = trace_with([Emission(4.0, 0.0, ())])
    assert offsets(trace)["end_offset_s"] == pytest.approx(0.0)


def test_no_emissions_raises():
    with pytest.raises(EmptyOutputError):
        offsets(trace_with([]))


# -- report aggregation -------------------------------------------------------

def test_report_means_are_unweighted():
    rows = [InstanceLatency("a", 1.0, 2.0, 0.5, 0.1),
            InstanceLatency("b", 3.0, 4.0, 1.5, 0.3)]
    report = build_latency_report(rows)
    assert report.al == pytest.approx(2.0)
    assert report.laal == pytest.approx(3.0)
    assert report.start_offset_s == pytest.approx(1.0)
    assert report.end_offset_s == pytest.approx(0.2)
    assert report.per_instance == tuple(rows)


def test_empty_report_rejected():
    with pytest.raises(ValueError):
        build_latency_report([])
