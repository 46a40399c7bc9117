"""The streaming read/write state machine.

One loop, one policy query per (written, consumed) state. While source
remains, the loop asks the model once for its head probabilities and
compares their minimum against the threshold: min >= t writes one token
(boundary inclusive), anything lower reads one chunk. The first chunk is
read unconditionally, since there is nothing to decide on before it. Once
the source is exhausted the loop writes without asking (the offline tail)
until the model emits EOS or the target cap is hit, and leftover units
below the minimum chunk size are flushed in a final emission.

``run_stream`` is the whole loop; its state lives in locals. It also
records the threshold interval (lo, hi] over which the trace holds (see
``DecisionTrace.threshold_interval``): every threshold in it takes every
decision the same way, so a model that is deterministic given its call
history sees the same calls and the loop returns the same trace.

The simulated clock advances only with source consumption; model compute
time is not modeled.
"""

from __future__ import annotations

import math

from .types import (EOS_TOKEN, DecisionTrace, Emission, IncrementalModel,
                    PrefixView, RuntimeConfig, StreamInstance, TraceEvent)

__all__ = ["READ", "WRITE", "run_stream"]

READ = "READ"
WRITE = "WRITE"


def run_stream(model: IncrementalModel, instance: StreamInstance,
               config: RuntimeConfig) -> DecisionTrace:
    """Run the full streaming loop for one instance.

    After each read the model encodes ``PrefixView(chunks, consumed)``,
    and the states it returns go into every later query. The write rule
    lives here alone: a decision writes when the minimum head probability
    is at least ``config.threshold``, any NaN head reads, and a model
    that answers no head probability raises ``ValueError``.
    """
    chunks = instance.source_chunks
    if not chunks:
        raise ValueError(f"instance {instance.id!r} has no source chunks")
    n_chunks = len(chunks)
    threshold = config.threshold  # RuntimeConfig checked it lies in (0,1)
    units_per_token = config.units_per_token
    min_unit_chunk = config.min_unit_chunk
    lo, hi = -math.inf, math.inf
    states = None
    consumed = 0
    sim_time = 0.0
    outputs: list[int] = []
    delays: list[float] = []
    events: list[TraceEvent] = []
    emissions: list[Emission] = []
    pending: list[int] = []  # committed tokens awaiting emission
    truncated = False

    def emit(at: float) -> None:
        units = len(pending) * units_per_token
        emissions.append(Emission(at, units * config.unit_duration_s,
                                  tuple(pending)))
        events.append(TraceEvent(at, "EMIT", None, units))
        pending.clear()

    while True:
        if consumed < n_chunks:
            if consumed == 0:
                read = True  # the first read is unconditional
            else:
                probs = tuple(model.head_probabilities(states, outputs))
                # any NaN head reads; min() would keep it only in first place
                lowest = (math.nan if math.isnan(sum(probs))
                          else min(probs, default=None))
                if lowest is None:
                    raise ValueError(
                        "decision needs at least one head probability")
                read = not lowest >= threshold  # a NaN reads
                if read:
                    if lowest > lo:  # a NaN fails this test and drops out
                        lo = lowest
                elif lowest < hi:
                    hi = lowest
            if read:
                sim_time += chunks[consumed].duration_s
                consumed += 1
                states = model.encode_prefix(PrefixView(chunks, consumed))
                events.append(TraceEvent(sim_time, READ))
                continue
        if len(outputs) >= config.max_target_len:
            truncated = True
            break
        token = int(model.next_token(states, outputs))
        if token == EOS_TOKEN:
            break
        outputs.append(token)
        delays.append(sim_time)
        events.append(TraceEvent(sim_time, WRITE, token))
        pending.append(token)
        if len(pending) * units_per_token >= min_unit_chunk:
            emit(sim_time)
    if pending:
        emit(sim_time)  # flush units below the minimum chunk size
    events.append(TraceEvent(sim_time, "FINISH"))
    return DecisionTrace(
        instance_id=instance.id,
        source_duration_s=instance.source_duration_s,
        events=events,
        outputs=outputs,
        delays=delays,
        emissions=emissions,
        truncated=truncated,
        threshold_interval=(lo, hi))
