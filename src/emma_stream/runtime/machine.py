"""The streaming read/write state machine.

One loop, one policy query per (written, consumed) state. While source
remains, the loop asks the model once for its head probabilities and
compares their minimum against the threshold: min >= t writes one token
(boundary inclusive), anything lower reads one chunk. The first chunk is
read unconditionally, since there is nothing to decide on before it. Once
the source is exhausted the loop writes without asking (the offline tail)
until the model emits EOS or the target cap is hit, and leftover units
below the minimum chunk size are flushed in a final emission.

``run_stream`` is the whole loop; its state lives in locals.

The simulated clock advances only with source consumption; model compute
time is not modeled.
"""

from __future__ import annotations

from .types import (EOS_TOKEN, DecisionTrace, Emission, IncrementalModel,
                    PrefixView, RuntimeConfig, StreamInstance, TraceEvent)

__all__ = ["READ", "WRITE", "decide", "run_stream"]

READ = "READ"
WRITE = "WRITE"


def decide(head_ps, threshold: float) -> str:
    """WRITE iff every head is at or above the threshold."""
    head_ps = list(head_ps)
    if not head_ps:
        raise ValueError("decision needs at least one head probability")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie strictly in (0,1), got {threshold}")
    return WRITE if min(head_ps) >= threshold else READ


def run_stream(model: IncrementalModel, instance: StreamInstance,
               config: RuntimeConfig) -> DecisionTrace:
    """Run the full streaming loop for one instance."""
    chunks = instance.source_chunks
    if not chunks:
        raise ValueError(f"instance {instance.id!r} has no source chunks")
    states = None
    consumed = 0
    sim_time = 0.0
    outputs: list[int] = []
    delays: list[float] = []
    events: list[TraceEvent] = []
    emissions: list[Emission] = []
    pending: list[int] = []  # committed tokens awaiting emission
    truncated = False

    def emit() -> None:
        units = len(pending) * config.units_per_token
        emissions.append(Emission(
            emit_time_s=sim_time,
            playback_duration_s=units * config.unit_duration_s,
            tokens=tuple(pending)))
        events.append(TraceEvent(sim_time, "EMIT", units=units))
        pending.clear()

    while True:
        if consumed < len(chunks) and (consumed == 0 or decide(
                model.head_probabilities(states, outputs),
                config.threshold) == READ):
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
        events.append(TraceEvent(sim_time, WRITE, token=token))
        pending.append(token)
        if len(pending) * config.units_per_token >= config.min_unit_chunk:
            emit()
    if pending:
        emit()  # flush units below the minimum chunk size
    events.append(TraceEvent(sim_time, "FINISH"))
    return DecisionTrace(
        instance_id=instance.id,
        source_duration_s=instance.source_duration_s,
        events=events,
        outputs=outputs,
        delays=delays,
        emissions=emissions,
        truncated=truncated)
