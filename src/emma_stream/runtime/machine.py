"""The streaming read/write state machine.

One loop, one policy query per (written, consumed) state. While source
remains, the loop asks the model once for its head probabilities and
compares their minimum against the threshold: min >= t writes one token
(boundary inclusive), anything lower reads one chunk. The first chunk is
read unconditionally, since there is nothing to decide on before it. Once
the source is exhausted the loop writes without asking (the offline tail)
until the model emits EOS or the target cap is hit, and leftover units
below the minimum chunk size are flushed in a final emission.

The simulated clock advances only with source consumption; model compute
time is not modeled.
"""

from __future__ import annotations

from .types import (EOS_TOKEN, DecisionTrace, Emission, IncrementalModel,
                    PrefixView, RuntimeConfig, StreamInstance, TraceEvent)

__all__ = ["READ", "WRITE", "decide", "StreamSession", "run_stream"]

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


class StreamSession:
    """One instance's in-progress run; ``run()`` drives it to completion."""

    def __init__(self, model: IncrementalModel, instance: StreamInstance,
                 config: RuntimeConfig):
        if not instance.source_chunks:
            raise ValueError(f"instance {instance.id!r} has no source chunks")
        self.model = model
        self.instance = instance
        self.config = config
        self.states = None
        self.consumed = 0
        self.sim_time = 0.0
        self.outputs: list[int] = []
        self.delays: list[float] = []
        self.events: list[TraceEvent] = []
        self.emissions: list[Emission] = []
        self._pending: list[int] = []  # committed tokens awaiting emission
        self.finished = False
        self.truncated = False

    @property
    def exhausted(self) -> bool:
        return self.consumed == len(self.instance.source_chunks)

    def _should_read(self) -> bool:
        """The one policy query of the current state, if it needs one."""
        if self.exhausted:
            return False
        if self.consumed == 0:
            return True
        ps = self.model.head_probabilities(self.states, self.outputs)
        return decide(ps, self.config.threshold) == READ

    def _consume(self) -> None:
        chunk = self.instance.source_chunks[self.consumed]
        self.consumed += 1
        self.sim_time += chunk.duration_s
        self.states = self.model.encode_prefix(
            PrefixView(self.instance.source_chunks, self.consumed))
        self.events.append(TraceEvent(self.sim_time, "READ"))

    def _write(self) -> None:
        if len(self.outputs) >= self.config.max_target_len:
            self.truncated = True
            return
        token = int(self.model.next_token(self.states, self.outputs))
        if token == EOS_TOKEN:
            self.finished = True
            return
        self.outputs.append(token)
        self.delays.append(self.sim_time)
        self.events.append(TraceEvent(self.sim_time, "WRITE", token=token))
        self._pending.append(token)
        if len(self._pending) * self.config.units_per_token >= self.config.min_unit_chunk:
            self._emit()

    def _emit(self) -> None:
        units = len(self._pending) * self.config.units_per_token
        self.emissions.append(Emission(
            emit_time_s=self.sim_time,
            playback_duration_s=units * self.config.unit_duration_s,
            tokens=tuple(self._pending)))
        self.events.append(TraceEvent(self.sim_time, "EMIT", units=units))
        self._pending = []

    def run(self) -> DecisionTrace:
        while not (self.finished or self.truncated):
            if self._should_read():
                self._consume()
            else:
                self._write()
        if self._pending:
            self._emit()  # flush units below the minimum chunk size
        self.events.append(TraceEvent(self.sim_time, "FINISH"))
        return DecisionTrace(
            instance_id=self.instance.id,
            source_duration_s=self.instance.source_duration_s,
            events=self.events,
            outputs=self.outputs,
            delays=self.delays,
            emissions=self.emissions,
            truncated=self.truncated)


def run_stream(model: IncrementalModel, instance: StreamInstance,
               config: RuntimeConfig) -> DecisionTrace:
    """Run the full streaming loop for one instance."""
    return StreamSession(model, instance, config).run()
