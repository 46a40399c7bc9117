"""Streaming inference: the read/write state machine and scripted models."""

from .machine import READ, WRITE, decide, run_stream
from .models import scripted_probability_model, scripted_waitk_model
from .trace import trace_to_lines, write_trace_jsonl
from .types import (EOS_TOKEN, DecisionTrace, Emission, IncrementalModel,
                    PrefixView, RuntimeConfig, SourceChunk, StreamInstance,
                    TraceEvent)

__all__ = [
    "READ",
    "WRITE",
    "decide",
    "run_stream",
    "scripted_probability_model",
    "scripted_waitk_model",
    "trace_to_lines",
    "write_trace_jsonl",
    "EOS_TOKEN",
    "DecisionTrace",
    "Emission",
    "IncrementalModel",
    "PrefixView",
    "RuntimeConfig",
    "SourceChunk",
    "StreamInstance",
    "TraceEvent",
]
