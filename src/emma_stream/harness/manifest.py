"""Manifest and instance-file ingestion."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..errors import CorpusError
from ..runtime.types import RuntimeConfig, SourceChunk, StreamInstance

__all__ = ["Manifest", "load_instances"]

_MODEL_KINDS = ("scripted_waitk", "scripted_stochastic", "toy_trained")


@dataclass(frozen=True)
class Manifest:
    """Evaluation recipe: instance file, model choice, runtime knobs, seed."""

    instances: Path
    model_kind: str = "scripted_waitk"
    model_parameters: dict = field(default_factory=dict)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    sweep: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.model_kind not in _MODEL_KINDS:
            raise ValueError(
                f"unknown model kind {self.model_kind!r}; expected one of {_MODEL_KINDS}")
        for t in self.sweep:
            if not 0.0 < t < 1.0:
                raise ValueError(f"sweep threshold {t} outside (0,1)")

    @classmethod
    def from_file(cls, path: str | Path) -> "Manifest":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ValueError(f"manifest not found: {path}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"manifest {path} is not valid JSON: {exc}")
        if not isinstance(raw, dict) or "instances" not in raw:
            raise ValueError(f"manifest {path} must be an object with 'instances'")
        if not isinstance(raw["instances"], str):
            raise ValueError(f"manifest {path}: 'instances' must be a path string")
        instances = Path(raw["instances"])
        if not instances.is_absolute():
            instances = path.parent / instances
        if not instances.exists():
            raise ValueError(f"instance file does not exist: {instances}")
        model = _object(raw.get("model", {}), "model")
        sweep = raw.get("sweep", [])
        if not isinstance(sweep, list):
            raise ValueError(f"manifest 'sweep' must be a list, got {sweep!r}")
        return cls(
            instances=instances,
            model_kind=model.get("kind", "scripted_waitk"),
            model_parameters=dict(_object(model.get("parameters", {}),
                                          "model.parameters")),
            runtime=_runtime(raw.get("runtime", {})),
            sweep=tuple(_number(t, "sweep entry") for t in sweep),
            seed=_number(raw.get("seed", 0), "seed", int),
        )


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"manifest '{what}' must be an object, got {value!r}")
    return value


def _number(value, what: str, kind: type = float):
    """A finite JSON number of ``kind`` (int or float); booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)) \
            or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite {kind.__name__}, got {value!r}")
    return kind(value)


def _runtime(raw) -> RuntimeConfig:
    """RuntimeConfig from a manifest object; each field keeps its default's type."""
    defaults = {f.name: f.default for f in fields(RuntimeConfig)}
    values = {}
    for key, value in _object(raw, "runtime").items():
        if key not in defaults:
            raise ValueError(
                f"unknown runtime key {key!r}; expected one of {sorted(defaults)}")
        values[key] = _number(value, f"runtime {key}", type(defaults[key]))
    return RuntimeConfig(**values)


def load_instances(path: str | Path) -> list[StreamInstance]:
    """Parse a JSONL instance file.

    One object per line: {"id": str, "source": [{"dur_ms": ms, "token": id},
    ...], "reference": [id, ...]}. Durations arrive in milliseconds and are
    stored in seconds.
    """
    path = Path(path)
    instances: list[StreamInstance] = []
    seen: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: not valid JSON ({exc.msg})")
            try:
                instances.append(_parse_instance(raw))
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}")
            iid = instances[-1].id
            if iid in seen:
                raise CorpusError(f"{path}:{lineno}: duplicate instance id {iid!r}")
            seen.add(iid)
    return instances


def _parse_instance(raw: dict) -> StreamInstance:
    iid = str(raw["id"])
    source = raw["source"]
    if not source:
        raise ValueError(f"instance {iid!r} has an empty source")
    chunks = []
    for entry in source:
        dur_ms = _number(entry["dur_ms"], f"instance {iid!r} dur_ms")
        if not dur_ms > 0:
            raise ValueError(f"instance {iid!r} has non-positive dur_ms {dur_ms}")
        chunks.append(SourceChunk(duration_s=dur_ms / 1000.0,
                                  payload=int(entry["token"])))
    return StreamInstance(id=iid, source_chunks=tuple(chunks),
                          reference=tuple(int(t) for t in raw["reference"]))
