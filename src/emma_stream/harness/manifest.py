"""Manifest and instance-file ingestion."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..errors import CorpusError
from ..runtime.types import RuntimeConfig, SourceChunk, StreamInstance

__all__ = ["Manifest", "load_instances", "model_parameters"]

_FLOAT_MAX = sys.float_info.max


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
        model_parameters(self.model_kind, self.model_parameters)
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed!r}")
        # a threshold names its trace directory and report row to six decimals
        named: dict[str, float] = {}
        for t in self.sweep:
            if not 0.0 < t < 1.0:
                raise ValueError(f"sweep threshold {t} outside (0,1)")
            name = f"{t:.6f}"
            if name in named:
                raise ValueError(f"sweep thresholds {named[name]} and {t} are "
                                 f"equal to six decimals ({name})")
            named[name] = t

    @classmethod
    def from_file(cls, path: str | Path) -> "Manifest":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ValueError(f"manifest not found: {str(path)!r}")
        except OSError as exc:  # a directory, or no read permission
            raise ValueError(f"cannot read manifest {str(path)!r}: {exc.strerror}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"manifest {str(path)!r} is not valid JSON: {exc}")
        if not isinstance(raw, dict) or "instances" not in raw:
            raise ValueError(f"manifest {str(path)!r} must be an object with "
                             "'instances'")
        if not isinstance(raw["instances"], str):
            raise ValueError(f"manifest {str(path)!r}: 'instances' must be a "
                             "path string")
        instances = Path(raw["instances"])
        if not instances.is_absolute():
            instances = path.parent / instances
        if not instances.exists():
            raise ValueError(f"instance file does not exist: {str(instances)!r}")
        if not instances.is_file():
            raise ValueError("instances must name a regular file: "
                             f"{str(instances)!r}")
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
    """A finite JSON number of ``kind`` (int or float); booleans are rejected,
    and so is an int too large for a float."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, kind)) \
                or not math.isfinite(value):
            raise ValueError(
                f"{what} must be a finite {kind.__name__}, got {value!r}")
    except OverflowError:  # isfinite of an int beyond float range
        raise ValueError(f"{what} must be a finite {kind.__name__}, got an "
                         f"int of {len(str(abs(value)))} digits") from None
    return kind(value)


def _at_least(kind: type, low, strict: bool = False):
    """Checker for a finite number of ``kind`` >= low, or > low if strict."""
    def check(value, what: str):
        number = _number(value, what, kind)
        if number < low or (strict and number == low):
            bound = "above" if strict else "at least"
            raise ValueError(f"{what} must be {bound} {low}, got {number!r}")
        return number
    return check


def _vocab_map(value, what: str) -> dict[int, int] | None:
    """Token-id map with integer (JSON: integer-string) keys; None copies."""
    if value is None:
        return None
    mapped = {}
    for key, target in _object(value, what).items():
        try:
            source = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"{what} key {key!r} is not an integer token id")
        mapped[source] = _number(target, f"{what} value", int)
    return mapped


_COUNT = _at_least(int, 1)
_WEIGHT = _at_least(float, 0.0)
_POSITIVE = _at_least(float, 0.0, strict=True)

# model.parameters per model kind: key -> (checker, default). A train_seed
# of None trains with the manifest seed.
_MODEL_PARAMETERS = {
    "scripted_waitk": {"k": (_at_least(int, 0), 2),
                       "vocab_map": (_vocab_map, None)},
    "scripted_stochastic": {"heads": (_COUNT, 2),
                            "temperature": (_POSITIVE, 1.0)},
    "toy_trained": {"d": (_COUNT, 8), "d_k": (_COUNT, 4), "d_v": (_COUNT, 3),
                    "heads": (_COUNT, 2), "steps": (_COUNT, 200),
                    "learning_rate": (_POSITIVE, 0.25), "vocab": (_COUNT, 6),
                    "source_len": (_COUNT, 6), "target_len": (_COUNT, 4),
                    "lambda_latency": (_WEIGHT, 0.0),
                    "lambda_variance": (_WEIGHT, 0.0),
                    "train_seed": (_at_least(int, 0), None)},
}


def model_parameters(kind: str, parameters: dict) -> dict:
    """A model block's parameters checked against its kind, defaults filled in."""
    if not isinstance(kind, str) or kind not in _MODEL_PARAMETERS:
        raise ValueError(f"unknown model kind {kind!r}; "
                         f"expected one of {tuple(_MODEL_PARAMETERS)}")
    table = _MODEL_PARAMETERS[kind]
    values = {key: default for key, (_, default) in table.items()}
    for key, value in parameters.items():
        if key not in table:
            raise ValueError(f"unknown {kind} parameter {key!r}; "
                             f"expected one of {sorted(table)}")
        values[key] = table[key][0](value, f"{kind} parameter {key}")
    return values


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
    stored in seconds. An id names its trace file, so it must be a plain
    file name: not empty, ``.`` or ``..``, free of ``/``, ``\\``, NUL, and
    UTF-8 (no lone surrogate). A file is read as UTF-8; a line that is not
    is reported by its number.
    """
    path = Path(path)
    instances: list[StreamInstance] = []
    seen: set[str] = set()
    # undecodable bytes become lone surrogates, caught line by line below
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not _is_utf8(line):
                raise CorpusError(f"{path}:{lineno}: not valid UTF-8")
            try:
                raw = json.loads(line)
            except ValueError as exc:
                # a JSONDecodeError, or a plain ValueError for an int literal
                # over Python's digit limit for int-string conversion
                raise CorpusError(f"{path}:{lineno}: not valid JSON "
                                  f"({getattr(exc, 'msg', exc)})")
            try:
                instances.append(_parse_instance(raw))
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}")
            iid = instances[-1].id
            if iid in seen:
                raise CorpusError(f"{path}:{lineno}: duplicate instance id {iid!r}")
            seen.add(iid)
    return instances


def _is_utf8(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8, that is, holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _parse_instance(raw: dict) -> StreamInstance:
    iid = raw["id"]
    if not isinstance(iid, str):
        raise ValueError(f"instance id must be a string, got {iid!r}")
    if iid in ("", ".", "..") or "/" in iid or "\\" in iid or "\0" in iid \
            or not _is_utf8(iid):
        raise ValueError(f"instance id {iid!r} is not a plain file name")
    source = raw["source"]
    if not source:
        raise ValueError(f"instance {iid!r} has an empty source")
    # A regular field passes an inline type and range test; only the rest go
    # through _number, which formats the message. Both bounds keep an int
    # too large for a float on _number's path, which rejects it. A dur_ms
    # that underflows to 0.0 seconds raises SourceChunk's own error.
    chunks = []
    for entry in source:
        dur_ms = entry["dur_ms"]
        if type(dur_ms) is not float and type(dur_ms) is not int \
                or not 0 < dur_ms <= _FLOAT_MAX:
            dur_ms = _number(dur_ms, f"instance {iid!r} dur_ms")
            if not dur_ms > 0:
                raise ValueError(f"instance {iid!r} has non-positive dur_ms {dur_ms}")
        duration_s = dur_ms / 1000.0
        token = entry["token"]
        if type(token) is not int or not -2**63 <= token < 2**63:
            token = _number(token, f"instance {iid!r} token", int)
        chunks.append(SourceChunk(duration_s, token))
    reference = tuple(
        t if type(t) is int and -2**63 <= t < 2**63
        else _number(t, f"instance {iid!r} reference token", int)
        for t in raw["reference"])
    return StreamInstance(id=iid, source_chunks=tuple(chunks),
                          reference=reference)
