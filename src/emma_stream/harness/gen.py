"""Synthetic copy-corpus generator for demos and tests."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["generate_corpus", "write_corpus"]


def generate_corpus(n_instances: int, length: int, chunk_ms: float,
                    vocab: int = 100, seed: int = 0) -> list[dict]:
    """Copy-task instances: the reference repeats the source payloads.

    Every chunk carries the same duration, so an instance lasts
    length * chunk_ms milliseconds.
    """
    if n_instances < 1 or length < 1:
        raise ValueError("need at least one instance and one chunk")
    if not 0 < chunk_ms < math.inf:
        raise ValueError(f"chunk_ms must be positive and finite, got {chunk_ms}")
    if vocab < 1:
        raise ValueError("vocab must be positive")
    if seed < 0:
        raise ValueError("seed must be at least 0")
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(n_instances):
        payloads = [int(t) for t in rng.integers(0, vocab, size=length)]
        corpus.append({
            "id": f"inst-{i:04d}",
            "source": [{"dur_ms": chunk_ms, "token": t} for t in payloads],
            "reference": payloads,
        })
    return corpus


def write_corpus(corpus: list[dict], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for entry in corpus:
            fh.write(json.dumps(entry) + "\n")
    return path
