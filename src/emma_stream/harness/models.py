"""Model factories for corpus evaluation.

Three kinds: the wait-k copier (threshold-insensitive), a hash-seeded
stochastic policy (threshold-sensitive but fully deterministic, so sweeps
are reproducible across runs and worker counts), and a policy trained by
the toy objective driving hash-embedded states.

The stochastic policy is a scripted-probability model: head h at
(written, consumed) answers sigmoid(g / temperature), with g one standard
normal draw from a generator seeded by (seed, instance id, h, written,
consumed). The surface depends only on (written, consumed), which yields
the pointwise delay dominance that threshold sweeps rely on, and tokens
copy source payloads so references line up with outputs.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Sequence

import numpy as np

from ..emma.params import PolicyHeadParams
from ..runtime.models import (CopyModel, scripted_probability_model,
                              scripted_waitk_model)
from ..runtime.types import EOS_TOKEN, IncrementalModel, StreamInstance
from .manifest import model_parameters

__all__ = ["ToyPolicyModel", "model_factory"]


def _hash_rng(*parts) -> np.random.Generator:
    """Generator seeded from a stable digest of the parts.

    hashlib, not hash(): the latter is salted per process and would break
    determinism across runs and worker counts.
    """
    material = "|".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class ToyPolicyModel(CopyModel):
    """Streams with trained policy heads over hash-embedded states.

    Source payloads embed to shared d-dimensional Gaussian rows (the same
    token embeds identically in every instance); the decoder state embeds
    from (position, last committed token). The stepwise probability of each
    head is evaluated against the row of the latest consumed payload.

    Each head's projected rows are cached: key rows ``ffn_h(embed(payload))``
    by payload, query rows ``ffn_s(embed(position, last token))`` by that
    pair, so a query is two lookups and one dot product per head. The
    probabilities depend only on (written, last token, last payload), never
    on the instance, so one model serves a whole corpus and may be shared
    by threads: a race can only compute the same row twice.
    """

    def __init__(self, heads: list[PolicyHeadParams], d: int, seed: int):
        if not heads:
            raise ValueError("need at least one trained head")
        self.heads = list(heads)
        self.n_heads = len(self.heads)
        self.d = d
        self.seed = seed
        self._key_cache: dict[int, tuple[np.ndarray, ...]] = {}
        self._query_cache: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}

    def _key_rows(self, payload: int) -> tuple[np.ndarray, ...]:
        rows = self._key_cache.get(payload)
        if rows is None:
            h_row = _hash_rng(self.seed, "src", payload).standard_normal((1, self.d))
            rows = tuple(head.ffn_h.apply(h_row).T for head in self.heads)
            self._key_cache[payload] = rows
        return rows

    def _query_rows(self, prefix: Sequence[int]) -> tuple[np.ndarray, ...]:
        key = (len(prefix), prefix[-1] if prefix else EOS_TOKEN)
        rows = self._query_cache.get(key)
        if rows is None:
            s_row = _hash_rng(self.seed, "dec", *key).standard_normal((1, self.d))
            rows = tuple(head.ffn_s.apply(s_row) for head in self.heads)
            self._query_cache[key] = rows
        return rows

    def _probabilities(self, states, prefix: Sequence[int]) -> list[float]:
        return [_sigmoid(((q @ k).item() + head.bias) / head.temperature)
                for head, q, k in zip(self.heads, self._query_rows(prefix),
                                      self._key_rows(states[-1]))]


def model_factory(kind: str, parameters: dict, seed: int) -> Callable[[StreamInstance], IncrementalModel]:
    """Per-instance model constructor for a manifest's model block.

    ``toy_trained`` trains once here and returns the same model for every
    instance, so its row caches live as long as the returned constructor.
    """
    values = model_parameters(kind, parameters)
    if kind == "scripted_waitk":
        return lambda inst: scripted_waitk_model(values["k"], values["vocab_map"])
    if kind == "scripted_stochastic":
        head_ids, temperature = range(values["heads"]), values["temperature"]
        return lambda inst: scripted_probability_model(
            lambda written, consumed: [
                _sigmoid(_hash_rng(seed, inst.id, h, written, consumed)
                         .standard_normal() / temperature) for h in head_ids])
    from .training import trained_heads_for_model
    heads, d = trained_heads_for_model(values, seed)
    model = ToyPolicyModel(heads, d, seed)
    return lambda inst: model
