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

from ..emma.params import FeedForward, PolicyHeadParams
from ..numerics.policy import ffn_forward
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

    The heads share one layout, so their FFN layers are stacked once and a
    new row goes through all H heads in one ``ffn_forward``. The projected
    rows are cached stacked: key rows ``ffn_h(embed(payload))`` by payload
    as one (H, d_k, 1) array, query rows ``ffn_s(embed(position, last
    token))`` by that pair as one (H, 1, d_k) array, so a query is two
    lookups and one stacked matmul for all H logits. numpy runs the same
    kernels on every slice, so each row and logit equals its head's own
    ``(ffn_s.apply(s) @ ffn_h.apply(h).T).item()`` bit for bit. The
    probabilities depend only on (written, last token, last payload),
    never on the instance, so one model serves a whole corpus and may be
    shared by threads: a race can only compute the same rows twice.

    The answers are memoized by that triple, so a repeated state costs one
    lookup. ``model_factory`` builds one model per top-level call, so the
    memo holds at most one entry per policy query of the call and is freed
    with it. The answer is the memo's tuple itself, so a repeated state
    returns the same object, which no caller can mutate.
    """

    def __init__(self, heads: list[PolicyHeadParams], d: int, seed: int):
        if not heads:
            raise ValueError("need at least one trained head")
        self.heads = list(heads)
        self.n_heads = len(self.heads)
        self.d = d
        self.seed = seed
        self._ffn_s = _stacked([head.ffn_s for head in self.heads])
        self._ffn_h = _stacked([head.ffn_h for head in self.heads])
        self._scales = [(head.bias, head.temperature) for head in self.heads]
        self._key_cache: dict[int, np.ndarray] = {}
        self._query_cache: dict[tuple[int, int], np.ndarray] = {}
        self._memo: dict[tuple[int, int, int], tuple[float, ...]] = {}

    def head_probabilities(self, states, prefix: Sequence[int]) -> tuple[float, ...]:
        written, consumed = len(prefix), states.n
        if written >= consumed:
            return (0.0,) * self.n_heads
        key = (written, prefix[-1] if written else EOS_TOKEN,
               states.items[consumed - 1].payload)
        probs = self._memo.get(key)
        if probs is None:
            probs = self._memo[key] = self._probabilities(states, prefix)
        return probs

    def _rows(self, layers, *parts) -> np.ndarray:
        """(H, 1, d_k): every head's FFN of the row embedded from ``parts``."""
        row = _hash_rng(self.seed, *parts).standard_normal((1, self.d))
        return ffn_forward(row, layers)[-1]

    def _probabilities(self, states, prefix: Sequence[int]) -> tuple[float, ...]:
        written = len(prefix)
        query = (written, prefix[-1] if written else EOS_TOKEN)
        payload = states.items[states.n - 1].payload
        queries = self._query_cache.get(query)
        if queries is None:
            queries = self._query_cache[query] = self._rows(
                self._ffn_s, "dec", *query)
        keys = self._key_cache.get(payload)
        if keys is None:
            keys = self._key_cache[payload] = self._rows(
                self._ffn_h, "src", payload).reshape(self.n_heads, -1, 1)
        return tuple(
            _sigmoid((logit + bias) / temperature)
            for logit, (bias, temperature) in zip(
                np.matmul(queries, keys).ravel().tolist(), self._scales))


def _stacked(ffns: list[FeedForward]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The layers of equally shaped FFNs as H-stacked (weight, bias) pairs."""
    return [(np.stack(weights), np.stack(biases)) for weights, biases in zip(
        zip(*(f.weights for f in ffns), strict=True),
        zip(*(f.biases for f in ffns), strict=True))]


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
