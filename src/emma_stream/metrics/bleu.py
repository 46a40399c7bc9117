"""Corpus BLEU-4 with exponential smoothing.

Case-sensitive, single reference per hypothesis. Text inputs go through a
simplified 13a-style tokenizer (punctuation split from word characters,
then whitespace split); token-list inputs are scored as-is. Zero n-gram
match counts are smoothed by successive halving of the precision
(exponential smoothing); n-gram orders with no candidates at all end the
precision ladder and score as hard zeros.

All n-gram orders of a sentence are counted in one Counter. A hypothesis
equal to its reference skips the counting: its clipped matches of order n
are its len - n + 1 n-grams. Every count is an integer, so neither the
order of counting nor the shortcut can change a score.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

__all__ = ["QualityReport", "tokenize_13a", "corpus_bleu"]

MAX_ORDER = 4
# stands in for log(0); drives exp() to a hard 0.0 without raising
_LOG_ZERO = -9999999999.0

_PUNCT = re.compile(r"([^\w\s])")


def tokenize_13a(text: str) -> list[str]:
    """Separate punctuation from word characters, then split on whitespace.

    A simplification of the mteval-13a scheme: no unicode category tables,
    no language-specific exceptions.
    """
    return _PUNCT.sub(r" \1 ", text).split()


@dataclass(frozen=True)
class QualityReport:
    """Corpus BLEU with the components it was assembled from."""

    bleu: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    sys_len: int
    ref_len: int


def _log_or_floor(x: float) -> float:
    return math.log(x) if x > 0.0 else _LOG_ZERO


def _as_tokens(entry) -> list:
    if isinstance(entry, str):
        return tokenize_13a(entry)
    return list(entry)


def _ngram_counts(tokens: Sequence) -> Counter:
    """Counts of every n-gram of orders 1..MAX_ORDER in one Counter; an
    n-gram is the tuple of its tokens, so its order is its length."""
    return Counter(chain.from_iterable(
        zip(*(tokens[i:] for i in range(n))) for n in range(1, MAX_ORDER + 1)))


def corpus_bleu(hypotheses: Sequence, references: Sequence) -> QualityReport:
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references")
    correct = [0] * (MAX_ORDER + 1)
    total = [0] * (MAX_ORDER + 1)
    sys_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h = _as_tokens(hyp)
        r = _as_tokens(ref)
        sys_len += len(h)
        ref_len += len(r)
        for n in range(1, min(len(h), MAX_ORDER) + 1):
            total[n] += len(h) - n + 1
        if h == r:  # an exact copy matches each of its n-grams once
            for n in range(1, min(len(h), MAX_ORDER) + 1):
                correct[n] += len(h) - n + 1
            continue
        # the intersection keeps min(hypothesis count, reference count)
        for gram, match in (_ngram_counts(h) & _ngram_counts(r)).items():
            correct[len(gram)] += match

    precisions = [0.0] * (MAX_ORDER + 1)
    smooth = 1.0
    for n in range(1, MAX_ORDER + 1):
        if total[n] == 0:
            break
        if correct[n] == 0:
            smooth *= 2.0
            precisions[n] = 100.0 / (smooth * total[n])
        else:
            precisions[n] = 100.0 * correct[n] / total[n]

    if sys_len == 0:
        bp = 0.0
        score = 0.0
    else:
        bp = 1.0 if sys_len >= ref_len else math.exp(1.0 - ref_len / sys_len)
        logs = sum(_log_or_floor(p) for p in precisions[1:]) / MAX_ORDER
        score = bp * math.exp(logs)
    return QualityReport(
        bleu=score,
        precisions=tuple(precisions[1:]),
        brevity_penalty=bp,
        sys_len=sys_len,
        ref_len=ref_len)
