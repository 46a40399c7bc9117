"""Corpus BLEU against a brute-force counting oracle."""

import math
import random

import pytest

from emma_stream.metrics import corpus_bleu, tokenize_13a


# -- oracle: clipped n-gram matching by explicit scan, no Counter machinery ---

def oracle_components(hyp_token_lists, ref_token_lists):
    """Precisions of orders 1-4, sys_len and ref_len from the scan counts."""
    correct = [0] * 5
    total = [0] * 5
    sys_len = 0
    ref_len = 0
    for h, r in zip(hyp_token_lists, ref_token_lists):
        sys_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            hgrams = [tuple(h[i:i + n]) for i in range(len(h) - n + 1)]
            rgrams = [tuple(r[i:i + n]) for i in range(len(r) - n + 1)]
            total[n] += len(hgrams)
            used = [False] * len(rgrams)
            for g in hgrams:
                for k, rg in enumerate(rgrams):
                    if not used[k] and rg == g:
                        used[k] = True
                        correct[n] += 1
                        break
    precisions = [0.0] * 5
    smooth = 1.0
    for n in range(1, 5):
        if total[n] == 0:
            break
        if correct[n] == 0:
            smooth *= 2.0
            precisions[n] = 100.0 / (smooth * total[n])
        else:
            precisions[n] = 100.0 * correct[n] / total[n]
    return precisions[1:], sys_len, ref_len


def oracle_brevity_penalty(sys_len, ref_len):
    return 1.0 if sys_len >= ref_len else math.exp(1.0 - ref_len / sys_len)


def oracle_bleu(hyp_token_lists, ref_token_lists):
    precisions, sys_len, ref_len = oracle_components(hyp_token_lists,
                                                     ref_token_lists)
    if sys_len == 0:
        return 0.0
    bp = oracle_brevity_penalty(sys_len, ref_len)
    logs = 0.0
    for p in precisions:
        logs += math.log(p) if p > 0 else -9999999999.0
    return bp * math.exp(logs / 4.0)


def test_identity_scores_hundred():
    sents = [["the", "cat", "sat", "on", "the", "mat"],
             ["a", "small", "step"]]
    report = corpus_bleu(sents, sents)
    assert report.bleu == pytest.approx(100.0, abs=1e-9)
    assert report.brevity_penalty == 1.0
    assert report.precisions == (100.0, 100.0, 100.0, 100.0)


def test_zero_overlap_hits_smoothing_floor():
    report = corpus_bleu([["x", "y", "z", "w"]], [["a", "b", "c", "d"]])
    # every order smoothed: small but nonzero by design of exp smoothing
    assert 0.0 < report.bleu < 15.0
    assert report.precisions[0] == pytest.approx(100.0 / (2 * 4))


def test_empty_hypothesis_scores_zero():
    report = corpus_bleu([[]], [["a", "b"]])
    assert report.bleu == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        corpus_bleu([["a"]], [["a"], ["b"]])


def test_brevity_penalty_applied():
    report = corpus_bleu([["a", "b"]], [["a", "b", "c", "d"]])
    assert report.brevity_penalty == pytest.approx(math.exp(1.0 - 4.0 / 2.0))


def test_report_recomposes_from_components():
    report = corpus_bleu([["a", "b", "c", "b", "a"]], [["a", "b", "c", "d"]])
    # BP times the geometric mean of the four precisions; none is zero here
    assert all(p > 0.0 for p in report.precisions)
    logs = sum(math.log(p) for p in report.precisions) / 4
    assert report.bleu == pytest.approx(
        report.brevity_penalty * math.exp(logs), abs=1e-9)


def test_matches_oracle_on_random_pairs():
    rng = random.Random(1234)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    hyps, refs = [], []
    for _ in range(20):
        n_h = rng.randint(1, 9)
        n_r = rng.randint(1, 9)
        hyps.append([rng.choice(vocab) for _ in range(n_h)])
        refs.append([rng.choice(vocab) for _ in range(n_r)])
    got = corpus_bleu(hyps, refs)
    assert got.bleu == pytest.approx(oracle_bleu(hyps, refs), abs=1e-6)


def test_matches_oracle_pair_by_pair():
    rng = random.Random(77)
    vocab = list("abcdef")
    for _ in range(50):
        h = [rng.choice(vocab) for _ in range(rng.randint(0, 7))]
        r = [rng.choice(vocab) for _ in range(rng.randint(1, 7))]
        assert corpus_bleu([h], [r]).bleu == pytest.approx(
            oracle_bleu([h], [r]), abs=1e-6)


def test_components_equal_the_oracle_scan_counts():
    # short and empty hypotheses leave higher orders without candidates
    rng = random.Random(4321)
    vocab = list("abcde")
    corpora = [([[]], [["a", "b"]]), ([["a"], []], [["a"], ["b", "c"]]),
               ([["a", "b", "a"]], [["b", "a", "b", "a"]])]
    for _ in range(300):
        size = rng.randint(1, 4)
        corpora.append((
            [[rng.choice(vocab) for _ in range(rng.randint(0, 9))]
             for _ in range(size)],
            [[rng.choice(vocab) for _ in range(rng.randint(1, 9))]
             for _ in range(size)]))
    # exact copies (empty, short and long) skip the counting; mix them with
    # differing pairs
    copies = [[], ["a"], ["a", "b"], ["b", "b", "b"], [1, 2, 1],
              [rng.choice(vocab) for _ in range(40)]]
    for _ in range(200):
        pairs = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                copy = rng.choice(copies)
                pairs.append((tuple(copy), list(copy)))
            else:
                pairs.append(([rng.choice(vocab)
                               for _ in range(rng.randint(0, 9))],
                              [rng.choice(vocab)
                               for _ in range(rng.randint(1, 9))]))
        corpora.append(tuple(list(side) for side in zip(*pairs)))
    for hyps, refs in corpora:
        got = corpus_bleu(hyps, refs)
        precisions, sys_len, ref_len = oracle_components(hyps, refs)
        assert got.precisions == tuple(precisions)
        assert (got.sys_len, got.ref_len) == (sys_len, ref_len)
        assert got.brevity_penalty == (
            oracle_brevity_penalty(sys_len, ref_len) if sys_len else 0.0)


def test_clipping_limits_repeated_tokens():
    # "the" appears twice in the reference; a fourfold hypothesis clips to 2
    report = corpus_bleu([["the", "the", "the", "the"]],
                         [["the", "cat", "the", "mat"]])
    assert report.precisions[0] == pytest.approx(100.0 * 2 / 4)


def test_corpus_order_invariance():
    rng = random.Random(5)
    vocab = list("abcd")
    hyps = [[rng.choice(vocab) for _ in range(rng.randint(1, 6))] for _ in range(10)]
    refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 6))] for _ in range(10)]
    base = corpus_bleu(hyps, refs).bleu
    order = list(range(10))
    rng.shuffle(order)
    shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]).bleu
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_integer_token_sequences_supported():
    assert corpus_bleu([[1, 2, 3, 4]], [[1, 2, 3, 4]]).bleu == pytest.approx(100.0)


def test_13a_tokenization_splits_punctuation():
    assert tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]
    assert tokenize_13a("it's  fine") == ["it", "'", "s", "fine"]
    # case preserved
    assert tokenize_13a("Mixed CASE") == ["Mixed", "CASE"]


def test_string_inputs_are_tokenized():
    report = corpus_bleu(["the cat, sat"], ["the cat, sat"])
    assert report.bleu == pytest.approx(100.0)
    assert report.sys_len == 4
