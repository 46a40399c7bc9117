"""The fused policy-head tape ops and the ops of the objective's tail:
adjoints against central differences, values against the numpy route, and
the objective's node count."""

import numpy as np
import pytest

from emma_stream.emma import (LossWeights, attention_energies, emma_objective,
                              pack_parameters, stepwise_probability)
from emma_stream.emma import objective as objective_module
from emma_stream.emma.params import (parameter_slots, random_head,
                                     random_readout, random_states)
from emma_stream.errors import DomainError, ShapeError
from emma_stream.numerics import Tape, central_difference_gradient

H = 1e-6


def head_problem(depth, n_heads, seed, n_source=5, n_target=4, d=4, d_k=3):
    """Flat parameters of ``n_heads`` heads of FFN depth ``depth`` (each with
    its own temperature), their slots, and the states."""
    rng = np.random.default_rng(seed)
    heads = [random_head(rng, d, d_k, depth=depth,
                         bias=float(rng.uniform(-1.5, 0.0)),
                         temperature=float(rng.uniform(0.5, 2.0)), scale=0.4)
             for _ in range(n_heads)]
    readout = random_readout(rng, 2, 3, scale=0.4)
    states = random_states(rng, n_source, n_target, d, 2)
    slots, _ = parameter_slots(heads, readout)
    return heads, pack_parameters(heads, readout), slots, states, rng


def check_against_central_differences(record, theta):
    """``record(theta) -> (tape, theta leaf, scalar node)``."""
    t, leaf, out = record(theta)
    analytic = t.backward(out)[leaf.index].ravel()
    central = central_difference_gradient(lambda th: record(th)[2].item(),
                                          theta, h=H)
    assert np.allclose(analytic, central, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("force", [False, True])
def test_stepwise_adjoint_matches_central_differences(depth, n_heads, force):
    _, theta, slots, states, rng = head_problem(depth, n_heads, 10 * depth + n_heads)
    w = rng.standard_normal((n_heads * states.target_len, states.source_len))

    def record(th):
        t = Tape()
        leaf = t.leaf(th)
        p = t.stepwise(leaf, states.s, states.h, slots)
        alpha = t.monotonic_alignment(p, force, heads=n_heads)
        return t, leaf, t.sum(t.mul(alpha, t.constant(w)))

    check_against_central_differences(record, theta)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("force", [False, True])
def test_energies_adjoint_matches_central_differences(depth, n_heads, force):
    # through the lookback attention, which does not see the detached row
    # max, so the central differences see the op's documented gradient
    _, theta, slots, states, rng = head_problem(depth, n_heads, 20 * depth + n_heads)
    shape = (n_heads * states.target_len, states.source_len)
    p = rng.uniform(0.05, 0.95, size=shape)
    w = rng.standard_normal(shape)

    def record(th):
        t = Tape()
        leaf = t.leaf(th)
        alpha = t.monotonic_alignment(t.constant(p), force, heads=n_heads)
        beta = t.lookback_attention(alpha, t.energies(leaf, states.s, states.h, slots))
        return t, leaf, t.sum(t.mul(beta, t.constant(w)))

    check_against_central_differences(record, theta)


@pytest.mark.parametrize("n_heads", [1, 2])
def test_fused_ops_on_parameter_rows_match_central_differences(n_heads):
    # a 3-row leaf: three parameter vectors of one layout, 3 H heads in one
    # stepwise, energies, alignment and lookback node
    _, theta, slots, states, rng = head_problem(2, n_heads, 40 + n_heads)
    theta = theta + 0.2 * rng.standard_normal((3, theta.size))
    w = rng.standard_normal((3 * n_heads * states.target_len, states.source_len))

    def record(th):
        t = Tape()
        leaf = t.leaf(th.reshape(3, -1))
        alpha = t.monotonic_alignment(
            t.stepwise(leaf, states.s, states.h, slots), heads=3 * n_heads)
        beta = t.lookback_attention(alpha, t.energies(leaf, states.s, states.h, slots))
        return t, leaf, t.sum(t.mul(t.add(alpha, beta), t.constant(w)))

    check_against_central_differences(record, theta.ravel())


@pytest.mark.parametrize("n_heads", [1, 3])
def test_fused_forwards_are_the_per_head_formulas(n_heads):
    heads, theta, slots, states, _ = head_problem(2, n_heads, 5)
    t = Tape()
    leaf = t.leaf(theta)
    p = t.stepwise(leaf, states.s, states.h, slots).value
    e = t.energies(leaf, states.s, states.h, slots).value
    n = states.target_len
    for k, head in enumerate(heads):
        rows = slice(k * n, (k + 1) * n)
        assert np.abs(p[rows] - stepwise_probability(head, states)).max() <= 1e-12
        assert np.abs(e[rows] - attention_energies(head, states)).max() <= 1e-12


def test_tail_op_adjoints_match_central_differences():
    rng = np.random.default_rng(8)
    theta = rng.standard_normal(40)
    x = rng.standard_normal((6, 3))
    targets = [2, 0, 4, 4, 1, 3]
    ideal = np.array([0.0, 1.5])
    # scales four logit rows down to the size of alignment rows
    scale = rng.uniform(0.05, 0.2, size=(4, 5))

    def record(th):
        t = Tape()
        leaf = t.leaf(th)
        logits = t.affine(t.constant(x), leaf, (5, 3, 5), (30, 1, 5))
        alpha = t.mul(t.rows(logits, 1, 5), t.constant(scale))
        moments = t.delay_moments(alpha, ideal)
        weights = t.constant([[0.7], [0.3]])
        return t, leaf, t.add(t.cross_entropy(logits, targets),
                              t.matmul(moments, weights))

    check_against_central_differences(record, theta)


def test_tail_ops_values():
    rng = np.random.default_rng(9)
    t = Tape()
    theta = t.leaf(rng.standard_normal(20))
    x = rng.standard_normal((3, 2))
    out = t.affine(t.constant(x), theta, (4, 2, 3), (10, 1, 3))
    w = theta.value[0, 4:10].reshape(2, 3)
    assert np.array_equal(out.value, x @ w + theta.value[:, 10:13])
    logits = rng.standard_normal((3, 4))
    nll = t.cross_entropy(t.constant(logits), [1, 3, 0])
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    assert abs(nll.item() + log_probs[[0, 1, 2], [1, 3, 0]].sum()) <= 1e-12
    alpha = rng.uniform(size=(4, 5)) / 5
    moments = t.delay_moments(t.constant(alpha), [1.0, 2.0])
    j = np.arange(1.0, 6.0)
    d = alpha @ j
    assert np.allclose(moments.value, [[np.mean(d - [1.0, 2.0, 1.0, 2.0]),
                                        np.mean(alpha @ (j * j) - d * d)]],
                       rtol=1e-14, atol=0.0)
    assert np.array_equal(moments.saved[0], d)


def test_fused_ops_reject_bad_arguments():
    heads, theta, slots, states, _ = head_problem(2, 2, 3)
    t = Tape()
    leaf = t.leaf(theta)
    with pytest.raises(ShapeError):
        t.stepwise(t.leaf(theta[:10]), states.s, states.h, slots)
    with pytest.raises(ShapeError):
        t.energies(leaf, states.s, states.h[:, :2], slots)
    with pytest.raises(ShapeError):
        t.affine(t.constant(np.ones((2, 3))), leaf, (0, 4, 2), (8, 1, 2))
    with pytest.raises(ShapeError):
        t.affine(t.constant(np.ones((2, 3))), leaf, (theta.size - 2, 3, 2), (0, 1, 2))
    with pytest.raises(ValueError):
        t.cross_entropy(t.constant(np.zeros((2, 3))), [0, 3])
    with pytest.raises(DomainError):
        t.cross_entropy(t.constant([[0.0, -800.0]]), [0])
    with pytest.raises(ShapeError):
        t.delay_moments(t.constant(np.ones((5, 3))), [0.0, 1.0])
    with pytest.raises(ShapeError):
        t.monotonic_alignment(t.constant(np.full((5, 3), 0.5)), heads=2)
    with pytest.raises(ValueError, match="share one shape"):
        parameter_slots([heads[0], random_head(np.random.default_rng(0), 4, 2)],
                        random_readout(np.random.default_rng(0), 2, 3))


@pytest.mark.parametrize("n_source,n_target", [(6, 4), (64, 16), (512, 128)])
def test_objective_records_at_most_30_nodes(monkeypatch, n_source, n_target):
    tapes = []

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(objective_module, "Tape", RecordingTape)
    rng = np.random.default_rng(1)
    heads = [random_head(rng, 8, 4, bias=-1.0, temperature=1.0) for _ in range(2)]
    readout = random_readout(rng, 3, 6)
    states = random_states(rng, n_source, n_target, 8, 3)
    targets = rng.integers(0, 6, size=n_target)
    res = emma_objective(heads, states, targets, LossWeights(0.5, 0.1), readout)
    assert np.all(np.isfinite(res.gradient))
    assert len(tapes) == 1 and len(tapes[0]) <= 30
