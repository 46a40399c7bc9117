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
    """``record(theta) -> (tape, leaves, scalar node)``, the leaves holding
    the entries of ``theta`` in order."""
    t, leaves, out = record(theta)
    grads = t.backward(out)
    analytic = np.concatenate([grads[leaf.index].ravel() for leaf in leaves])
    central = central_difference_gradient(
        lambda probes: [record(th)[2].value.item() for th in probes], theta, h=H)
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
        return t, (leaf,), t.sum(t.mul(alpha, t.leaf(w)))

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
        alpha = t.monotonic_alignment(t.leaf(p), force, heads=n_heads)
        beta = t.lookback_attention(alpha, t.energies(leaf, states.s, states.h, slots))
        return t, (leaf,), t.sum(t.mul(beta, t.leaf(w)))

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
        return t, (leaf,), t.sum(t.mul(t.add(alpha, beta), t.leaf(w)))

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


def tail_problem(seed, n_blocks=3, heads=2, n_target=3, n_source=4):
    """Parameter rows, alignments, values, targets, ideal delays and loss
    weights of ``n_blocks`` settings whose ``heads`` heads are stacked by row."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n_blocks, 40)),
            rng.uniform(0.02, 0.2, size=(n_blocks * heads * n_target, n_source)),
            rng.standard_normal((n_source, 3)),
            rng.integers(0, 5, size=n_target),
            np.arange(n_target) * n_source / n_target,
            rng.uniform(0.1, 1.0, size=(n_blocks, 2)), rng)


# the readout's slots in a 40-entry parameter row: W 3 x 5, b 1 x 5
W_SLOT, B_SLOT = (5, 3, 5), (30, 1, 5)


def test_tail_op_adjoints_match_central_differences():
    # three blocks, each of two heads, through every tail op; the blocks'
    # losses are weighted unequally, so each block's own upstream gradient
    # reaches its rows
    params, alpha, v, targets, ideal, weights, rng = tail_problem(8)
    out_w = rng.uniform(0.5, 2.0, size=(3, 1))

    def record(th):
        t = Tape()
        p_leaf = t.leaf(th[:params.size].reshape(params.shape))
        a_leaf = t.leaf(th[params.size:].reshape(alpha.shape))
        logits = t.readout(a_leaf, p_leaf, v, 2, W_SLOT, B_SLOT)
        loss = t.add(t.cross_entropy(logits, targets),
                     t.delay_moments(a_leaf, ideal, weights))
        return t, (p_leaf, a_leaf), t.sum(t.mul(loss, t.leaf(out_w)))

    check_against_central_differences(
        record, np.concatenate([params.ravel(), alpha.ravel()]))


def test_tail_ops_values():
    # each block's output row is that block's own one-block value, bit for bit
    params, alpha, v, targets, ideal, weights, _ = tail_problem(9)
    t = Tape()
    theta, a = t.leaf(params), t.leaf(alpha)
    logits = t.readout(a, theta, v, 2, W_SLOT, B_SLOT)
    nll = t.cross_entropy(logits, targets)
    penalty = t.delay_moments(a, ideal, weights)
    j = np.arange(1.0, 5.0)
    for r in range(3):
        rows = alpha[6 * r:6 * r + 6]
        w = params[r, 5:20].reshape(3, 5)
        expected = (rows[:3] @ v + rows[3:] @ v) / 2 @ w + params[r, 30:35]
        assert np.allclose(logits.value[3 * r:3 * r + 3], expected,
                           rtol=1e-14, atol=1e-14)
        log_probs = expected - np.log(np.exp(expected).sum(axis=1, keepdims=True))
        assert abs(nll.value[r, 0] + log_probs[[0, 1, 2], targets].sum()) <= 1e-12
        d = rows @ j
        moments = [np.mean(d - np.tile(ideal, 2)), np.mean(rows @ (j * j) - d * d)]
        assert np.allclose(penalty.saved[0][r], moments, rtol=1e-14, atol=0.0)
        assert np.array_equal(penalty.saved[1][r], d)
        assert abs(penalty.value[r, 0] - weights[r] @ moments) <= 1e-14

        one = Tape()
        one_logits = one.readout(one.leaf(rows), one.leaf(params[r]), v, 2,
                                 W_SLOT, B_SLOT)
        assert np.array_equal(one_logits.value, logits.value[3 * r:3 * r + 3])
        assert one.cross_entropy(one_logits, targets).value.item() == nll.value[r, 0]
        assert one.delay_moments(one.leaf(rows), ideal, weights[r]).value.item() \
            == penalty.value[r, 0]


def test_fused_ops_reject_bad_arguments():
    heads, theta, slots, states, _ = head_problem(2, 2, 3)
    t = Tape()
    leaf = t.leaf(theta)
    with pytest.raises(ShapeError):
        t.stepwise(t.leaf(theta[:10]), states.s, states.h, slots)
    with pytest.raises(ShapeError):
        t.energies(leaf, states.s, states.h[:, :2], slots)
    # the tail ops on two parameter rows, two heads of two target rows each
    rows = t.leaf(np.stack([theta, theta]))
    beta = t.leaf(np.full((8, 3), 0.1))
    v = np.ones((3, 2))
    for bad_beta, bad_v, n_heads, w_slot, b_slot in (
            (beta, v, 2, (0, 3, 2), (8, 1, 2)),  # W rows are not v's columns
            (beta, v, 2, (theta.size - 2, 2, 2), (0, 1, 2)),  # W past the row
            (beta, v, 2, (0, 2, 2), (8, 2, 2)),  # b is not one row
            (beta, v, 3, (0, 2, 2), (8, 1, 2)),  # 3 heads do not divide 4 rows
            (beta, v, 0, (0, 2, 2), (8, 1, 2)),
            (beta, np.ones((4, 2)), 2, (0, 2, 2), (8, 1, 2)),  # v rows
            (t.leaf(np.ones((6, 3))), v, 2, (0, 2, 2), (8, 1, 2))):
        with pytest.raises(ShapeError):
            t.readout(bad_beta, rows, bad_v, n_heads, w_slot, b_slot)
    for targets in ([0, 3], [0, 1, 2], []):  # out of range, not dividing
        with pytest.raises(ValueError):
            t.cross_entropy(t.leaf(np.zeros((4, 3))), targets)
    with pytest.raises(DomainError):
        t.cross_entropy(t.leaf([[0.0, 1.0], [0.0, -800.0]]), [0])
    alpha = t.leaf(np.ones((8, 3)))
    for ideal, weights in (([0.0, 1.0, 2.0], [[1.0, 0.0]] * 2),  # 3 per head
                           ([0.0, 1.0], [[1.0, 0.0]] * 3),  # 3 blocks of 8 rows
                           ([0.0, 1.0], [[1.0, 0.0, 0.0]] * 2),  # not pairs
                           ([], [[1.0, 0.0]] * 2)):
        with pytest.raises(ShapeError):
            t.delay_moments(alpha, ideal, weights)
    with pytest.raises(ShapeError):
        t.monotonic_alignment(t.leaf(np.full((5, 3), 0.5)), heads=2)
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
