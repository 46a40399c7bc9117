"""The monotonic_alignment and lookback_attention tape ops: speech-like sizes,
adjoints against central differences, and oracle agreement."""

import numpy as np
import pytest

from emma_stream.emma import alignment_recursive, beta_recursive
from emma_stream.errors import DomainError, ShapeError
from emma_stream.numerics import Tape, central_difference_gradient
from emma_stream.numerics.monotonic import (alignment_adjoint, alignment_forward,
                                           lookback_forward)
from test_tape import weighted_gradients

H = 1e-6


def align(p, force_last_column=False):
    """One head's alignment: the forward's H = 1 case."""
    return alignment_forward(p[None], force_last_column)[0][0]


def probabilities(rng, regime, shape):
    """Stepwise probabilities near 0, near 1, or with exact 0/1 entries."""
    if regime == "near0":
        return rng.uniform(0.0, 1e-3, size=shape)
    if regime == "near1":
        return 1.0 - rng.uniform(0.0, 1e-3, size=shape)
    p = rng.uniform(0.0, 1.0, size=shape)
    pick = rng.random(shape)
    p[pick < 0.25] = 0.0
    p[pick > 0.75] = 1.0
    return p


def tape_gradients(p, e, w, force_last_column):
    """Gradients of sum(w * beta) through both ops, and of sum(w * alpha)
    through the alignment op alone, ``w`` handed to each op's adjoint."""
    t = Tape()
    p_leaf, e_leaf = t.leaf(p), t.leaf(e)
    alpha = t.monotonic_alignment(p_leaf, force_last_column)
    beta = t.lookback_attention(alpha, e_leaf)
    align_grads = weighted_gradients(t, alpha, w)
    beta_grads = weighted_gradients(t, beta, w)
    return (align_grads[p_leaf.index], beta_grads[p_leaf.index],
            beta_grads[e_leaf.index])


@pytest.mark.parametrize("n_source", [512, 1024])
@pytest.mark.parametrize("regime", ["near0", "near1", "exact"])
def test_speech_sizes_finite_with_bounded_mass(n_source, regime):
    rng = np.random.default_rng(n_source + len(regime))
    n_target = 128
    p = probabilities(rng, regime, (n_target, n_source))
    e = np.exp(rng.standard_normal((n_target, n_source)))
    w = rng.standard_normal((n_target, n_source))
    for force in (False, True):
        alpha = align(p, force)
        assert np.all(np.isfinite(alpha))
        assert np.all(alpha >= 0.0)
        mass = alpha.sum(axis=1)
        assert mass.max() <= 1.0 + 1e-12
        if force:
            assert np.abs(mass - 1.0).max() <= 1e-12
        beta = lookback_forward(alpha, e)[0]
        assert np.all(np.isfinite(beta))
        assert np.abs(beta.sum(axis=1) - mass).max() <= 1e-12
        for grad in tape_gradients(p, e, w, force):
            assert np.all(np.isfinite(grad))


@pytest.mark.parametrize("regime", ["near0", "near1", "exact"])
def test_speech_size_slice_matches_recursive_oracle(regime):
    rng = np.random.default_rng(7 + len(regime))
    p = probabilities(rng, regime, (4, 1024))
    for force in (False, True):
        got = align(p, force)
        assert np.abs(got - alignment_recursive(p, force)).max() <= 1e-10


def test_lookback_matches_oracle_at_speech_width():
    rng = np.random.default_rng(3)
    alpha = align(probabilities(rng, "exact", (3, 512)))
    e = np.exp(rng.standard_normal((3, 512)))
    assert np.abs(lookback_forward(alpha, e)[0]
                  - beta_recursive(alpha, e)).max() <= 1e-10


def cellwise_alignment(p, grad, force_last_column):
    """One head's alignment and its adjoint, cell by cell on Python floats,
    each cell's operations in the wavefront kernels' order:

        q = (1 - p[i][j-1]) q[i][j-1] + alpha[i-1][j],  alpha = p q;
        D = (grad + Q[i+1][j]) - Q[i][j+1],  dp = q D,  Q = Q[i][j+1] + p D,

    with p, q and Q taken as 0 off the grid and alpha[-1] the one-hot start."""
    p = [list(row) for row in p]
    n_target, n_source = len(p), len(p[0])
    if force_last_column:
        for row in p:
            row[-1] = 1.0
    q = [[0.0] * n_source for _ in range(n_target)]
    alpha = [[0.0] * n_source for _ in range(n_target)]
    for i in range(n_target):
        for j in range(n_source):
            above = alpha[i - 1][j] if i else float(j == 0)
            p_left, q_left = (p[i][j - 1], q[i][j - 1]) if j else (0.0, 0.0)
            q[i][j] = (1.0 - p_left) * q_left + above
            alpha[i][j] = p[i][j] * q[i][j]
    q_adj = [[0.0] * (n_source + 1) for _ in range(n_target + 1)]
    dp = [[0.0] * n_source for _ in range(n_target)]
    for i in reversed(range(n_target)):
        for j in reversed(range(n_source)):
            d = (grad[i][j] + q_adj[i + 1][j]) - q_adj[i][j + 1]
            dp[i][j] = q[i][j] * d
            q_adj[i][j] = q_adj[i][j + 1] + p[i][j] * d
        if force_last_column:
            dp[i][-1] = 0.0
    return alpha, dp


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 4), (5, 7), (16, 64)])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("force", [False, True])
def test_wavefront_is_the_cellwise_scan_bit_for_bit(shape, n_heads, force):
    # the kernels' floats are pinned cell by cell, whatever their layout
    rng = np.random.default_rng(shape[0] * 41 + shape[1] + 7 * n_heads + force)
    p = probabilities(rng, "exact", (n_heads,) + shape)
    grad = rng.standard_normal((n_heads,) + shape)
    alpha, ps, qs = alignment_forward(p, force)
    p_adj = alignment_adjoint(ps, qs, grad, force)
    for h in range(n_heads):
        want_alpha, want_dp = cellwise_alignment(p[h].tolist(), grad[h].tolist(), force)
        assert alpha[h].tolist() == want_alpha
        assert p_adj[h].tolist() == want_dp


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 4), (5, 7)])
@pytest.mark.parametrize("force", [False, True])
def test_adjoints_match_central_differences(shape, force):
    # exact 0/1 entries are the cells a division-based adjoint breaks on;
    # both forwards are smooth in p and e, so probes may leave [0, 1]
    rng = np.random.default_rng(shape[0] * 31 + shape[1] + 97 * force)
    p = probabilities(rng, "exact", shape)
    e = np.exp(rng.standard_normal(shape))
    w = rng.standard_normal(shape)
    align_p, beta_p, beta_e = tape_gradients(p, e, w, force)

    def align_loss(theta):
        return float((align(theta.reshape(shape), force) * w).sum())

    def beta_loss_p(theta):
        alpha = align(theta.reshape(shape), force)
        return float((lookback_forward(alpha, e)[0] * w).sum())

    alpha = align(p, force)

    def beta_loss_e(theta):
        return float((lookback_forward(alpha, theta.reshape(shape))[0] * w).sum())

    for analytic, loss, x in ((align_p, align_loss, p), (beta_p, beta_loss_p, p),
                              (beta_e, beta_loss_e, e)):
        central = central_difference_gradient(
            lambda probes: [loss(th) for th in probes], x, h=H).reshape(shape)
        assert np.allclose(analytic, central, rtol=1e-6, atol=1e-8)
    if force:
        assert np.all(align_p[:, -1] == 0.0)


def test_ops_record_one_node_each():
    t = Tape()
    p = t.leaf(np.full((6, 9), 0.3))
    e = t.leaf(np.ones((6, 9)))
    before = len(t)
    t.lookback_attention(t.monotonic_alignment(p), e)
    assert len(t) == before + 2


def test_lookback_op_rejects_bad_energies():
    t = Tape()
    alpha = t.leaf(np.full((2, 3), 0.2))
    with pytest.raises(ShapeError):
        t.lookback_attention(alpha, t.leaf(np.ones((2, 2))))
    with pytest.raises(DomainError):
        t.lookback_attention(alpha, t.leaf([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]))


@pytest.mark.parametrize("shape", [(1, 1), (6, 4), (16, 64), (128, 512)])
@pytest.mark.parametrize("n_heads", [1, 2, 3])
@pytest.mark.parametrize("force", [False, True])
def test_multi_head_forward_equals_per_head(shape, n_heads, force):
    rng = np.random.default_rng(shape[1] * 7 + n_heads + 13 * force)
    p = probabilities(rng, "exact", (n_heads,) + shape)
    e = np.exp(rng.standard_normal((n_heads,) + shape))
    per_head = [align(ph, force) for ph in p]
    assert np.array_equal(alignment_forward(p, force)[0], np.stack(per_head))

    t = Tape()
    alpha = t.monotonic_alignment(t.leaf(p.reshape(-1, shape[1])), force,
                                  heads=n_heads)
    beta = t.lookback_attention(alpha, t.leaf(e.reshape(-1, shape[1])))
    assert np.array_equal(alpha.value, np.vstack(per_head))
    assert np.array_equal(beta.value, np.vstack(
        [lookback_forward(a, eh)[0] for a, eh in zip(per_head, e)]))


@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (5, 7)])
@pytest.mark.parametrize("force", [False, True])
def test_two_head_adjoints_match_central_differences(shape, force):
    rng = np.random.default_rng(shape[0] * 17 + shape[1] + 53 * force)
    n = shape[0] * shape[1]
    theta = np.concatenate([probabilities(rng, "exact", 2 * n),
                            np.exp(rng.standard_normal(2 * n))])
    w_alpha = rng.standard_normal((2 * shape[0], shape[1]))
    w_beta = rng.standard_normal((2 * shape[0], shape[1]))

    def record(theta):
        # p, then e, each two heads stacked by row
        t = Tape()
        leaves = [t.leaf(part.reshape(2 * shape[0], shape[1]))
                  for part in np.split(theta, 2)]
        alpha = t.monotonic_alignment(leaves[0], force, heads=2)
        return t, leaves, alpha, t.lookback_attention(alpha, leaves[1])

    def loss(theta):
        _, _, alpha, beta = record(theta)
        return (w_alpha * alpha.value).sum() + (w_beta * beta.value).sum()

    # sum(w_alpha * alpha) + sum(w_beta * beta): each op's adjoint is
    # handed its weights, and the two sweeps add up
    t, leaves, alpha, beta = record(theta)
    grads = [a + b for a, b in zip(weighted_gradients(t, alpha, w_alpha),
                                   weighted_gradients(t, beta, w_beta))]
    analytic = np.concatenate([grads[leaf.index].ravel() for leaf in leaves])
    central = central_difference_gradient(
        lambda probes: [loss(th) for th in probes], theta, h=H)
    assert np.allclose(analytic, central, rtol=1e-6, atol=1e-8)
    if force:
        assert np.all(grads[leaves[0].index][:, -1] == 0.0)


def test_multi_head_ops_reject_a_bad_head():
    t = Tape()
    p = t.leaf(np.vstack([np.full((2, 3), 0.4), np.full((2, 3), 0.6)]))
    alpha = t.monotonic_alignment(p, heads=2)
    with pytest.raises(DomainError):
        # a zero energy in the second head
        t.lookback_attention(alpha, t.leaf([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                                            [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))
    with pytest.raises(ShapeError):
        t.monotonic_alignment(t.leaf(np.full((3, 4), 0.4)), heads=2)
    with pytest.raises(ShapeError):
        t.monotonic_alignment(p, heads=0)
    with pytest.raises(ShapeError):
        t.lookback_attention(alpha, t.leaf(np.ones((4, 4))))
    with pytest.raises(ShapeError):
        t.lookback_attention(alpha, t.leaf(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        t.lookback_attention(alpha, t.leaf(np.ones((6, 3))))


def test_multi_head_ops_record_one_node_each():
    t = Tape()
    p = t.leaf(np.vstack([np.full((6, 9), 0.1 * h) for h in (1, 2, 3)]))
    e = t.leaf(np.ones((18, 9)))
    before = len(t)
    beta = t.lookback_attention(t.monotonic_alignment(p, heads=3), e)
    assert len(t) == before + 2
    assert beta.value.shape == (18, 9)
