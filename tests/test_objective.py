"""The combined objective: value fixtures, graph consistency, gradients."""

import numpy as np
import pytest

from emma_stream.emma import (EncDecStates, LossWeights, Readout,
                              alignment_parallel, alignment_variance,
                              attention_energies, beta_parallel,
                              emma_objective, expected_delays, latency_loss,
                              pack_parameters, stepwise_probability,
                              unpack_parameters, variance_loss)
from emma_stream.emma import graph
from emma_stream.emma.params import (random_head, random_readout,
                                     random_states)
from emma_stream.numerics import Tape, finite_diff_check


def toy_instance(seed, d=8, d_k=4, d_v=3, n_heads=2, vocab=5,
                 max_source=6, max_target=4):
    rng = np.random.default_rng(seed)
    n_source = int(rng.integers(2, max_source + 1))
    n_target = int(rng.integers(2, max_target + 1))
    # gentle bias/temperature keep the sigmoids off their saturated tails,
    # where finite differences lose accuracy
    heads = [random_head(rng, d, d_k, bias=float(rng.uniform(-1.5, 0.0)),
                         temperature=1.0, scale=0.4)
             for _ in range(n_heads)]
    readout = random_readout(rng, d_v, vocab, scale=0.4)
    states = random_states(rng, n_source, n_target, d, d_v)
    targets = rng.integers(0, vocab, size=n_target)
    return heads, states, targets, readout


def test_uniform_softmax_nll():
    heads, states, _, _ = toy_instance(0)
    vocab = 4
    readout = Readout(np.zeros((3, vocab)), np.zeros((1, vocab)))
    targets = [1] * states.target_len
    res = emma_objective(heads, states, targets, LossWeights(), readout)
    assert res.loss == pytest.approx(states.target_len * np.log(4.0), rel=1e-12)
    assert res.loss == pytest.approx(res.nll)


def test_zero_weights_leave_only_nll():
    heads, states, targets, readout = toy_instance(1)
    res = emma_objective(heads, states, targets, LossWeights(), readout)
    assert res.loss == pytest.approx(res.nll, rel=1e-12)
    weighted = emma_objective(heads, states, targets,
                              LossWeights(0.7, 0.3), readout)
    assert weighted.loss == pytest.approx(
        res.nll + 0.7 * weighted.latency + 0.3 * weighted.variance, rel=1e-12)


def test_argument_errors():
    heads, states, targets, readout = toy_instance(2)
    with pytest.raises(ValueError):
        emma_objective(heads, states, targets[:-1] if len(targets) > 1 else [],
                       LossWeights(), readout)
    bad = list(targets)
    bad[0] = readout.vocab_size
    with pytest.raises(ValueError):
        emma_objective(heads, states, bad, LossWeights(), readout)
    with pytest.raises(ValueError):
        emma_objective([], states, targets, LossWeights(), readout)


def test_graph_forward_matches_array_route():
    # the tape composition must agree with the plain numpy functions
    heads, states, _, _ = toy_instance(3)
    head = heads[0]
    t = Tape()
    leaves = graph.head_leaves(t, head)
    s_const = t.constant(states.s)
    h_const = t.constant(states.h)
    p_node = graph.stepwise_nodes(t, leaves, s_const, h_const)
    alpha_node = t.monotonic_alignment(p_node)
    e_node = graph.energy_nodes(t, leaves, s_const, h_const)
    beta_node = t.lookback_attention(alpha_node, e_node)

    p = stepwise_probability(head, states)
    assert np.abs(p_node.value - p).max() <= 1e-12
    alpha = alignment_parallel(p)
    assert np.abs(alpha_node.value - alpha).max() <= 1e-12
    e = attention_energies(head, states)
    assert np.abs(e_node.value - e).max() <= 1e-12
    assert np.abs(beta_node.value - beta_parallel(alpha, e)).max() <= 1e-12


def test_forced_last_column_graph_matches():
    heads, states, _, _ = toy_instance(4)
    head = heads[0]
    t = Tape()
    leaves = graph.head_leaves(t, head)
    p_node = graph.stepwise_nodes(t, leaves, t.constant(states.s),
                                  t.constant(states.h))
    alpha_node = t.monotonic_alignment(p_node, force_last_column=True)
    alpha = alignment_parallel(stepwise_probability(head, states),
                               force_last_column=True)
    assert np.abs(alpha_node.value - alpha).max() <= 1e-12
    assert np.allclose(alpha_node.value.sum(axis=1), 1.0, atol=1e-10)


def test_feedforward_nodes_equal_feedforward_apply():
    heads, states, _, _ = toy_instance(5)
    for ffn, x in ((heads[0].ffn_s, states.s), (heads[1].ffn_h, states.h)):
        t = Tape()
        out = graph.feedforward_nodes(t, t.constant(x),
                                      [t.leaf(w) for w in ffn.weights],
                                      [t.leaf(b) for b in ffn.biases])
        assert np.array_equal(out.value, ffn.apply(x))


@pytest.mark.parametrize("seed", [3, 6])
@pytest.mark.parametrize("force", [False, True])
def test_objective_equals_numpy_route(seed, force):
    heads, states, targets, readout = toy_instance(seed, n_heads=3)
    res = emma_objective(heads, states, targets, LossWeights(0.7, 0.3), readout,
                         force_last_column=force, with_gradient=False)
    attn, latency, variance = 0.0, 0.0, 0.0
    for head in heads:
        alpha = alignment_parallel(stepwise_probability(head, states), force)
        beta = beta_parallel(alpha, attention_energies(head, states))
        attn = attn + beta @ states.v / len(heads)
        latency += latency_loss(expected_delays(alpha), states.source_len,
                                states.target_len) / len(heads)
        variance += variance_loss(alignment_variance(alpha)) / len(heads)
    logits = attn @ readout.w_out + readout.b_out
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    nll = -log_probs[np.arange(len(targets)), targets].sum()
    assert abs(res.latency - latency) <= 1e-12
    assert abs(res.variance - variance) <= 1e-12
    assert abs(res.loss - (nll + 0.7 * latency + 0.3 * variance)) <= 1e-12


def objective_value_fn(heads, states, targets, weights, readout):
    def f(theta):
        new_heads, new_readout = unpack_parameters(theta, heads, readout)
        res = emma_objective(new_heads, states, targets, weights, new_readout,
                             with_gradient=False)
        return res.loss
    return f


# seeds verified to keep every gradient coordinate above the h=1e-5
# central-difference noise floor (~4e-11 absolute); coordinates below it
# compare rounding noise, not correctness
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_gradient_matches_finite_differences(seed):
    heads, states, targets, readout = toy_instance(seed)
    weights = LossWeights(0.3, 0.2)
    theta = pack_parameters(heads, readout)
    res = emma_objective(heads, states, targets, weights, readout)
    assert res.gradient.shape == theta.shape

    f = objective_value_fn(heads, states, targets, weights, readout)
    err = finite_diff_check(f, lambda _: res.gradient, theta, h=1e-5)
    assert err <= 1e-5


def test_gradient_of_forced_variant_matches():
    heads, states, targets, readout = toy_instance(1)
    weights = LossWeights(0.5, 0.5)
    theta = pack_parameters(heads, readout)
    res = emma_objective(heads, states, targets, weights, readout,
                         force_last_column=True)

    def f(theta_):
        new_heads, new_readout = unpack_parameters(theta_, heads, readout)
        return emma_objective(new_heads, states, targets, weights, new_readout,
                              force_last_column=True, with_gradient=False).loss

    assert finite_diff_check(f, lambda _: res.gradient, theta, h=1e-5) <= 1e-5


def test_pack_unpack_roundtrip():
    heads, states, targets, readout = toy_instance(7)
    theta = pack_parameters(heads, readout)
    heads2, readout2 = unpack_parameters(theta, heads, readout)
    assert np.array_equal(pack_parameters(heads2, readout2), theta)
    r1 = emma_objective(heads, states, targets, LossWeights(), readout)
    r2 = emma_objective(heads2, states, targets, LossWeights(), readout2)
    assert r1.loss == r2.loss


def test_delay_mean_reflects_alignment():
    heads, states, targets, readout = toy_instance(8)
    res = emma_objective(heads, states, targets, LossWeights(), readout)
    assert 0.0 <= res.delay_mean <= states.source_len
