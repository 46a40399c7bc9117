"""The combined objective: value fixtures, fused-op consistency, gradients."""

from dataclasses import replace

import numpy as np
import pytest

from emma_stream.emma import (EncDecStates, LossWeights, Readout,
                              alignment_parallel, alignment_variance,
                              attention_energies, beta_parallel,
                              emma_objective, expected_delays, latency_loss,
                              pack_parameters, stepwise_probability,
                              unpack_parameters, variance_loss)
from emma_stream.emma import objective as objective_module
from emma_stream.emma.params import (PolicyHeadParams, parameter_slots,
                                     random_feedforward, random_head,
                                     random_readout, random_states)
from emma_stream.numerics import Tape, finite_diff_check
from emma_stream.numerics.policy import view


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


def fused_heads(heads, readout, states, force_last_column=False):
    """The fused policy-head ops on one parameter leaf, then alignment and
    lookback attention: (stepwise node, alignment node, energy node, beta node)."""
    t = Tape()
    head_slots, _ = parameter_slots(heads, readout)
    theta = t.leaf(pack_parameters(heads, readout))
    p_node = t.stepwise(theta, states.s, states.h, head_slots)
    alpha_node = t.monotonic_alignment(p_node, force_last_column, heads=len(heads))
    e_node = t.energies(theta, states.s, states.h, head_slots)
    return p_node, alpha_node, e_node, t.lookback_attention(alpha_node, e_node)


def test_graph_forward_matches_array_route():
    # the fused tape ops must agree with the plain numpy functions, head by head
    heads, states, _, readout = toy_instance(3)
    p_node, alpha_node, e_node, beta_node = fused_heads(heads, readout, states)
    n = states.target_len
    for k, head in enumerate(heads):
        rows = slice(k * n, (k + 1) * n)
        p = stepwise_probability(head, states)
        assert np.abs(p_node.value[rows] - p).max() <= 1e-12
        alpha = alignment_parallel(p)
        assert np.abs(alpha_node.value[rows] - alpha).max() <= 1e-12
        e = attention_energies(head, states)
        assert np.abs(e_node.value[rows] - e).max() <= 1e-12
        assert np.abs(beta_node.value[rows] - beta_parallel(alpha, e)).max() <= 1e-12


def test_forced_last_column_graph_matches():
    heads, states, _, readout = toy_instance(4)
    _, alpha_node, _, _ = fused_heads(heads, readout, states, force_last_column=True)
    n = states.target_len
    for k, head in enumerate(heads):
        alpha = alignment_parallel(stepwise_probability(head, states),
                                   force_last_column=True)
        assert np.abs(alpha_node.value[k * n:(k + 1) * n] - alpha).max() <= 1e-12
    assert np.allclose(alpha_node.value.sum(axis=1), 1.0, atol=1e-10)


def test_feedforward_nodes_equal_feedforward_apply():
    # the FFN activations the stepwise op keeps for its adjoint are
    # FeedForward.apply of every head, bit for bit; they are stacked by
    # parameter row (one here), then by head
    heads, states, _, readout = toy_instance(5)
    p_node = fused_heads(heads, readout, states)[0]
    _, _, acts_s, acts_h = p_node.saved[0]
    for k, head in enumerate(heads):
        assert np.array_equal(acts_s[-1][0, k], head.ffn_s.apply(states.s))
        assert np.array_equal(acts_h[-1][0, k], head.ffn_h.apply(states.h))


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


def objective_value_fn(heads, states, targets, weights, readout,
                       force_last_column=False):
    """The losses at a matrix of parameter probes, as one lockstep call with
    one setting per probe row; each loss is bit for bit its row's own call."""
    def f(probes):
        return [res.loss for res in emma_objective(
            heads, states, targets, (weights,) * len(probes), readout,
            force_last_column=force_last_column, with_gradient=False,
            theta=probes)]
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
    f = objective_value_fn(heads, states, targets, weights, readout,
                           force_last_column=True)
    assert finite_diff_check(f, lambda _: res.gradient, theta, h=1e-5) <= 1e-5


def test_pack_unpack_roundtrip():
    heads, states, targets, readout = toy_instance(7)
    theta = pack_parameters(heads, readout)
    heads2, readout2 = unpack_parameters(theta, heads, readout)
    assert np.array_equal(pack_parameters(heads2, readout2), theta)
    r1 = emma_objective(heads, states, targets, LossWeights(), readout)
    r2 = emma_objective(heads2, states, targets, LossWeights(), readout2)
    assert r1.loss == r2.loss


@pytest.mark.parametrize("n_heads", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_parameter_layout_is_pinned(n_heads, depth):
    rng = np.random.default_rng(10 * n_heads + depth)
    heads = [random_head(rng, 5, 3, depth=depth, bias=float(rng.normal()))
             for _ in range(n_heads)]
    readout = random_readout(rng, 2, 4)
    # theta's layout written out: per head FFN_s (W, b) per layer, FFN_h
    # (W, b) per layer, [[bias]], w_q, w_k; then w_out and b_out
    reference = []
    for hp in heads:
        for ffn in (hp.ffn_s, hp.ffn_h):
            for w, b in zip(ffn.weights, ffn.biases):
                reference += [w, b]
        reference += [np.array([[hp.bias]]), hp.w_q, hp.w_k]
    reference += [readout.w_out, readout.b_out]
    theta = pack_parameters(heads, readout)
    assert np.array_equal(theta, np.concatenate([a.ravel() for a in reference]))

    slots, (w_out, b_out) = parameter_slots(heads, readout)
    for k, hp in enumerate(heads):
        row = theta[k * slots.stride:(k + 1) * slots.stride]
        named = [(slots.bias, [[hp.bias]]), (slots.w_q, hp.w_q), (slots.w_k, hp.w_k)]
        for ffn_slots, ffn in ((slots.ffn_s, hp.ffn_s), (slots.ffn_h, hp.ffn_h)):
            assert len(ffn_slots) == depth
            for (w_slot, b_slot), w, b in zip(ffn_slots, ffn.weights, ffn.biases):
                named += [(w_slot, w), (b_slot, b)]
        for slot, array in named:
            assert np.array_equal(view(row, slot), array)
    assert np.array_equal(view(theta, w_out), readout.w_out)
    assert np.array_equal(view(theta, b_out), readout.b_out)
    assert b_out[0] + b_out[2] == theta.size

    heads2, readout2 = unpack_parameters(2 * theta, heads, readout)
    assert np.array_equal(pack_parameters(heads2, readout2), 2 * theta)


def test_layout_is_derived_once_per_shapes_and_temperatures():
    rng = np.random.default_rng(4)
    heads = [random_head(rng, 4, 2) for _ in range(2)]
    readout = random_readout(rng, 2, 3)
    layout = parameter_slots(heads, readout)
    # other values of the same shapes and temperatures share one layout
    assert parameter_slots([random_head(rng, 4, 2) for _ in range(2)],
                           random_readout(rng, 2, 3)) is layout
    warmer = [replace(heads[0], temperature=0.5), heads[1]]
    assert parameter_slots(warmer, readout)[0].temperature == (0.5, 0.2)
    wider = parameter_slots(heads, random_readout(rng, 2, 4))
    assert wider[1][1][1:] == (1, 4) and wider[0] == layout[0]
    # layers split 3 + 1 or 2 + 2 between FFN_s and FFN_h place theta apart
    split = [PolicyHeadParams(random_feedforward(rng, 4, 4, s),
                              random_feedforward(rng, 4, 4, 4 - s),
                              heads[0].w_q, heads[0].w_k) for s in (3, 2)]
    assert (parameter_slots(split[:1], readout)[0]
            != parameter_slots(split[1:], readout)[0])
    # a mismatched head raises each time, after its partner's layout is kept
    odd = random_head(rng, 4, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="share one shape"):
            parameter_slots([heads[0], odd], readout)


def test_flat_parameters_replace_the_template_values():
    heads, states, targets, readout = toy_instance(9)
    theta = pack_parameters(heads, readout) * 0.9 + 0.01
    new_heads, new_readout = unpack_parameters(theta, heads, readout)
    weights = LossWeights(0.4, 0.2)
    a = emma_objective(heads, states, targets, weights, readout, theta=theta)
    b = emma_objective(new_heads, states, targets, weights, new_readout)
    assert a.loss == b.loss and np.array_equal(a.gradient, b.gradient)
    with pytest.raises(ValueError, match="parameters"):
        emma_objective(heads, states, targets, weights, readout, theta=theta[:-1])


def test_delay_mean_reflects_alignment():
    heads, states, targets, readout = toy_instance(8)
    res = emma_objective(heads, states, targets, LossWeights(), readout)
    assert 0.0 <= res.delay_mean <= states.source_len


def result_fields(res):
    return (res.loss, res.nll, res.latency, res.variance, res.delay_mean)


@pytest.mark.parametrize("n_settings", [1, 2, 3])
@pytest.mark.parametrize("force", [False, True])
def test_lockstep_settings_equal_their_single_calls(monkeypatch, n_settings,
                                                    force):
    tapes = []

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(objective_module, "Tape", RecordingTape)
    heads, states, targets, readout = toy_instance(20 + n_settings, n_heads=2)
    rng = np.random.default_rng(n_settings)
    packed = pack_parameters(heads, readout)
    theta = packed + 0.1 * rng.standard_normal((n_settings, packed.size))
    settings = tuple(LossWeights(float(lat), float(var))
                     for lat, var in rng.uniform(0.0, 1.0, (n_settings, 2)))
    for with_gradient in (True, False):
        tapes.clear()
        results = emma_objective(heads, states, targets, settings, readout,
                                 force_last_column=force,
                                 with_gradient=with_gradient, theta=theta)
        batched = tapes.pop()
        assert len(results) == n_settings
        for row, weights, res in zip(theta, settings, results):
            one = emma_objective(heads, states, targets, weights, readout,
                                 force_last_column=force,
                                 with_gradient=with_gradient, theta=row)
            assert result_fields(res) == result_fields(one)
            if with_gradient:
                assert np.array_equal(res.gradient, one.gradient)
            else:
                assert res.gradient is None and one.gradient is None
        # one node per op at any R: the same count as each single call, and
        # the backward's sum only when a gradient is taken
        assert len(batched) == 9 + with_gradient == len(tapes[-1])


def test_lockstep_theta_defaults_and_shape_errors():
    heads, states, targets, readout = toy_instance(11)
    settings = (LossWeights(0.0, 0.0), LossWeights(0.5, 0.2))
    packed = pack_parameters(heads, readout)
    default = emma_objective(heads, states, targets, settings, readout)
    given = emma_objective(heads, states, targets, settings, readout,
                           theta=np.stack([packed, packed]))
    for a, b in zip(default, given):
        assert result_fields(a) == result_fields(b)
        assert np.array_equal(a.gradient, b.gradient)
    for bad in (packed, np.stack([packed] * 3), np.stack([packed, packed])[:, :-1]):
        with pytest.raises(ValueError, match="parameters"):
            emma_objective(heads, states, targets, settings, readout, theta=bad)
    with pytest.raises(ValueError, match="loss-weight setting"):
        emma_objective(heads, states, targets, (), readout)
