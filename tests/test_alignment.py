"""Stepwise probabilities and the two alignment routes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emma_stream.emma import (EncDecStates, FeedForward, PolicyHeadParams,
                              alignment_parallel, alignment_recursive,
                              stepwise_probability)
from emma_stream.errors import DomainError, ShapeError


def zero_ffn(in_dim, out_dim):
    return FeedForward((np.zeros((in_dim, out_dim)),), (np.zeros((1, out_dim)),))


def zero_head(d=3, bias=0.0, temperature=1.0):
    return PolicyHeadParams(ffn_s=zero_ffn(d, d), ffn_h=zero_ffn(d, d),
                            w_q=np.zeros((d, d)), w_k=np.zeros((d, d)),
                            bias=bias, temperature=temperature)


def states_of(source_len=4, target_len=2, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return EncDecStates(h=rng.normal(size=(source_len, d)),
                        s=rng.normal(size=(target_len, d)),
                        v=rng.normal(size=(source_len, d)))


def random_probabilities(rng, max_target=8, max_source=10):
    shape = (rng.integers(1, max_target + 1), rng.integers(1, max_source + 1))
    return rng.uniform(0.01, 0.99, size=shape)


# -- stepwise probability -----------------------------------------------------

def test_zero_weights_give_half():
    p = stepwise_probability(zero_head(), states_of())
    assert p.shape == (2, 4)
    assert np.all(p == 0.5)


def test_negative_bias_default_polarization():
    p = stepwise_probability(zero_head(bias=-4.0), states_of())
    assert np.allclose(p, 1.0 / (1.0 + np.exp(4.0)), rtol=1e-15)


def test_temperature_halving_doubles_logit():
    p = stepwise_probability(zero_head(bias=-4.0, temperature=0.5), states_of())
    assert np.allclose(p, 1.0 / (1.0 + np.exp(8.0)), rtol=1e-12)


def test_nonpositive_temperature_rejected():
    with pytest.raises(ValueError):
        zero_head(temperature=0.0)
    with pytest.raises(ValueError):
        zero_head(temperature=-1.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ShapeError):
        PolicyHeadParams(ffn_s=zero_ffn(3, 2), ffn_h=zero_ffn(3, 5),
                         w_q=np.zeros((3, 2)), w_k=np.zeros((3, 2)))


def test_probabilities_strictly_inside_unit_interval():
    rng = np.random.default_rng(11)
    head = PolicyHeadParams(
        ffn_s=FeedForward((rng.normal(size=(3, 3)), rng.normal(size=(3, 3))),
                          (rng.normal(size=(1, 3)), rng.normal(size=(1, 3)))),
        ffn_h=zero_ffn(3, 3), w_q=np.zeros((3, 3)), w_k=np.zeros((3, 3)),
        bias=-4.0, temperature=0.2)
    p = stepwise_probability(head, states_of(seed=5))
    assert np.all(p > 0.0) and np.all(p < 1.0)


# -- recursive oracle ---------------------------------------------------------

def test_recursion_certain_write_never_skips():
    alpha = alignment_recursive(np.ones((3, 4)))
    expected = np.zeros((3, 4))
    expected[:, 0] = 1.0
    assert np.array_equal(alpha, expected)


def test_recursion_single_row_hand_value():
    assert np.allclose(alignment_recursive([[0.5, 0.5]]), [[0.5, 0.25]],
                       atol=1e-15)


def test_recursion_two_rows_hand_value():
    alpha = alignment_recursive(np.full((2, 2), 0.5))
    assert np.allclose(alpha, [[0.5, 0.25], [0.25, 0.25]], atol=1e-15)


def test_recursion_rejects_out_of_range():
    with pytest.raises(DomainError):
        alignment_recursive([[0.5, 1.5]])
    with pytest.raises(DomainError):
        alignment_recursive([[-0.1, 0.5]])
    with pytest.raises(DomainError):
        alignment_recursive([[np.nan, 0.5]])


# -- scan fixtures ------------------------------------------------------------

def test_parallel_single_row_worked_example():
    assert np.allclose(alignment_parallel([[0.5, 0.5]]), [[0.5, 0.25]],
                       atol=1e-15)


def test_parallel_certain_write():
    alpha = alignment_parallel(np.ones((4, 3)))
    expected = np.zeros((4, 3))
    expected[:, 0] = 1.0
    assert np.array_equal(alpha, expected)


# -- equivalence and invariants -----------------------------------------------

def test_routes_agree_on_seeded_batch():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        p = random_probabilities(rng)
        gap = np.abs(alignment_parallel(p) - alignment_recursive(p)).max()
        worst = max(worst, gap)
    assert worst <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12))
def test_routes_agree_property(seed, n_target, n_source):
    p = np.random.default_rng(seed).uniform(0.01, 0.99, size=(n_target, n_source))
    assert np.abs(alignment_parallel(p) - alignment_recursive(p)).max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12))
def test_row_mass_never_exceeds_one(seed, n_target, n_source):
    p = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n_target, n_source))
    alpha = alignment_parallel(p)
    assert np.all(alpha >= 0.0)
    assert alpha.sum(axis=1).max() <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 10))
def test_forced_last_column_gives_unit_mass(seed, n_target, n_source):
    p = np.random.default_rng(seed).uniform(0.01, 0.99, size=(n_target, n_source))
    alpha = alignment_parallel(p, force_last_column=True)
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-10)
    both = alignment_recursive(p, force_last_column=True)
    assert np.abs(alpha - both).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(0, 9))
def test_monotone_stopping_single_row(seed, n_source, bump_at):
    # raising any one stepwise probability cannot lower the total write mass
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.01, 0.99, size=(1, n_source))
    j = bump_at % n_source
    bumped = p.copy()
    bumped[0, j] = min(1.0, p[0, j] + rng.uniform(0.0, 1.0 - p[0, j]))
    before = alignment_parallel(p).sum()
    after = alignment_parallel(bumped).sum()
    assert after >= before - 1e-12
