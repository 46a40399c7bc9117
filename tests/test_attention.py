"""Infinite-lookback attention weights and the context readout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emma_stream.emma import (EncDecStates, alignment_parallel,
                              attention_energies, attention_output,
                              beta_parallel, beta_recursive)
from emma_stream.emma.params import random_head, random_states
from emma_stream.errors import DomainError, ShapeError


def test_one_hot_alignment_at_first_position():
    beta = beta_recursive([[1.0, 0.0, 0.0]], [[0.7, 1.3, 2.9]])
    assert np.allclose(beta, [[1.0, 0.0, 0.0]], atol=1e-15)


def test_hand_summed_pair():
    # prefix sums (1, 2): 0.5/1 + 0.25/2 = 0.625 and 0.25/2 = 0.125
    beta = beta_recursive([[0.5, 0.25]], [[1.0, 1.0]])
    assert np.allclose(beta, [[0.625, 0.125]], atol=1e-15)
    assert np.isclose(beta.sum(), 0.75)


def test_uniform_softmax_over_two_prefix():
    assert np.allclose(beta_recursive([[0.0, 1.0]], [[2.0, 2.0]]), [[0.5, 0.5]])


def test_parallel_matches_hand_value():
    assert np.allclose(beta_parallel([[0.5, 0.25]], [[1.0, 1.0]]),
                       [[0.625, 0.125]], atol=1e-15)


def test_nonpositive_energy_rejected():
    with pytest.raises(DomainError):
        beta_parallel([[0.5, 0.5]], [[1.0, 0.0]])
    with pytest.raises(DomainError):
        beta_recursive([[0.5, 0.5]], [[-1.0, 1.0]])


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        beta_parallel(np.ones((2, 3)) / 3, np.ones((2, 4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12))
def test_routes_agree_property(seed, n_target, n_source):
    rng = np.random.default_rng(seed)
    alpha = alignment_parallel(rng.uniform(0.01, 0.99, size=(n_target, n_source)))
    e = np.exp(rng.normal(size=(n_target, n_source)))
    assert np.abs(beta_parallel(alpha, e) - beta_recursive(alpha, e)).max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12))
def test_mass_conservation(seed, n_target, n_source):
    rng = np.random.default_rng(seed)
    alpha = alignment_parallel(rng.uniform(0.01, 0.99, size=(n_target, n_source)))
    e = np.exp(rng.normal(size=(n_target, n_source)))
    beta = beta_parallel(alpha, e)
    assert np.all(beta >= 0.0)
    assert np.abs(beta.sum(axis=1) - alpha.sum(axis=1)).max() <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_energy_scaling_cancels(seed, lam):
    rng = np.random.default_rng(seed)
    alpha = alignment_parallel(rng.uniform(0.01, 0.99, size=(3, 5)))
    e = np.exp(rng.normal(size=(3, 5)))
    assert np.abs(beta_parallel(alpha, e) - beta_parallel(alpha, lam * e)).max() <= 1e-12


def test_energy_shift_invariance():
    # adding a constant to the pre-exponential scores rescales every row of
    # e by exp(c), which cancels between numerator and prefix sums
    rng = np.random.default_rng(7)
    alpha = alignment_parallel(rng.uniform(0.01, 0.99, size=(4, 6)))
    scores = rng.normal(size=(4, 6))
    for shift in (0.3, -2.0, 11.0):
        a = beta_parallel(alpha, np.exp(scores))
        b = beta_parallel(alpha, np.exp(scores + shift))
        assert np.abs(a - b).max() <= 1e-12


def test_energies_are_positive_and_row_max_one():
    rng = np.random.default_rng(3)
    head = random_head(rng, d=4, d_k=3)
    states = random_states(rng, source_len=5, target_len=3, d=4, d_v=2)
    e = attention_energies(head, states)
    assert e.shape == (3, 5)
    assert np.all(e > 0.0)
    # the subtracted row max makes the largest entry exactly exp(0)
    assert np.allclose(e.max(axis=1), 1.0)


def test_output_selects_value_row():
    v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    states = EncDecStates(h=np.zeros((3, 2)), s=np.zeros((1, 2)), v=v)
    out = attention_output([[0.0, 1.0, 0.0]], states)
    assert np.array_equal(out, [[3.0, 4.0]])


def test_output_zero_rows():
    states = EncDecStates(h=np.zeros((3, 2)), s=np.zeros((2, 2)),
                          v=np.ones((3, 2)))
    assert np.array_equal(attention_output(np.zeros((2, 3)), states),
                          np.zeros((2, 2)))


def test_output_matches_naive_matmul():
    rng = np.random.default_rng(9)
    beta = rng.uniform(size=(3, 4))
    v = rng.normal(size=(4, 2))
    states = EncDecStates(h=np.zeros((4, 2)), s=np.zeros((3, 2)), v=v)
    naive = np.zeros((3, 2))
    for i in range(3):
        for j in range(4):
            for k in range(2):
                naive[i, k] += beta[i, j] * v[j, k]
    assert np.allclose(attention_output(beta, states), naive, atol=1e-12)


def test_output_shape_mismatch():
    states = EncDecStates(h=np.zeros((3, 2)), s=np.zeros((2, 2)),
                          v=np.ones((3, 2)))
    with pytest.raises(ShapeError):
        attention_output(np.zeros((2, 5)), states)
