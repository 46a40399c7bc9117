"""Latency and variance regularizer values."""

import numpy as np
import pytest

from emma_stream.emma import (alignment_variance, expected_delays,
                              ideal_delays, latency_loss, variance_loss)


def test_delay_of_first_position():
    assert expected_delays([[1.0, 0.0, 0.0]]) == pytest.approx([1.0])


def test_delay_hand_value():
    assert expected_delays([[0.5, 0.25]]) == pytest.approx([1.0])


def test_delay_of_last_position():
    assert expected_delays([[0.0, 0.0, 0.0, 1.0]]) == pytest.approx([4.0])


def test_delay_bounds_follow_mass():
    rng = np.random.default_rng(2)
    alpha = rng.uniform(size=(5, 7))
    alpha /= alpha.sum(axis=1, keepdims=True) * rng.uniform(1.0, 3.0)
    d = expected_delays(alpha)
    assert np.all(d >= 0.0)
    assert np.all(d <= 7 * alpha.sum(axis=1) + 1e-12)


def test_ideal_delays_uniform_rate():
    assert ideal_delays(4, 2) == pytest.approx([0.0, 2.0])
    assert ideal_delays(6, 3) == pytest.approx([0.0, 2.0, 4.0])


def test_latency_zero_when_on_ideal():
    d = ideal_delays(6, 3)
    assert latency_loss(d, 6, 3) == pytest.approx(0.0)


def test_latency_hand_value():
    assert latency_loss([4.0, 4.0], source_len=4, target_len=2) == pytest.approx(3.0)


def test_latency_single_term():
    assert latency_loss([2.0], source_len=4, target_len=1) == pytest.approx(2.0)


def test_latency_errors():
    with pytest.raises(ValueError):
        latency_loss([1.0], 4, 0)
    with pytest.raises(ValueError):
        latency_loss([1.0, 2.0], 4, 3)


def test_variance_of_point_mass():
    alpha = np.zeros((3, 5))
    alpha[0, 0] = alpha[1, 2] = alpha[2, 4] = 1.0
    assert alignment_variance(alpha) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_variance_hand_values():
    assert alignment_variance([[0.5, 0.25]]) == pytest.approx([0.5])
    assert alignment_variance([[0.5, 0.5]]) == pytest.approx([0.25])


def test_variance_nonnegative_for_alignment_rows():
    from emma_stream.emma import alignment_parallel
    rng = np.random.default_rng(8)
    for _ in range(200):
        shape = (rng.integers(1, 6), rng.integers(1, 9))
        alpha = alignment_parallel(rng.uniform(0.01, 0.99, size=shape))
        assert alignment_variance(alpha).min() >= -1e-12


def test_variance_loss_mean():
    assert variance_loss([0.5, 0.25]) == pytest.approx(0.375)
    assert variance_loss(np.zeros(4)) == 0.0
    with pytest.raises(ValueError):
        variance_loss([])
