"""Semantics of the dense matrix catalog."""

import math

import numpy as np
import pytest

from emma_stream.errors import ShapeError
from emma_stream.numerics import Tape
from emma_stream.numerics import matrix as mx


def random_matrix(rng, rows=None, cols=None, low=-2.0, high=2.0):
    rows = rows or rng.integers(1, 7)
    cols = cols or rng.integers(1, 7)
    return rng.uniform(low, high, size=(rows, cols))


def test_sigmoid_values():
    got = mx.sigmoid([[0.0, -4.0, 800.0, -800.0]])
    assert got[0, 0] == 0.5
    assert got[0, 1] == pytest.approx(1.0 / (1.0 + np.exp(4.0)), rel=1e-15)
    # saturates without overflow
    assert got[0, 2] == 1.0
    assert got[0, 3] == 0.0


def test_sigmoid_is_the_piecewise_formula_bit_for_bit():
    # 1 / (1 + e^-x) on the entries x >= 0 and e^x / (1 + e^x) on the rest
    rng = np.random.default_rng(4)
    a = np.concatenate([rng.normal(size=40) * 30, [0.0, -0.0, 745.0, -745.0,
                                                   math.inf, -math.inf]])
    pos = a >= 0
    want = np.empty_like(a)
    want[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    want[~pos] = ex / (1.0 + ex)
    assert np.array_equal(mx.sigmoid(a.reshape(2, -1)).ravel(), want)


def test_row_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 6)) * 50
    s = mx.row_softmax(a)
    assert np.allclose(s.sum(axis=1), 1.0)
    assert np.all(s > 0)


def test_shape_errors_name_both_shapes():
    t = Tape()
    a, b = t.leaf(np.ones((2, 3))), t.leaf(np.ones((3, 2)))
    for op in (t.add, t.lookback_attention):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
            op(a, b)


def test_determinism_bit_identical():
    rng = np.random.default_rng(11)
    a = random_matrix(rng, 5, 5)
    b = random_matrix(rng, 5, 5)
    for f, x in ((mx.row_softmax, a), (mx.sigmoid, b)):
        assert np.array_equal(f(x), f(x))
