"""Adjoint rules of every tape primitive, verified against central differences."""

import numpy as np
import pytest

from emma_stream.errors import DomainError
from emma_stream.numerics import Tape, central_difference_gradient, finite_diff_check

FD_TOL = 1e-5
H = 1e-5


def tape_grad(build, x):
    """Gradient of scalar build(tape, leaf) with respect to the flat leaf entries."""

    def run(theta):
        t = Tape()
        leaf = t.leaf(theta.reshape(x.shape))
        return build(t, leaf).item()

    def grad(theta):
        t = Tape()
        leaf = t.leaf(theta.reshape(x.shape))
        out = build(t, leaf)
        return t.backward(out)[leaf.index].ravel()

    return run, grad


def check_unary(build, x):
    run, grad = tape_grad(build, x)
    assert finite_diff_check(run, grad, x.ravel(), h=H) <= FD_TOL


def weighted(t, node, w):
    return t.sum(t.mul(node, t.constant(w)))


def test_square_gradient():
    t = Tape()
    w = t.leaf([[3.0]])
    out = t.mul(w, w)
    grads = t.backward(out)
    assert grads[w.index][0, 0] == pytest.approx(6.0, abs=1e-12)


def test_sigmoid_gradient_at_zero():
    t = Tape()
    x = t.leaf(np.zeros((2, 3)))
    out = t.sum(t.sigmoid(x))
    grads = t.backward(out)
    assert np.allclose(grads[x.index], 0.25, atol=1e-15)


def test_constant_function_has_zero_error():
    def run(theta):
        return 7.0

    def grad(theta):
        return np.zeros_like(theta)

    assert finite_diff_check(run, grad, np.array([1.0, 2.0]), h=H) == 0.0


def test_quadratic_fd_error_tiny():
    def run(theta):
        return float(theta[0] ** 2)

    def grad(theta):
        return np.array([2.0 * theta[0]])

    assert finite_diff_check(run, grad, np.array([3.0]), h=H) <= 1e-9


def test_nonfinite_probe_raises():
    def run(theta):
        return float("nan")

    with pytest.raises(DomainError):
        central_difference_gradient(run, np.array([1.0]), h=H)


@pytest.mark.parametrize("case", [
    "scale", "shift", "sigmoid", "exp", "log", "cumsum0", "cumsum1",
    "cumprod0", "cumprod1", "triu", "roll", "flip", "row_softmax",
    "reciprocal", "row", "sum", "transpose",
])
def test_unary_primitives_match_finite_differences(case):
    rng = np.random.default_rng(hash(case) % (2**32))
    w = rng.uniform(-2.0, 2.0, size=(4, 5))
    positive = case in ("log", "reciprocal")
    builders = {
        "scale": lambda t, a: weighted(t, t.scale(a, -1.7), w),
        "shift": lambda t, a: weighted(t, t.shift(a, 0.9), w),
        "sigmoid": lambda t, a: weighted(t, t.sigmoid(a), w),
        "exp": lambda t, a: weighted(t, t.exp(a), w),
        "log": lambda t, a: weighted(t, t.log(a), w),
        "cumsum0": lambda t, a: weighted(t, t.cumsum(a, axis=0), w),
        "cumsum1": lambda t, a: weighted(t, t.cumsum(a, axis=1), w),
        "cumprod0": lambda t, a: weighted(t, t.cumprod(a, axis=0), w),
        "cumprod1": lambda t, a: weighted(t, t.cumprod(a, axis=1), w),
        "triu": lambda t, a: weighted(t, t.triu(a, 1), w),
        "roll": lambda t, a: weighted(t, t.roll(a, 2), w),
        "flip": lambda t, a: weighted(t, t.flip(a), w),
        "row_softmax": lambda t, a: weighted(t, t.row_softmax(a), w),
        "reciprocal": lambda t, a: weighted(t, t.reciprocal(a), w),
        "row": lambda t, a: weighted(t, t.row(a, 2), w[:1]),
        "sum": lambda t, a: t.scale(t.sum(a), 0.3),
        "transpose": lambda t, a: weighted(t, t.transpose(a), w.T),
    }
    for trial in range(20):
        rng_x = np.random.default_rng(1000 * (hash(case) % 1000) + trial)
        if positive:
            x = rng_x.uniform(0.5, 2.5, size=(4, 5))
        else:
            x = rng_x.uniform(-2.0, 2.0, size=(4, 5))
        check_unary(builders[case], x)


@pytest.mark.parametrize("case", ["add", "sub", "mul", "matmul", "vstack"])
def test_binary_primitives_match_finite_differences(case):
    for trial in range(20):
        rng = np.random.default_rng(7000 + trial)
        a_shape = (3, 4)
        b_shape = (4, 2) if case == "matmul" else (3, 4)
        w_shape = {"matmul": (3, 2), "vstack": (6, 4)}.get(case, (3, 4))
        w = rng.uniform(-2.0, 2.0, size=w_shape)
        theta = rng.uniform(-2.0, 2.0, size=12 + int(np.prod(b_shape)))

        def build(t, a_val, b_val):
            a, b = t.leaf(a_val), t.leaf(b_val)
            ops = {
                "add": lambda: t.add(a, b),
                "sub": lambda: t.sub(a, b),
                "mul": lambda: t.mul(a, b),
                "matmul": lambda: t.matmul(a, b),
                "vstack": lambda: t.vstack([a, b]),
            }
            return a, b, weighted(t, ops[case](), w)

        def split(theta):
            return theta[:12].reshape(a_shape), theta[12:].reshape(b_shape)

        def run(theta):
            t = Tape()
            _, _, out = build(t, *split(theta))
            return out.item()

        def grad(theta):
            t = Tape()
            a, b, out = build(t, *split(theta))
            grads = t.backward(out)
            return np.concatenate([grads[a.index].ravel(), grads[b.index].ravel()])

        assert finite_diff_check(run, grad, theta, h=H) <= FD_TOL


def test_cumprod_adjoint_handles_exact_zeros():
    # p = 1 inside the alignment chain produces exact zeros in 1 - p
    x = np.array([[0.5, 0.0, 0.25], [0.0, 0.0, 2.0]])
    g = np.array([[1.0, -2.0, 0.5], [1.5, 1.0, -1.0]])

    t = Tape()
    leaf = t.leaf(x)
    out = t.sum(t.mul(t.cumprod(leaf, axis=1), t.constant(g)))
    analytic = t.backward(out)[leaf.index]

    # brute-force adjoint: d cumprod_k / d x_j = prod_{l<=k, l!=j} x_l for j <= k
    expected = np.zeros_like(x)
    for r in range(x.shape[0]):
        for j in range(x.shape[1]):
            for k in range(j, x.shape[1]):
                prod = 1.0
                for l in range(k + 1):
                    if l != j:
                        prod *= x[r, l]
                expected[r, j] += g[r, k] * prod
    assert np.allclose(analytic, expected, atol=1e-12)
    assert np.all(np.isfinite(analytic))


def test_backward_rejects_non_scalar_and_foreign_nodes():
    t = Tape()
    a = t.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.backward(a)
    other = Tape()
    b = other.leaf(np.ones((1, 1)))
    with pytest.raises(LookupError):
        t.backward(b)


def test_unreached_nodes_get_zero_gradient():
    t = Tape()
    a = t.leaf([[2.0]])
    b = t.leaf([[5.0]])
    out = t.mul(a, a)
    grads = t.backward(out)
    assert np.array_equal(grads[b.index], np.zeros((1, 1)))


def test_replay_reproduces_values():
    rng = np.random.default_rng(5)
    t = Tape()
    a = t.leaf(rng.normal(size=(3, 3)))
    b = t.leaf(rng.normal(size=(3, 3)))
    c = t.row_softmax(t.matmul(t.sigmoid(a), b))
    e = t.cumprod(t.triu(c, 0), axis=1)
    alpha = t.monotonic_alignment(c)
    forced = t.monotonic_alignment(c, force_last_column=True)
    beta = t.lookback_attention(t.add(alpha, forced), t.exp(b))
    d = t.add(t.sum(e), t.sum(beta))
    assert d.item() is not None
    t.replay()  # raises on any bit-level mismatch


def test_node_values_are_immutable():
    t = Tape()
    a = t.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        a.value[0, 0] = 3.0


def test_operator_sugar_matches_methods():
    t = Tape()
    a = t.leaf([[1.0, 2.0]])
    b = t.leaf([[3.0, 4.0]])
    assert np.array_equal((a + b).value, [[4.0, 6.0]])
    assert np.array_equal((a - b).value, [[-2.0, -2.0]])
    assert np.array_equal((a * b).value, [[3.0, 8.0]])
    assert np.array_equal((2.0 * a).value, [[2.0, 4.0]])
    assert np.array_equal((a + 1.0).value, [[2.0, 3.0]])
    assert np.array_equal((-a).value, [[-1.0, -2.0]])
    assert np.array_equal((1.0 - a).value, [[0.0, -1.0]])
