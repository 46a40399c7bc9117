"""Adjoint rules of every tape primitive, verified against central differences."""

import gc
import weakref
import zlib

import numpy as np
import pytest

from emma_stream.emma import LossWeights, emma_objective
from emma_stream.emma import objective as objective_module
from emma_stream.errors import DomainError
from emma_stream.numerics import Tape, central_difference_gradient, finite_diff_check
from test_objective import toy_instance

FD_TOL = 1e-5
H = 1e-5


def weighted_gradients(t, out, w):
    """Gradients of sum(w * out) with respect to every node up to ``out``:
    ``w`` is handed to ``out``'s adjoint as its upstream gradient, and the
    nodes' adjoints carry it back in reverse recording order, as
    ``Tape.backward`` carries the 1 of a scalar output."""
    grads = [None] * (out.index + 1)
    grads[out.index] = np.asarray(w, dtype=np.float64)
    for node in reversed(t.nodes[:out.index + 1]):
        g = grads[node.index]
        if g is None or node.op == "leaf":
            continue
        for p, pg in zip(node.parents, node.adjoint(g)):
            grads[p] = pg if grads[p] is None else grads[p] + pg
    return [g if g is not None else np.zeros_like(n.value)
            for g, n in zip(grads, t.nodes)]


def tape_grad(build, x, w):
    """Batched values of sum(w * build(tape, leaf)), and its gradient with
    respect to the flat leaf entries."""

    def run(probes):
        values = []
        for theta in probes:
            t = Tape()
            leaf = t.leaf(theta.reshape(x.shape))
            values.append((w * build(t, leaf).value).sum())
        return values

    def grad(theta):
        t = Tape()
        leaf = t.leaf(theta.reshape(x.shape))
        out = build(t, leaf)
        return weighted_gradients(t, out, w)[leaf.index].ravel()

    return run, grad


def check_unary(build, x, w):
    run, grad = tape_grad(build, x, w)
    assert finite_diff_check(run, grad, x.ravel(), h=H) <= FD_TOL


def test_constant_function_has_zero_error():
    def run(probes):
        return np.full(len(probes), 7.0)

    def grad(theta):
        return np.zeros_like(theta)

    assert finite_diff_check(run, grad, np.array([1.0, 2.0]), h=H) == 0.0


def test_quadratic_fd_error_tiny():
    def run(probes):
        return probes[:, 0] ** 2

    def grad(theta):
        return np.array([2.0 * theta[0]])

    assert finite_diff_check(run, grad, np.array([3.0]), h=H) <= 1e-9


def test_nonfinite_probe_raises():
    def run(probes):
        return np.where(probes[:, 1] > 2.0, np.nan, 1.0)

    with pytest.raises(DomainError, match="coordinate 1"):
        central_difference_gradient(run, np.array([1.0, 2.0]), h=H)
    with pytest.raises(ValueError, match="values for 4 probes"):
        central_difference_gradient(lambda probes: [1.0], np.array([1.0, 2.0]), h=H)


def test_probes_move_one_coordinate_each():
    theta = np.array([0.3, -1.2, 5.0])
    seen = []

    def run(probes):
        seen.append(probes.copy())
        return probes @ [1.0, 2.0, 3.0]

    central_difference_gradient(run, theta, h=0.25)
    (probes,) = seen
    for k in range(3):
        for row, step in ((2 * k, 0.25), (2 * k + 1, -0.25)):
            expected = theta.copy()
            expected[k] = theta[k] + step
            assert np.array_equal(probes[row], expected)


UNARY_CASES = ["sum"]


def stable_seed(case):
    """Per-case seed that, unlike hash(), is the same in every process."""
    return zlib.crc32(case.encode())


def check_unary_case(case, seed):
    rng = np.random.default_rng(seed)
    builders = {
        "sum": (lambda t, a: t.sum(a), np.array([[0.3]])),
    }
    build, w = builders[case]
    for trial in range(20):
        rng_x = np.random.default_rng([seed, trial])
        check_unary(build, rng_x.uniform(-2.0, 2.0, size=(4, 5)), w)


@pytest.mark.parametrize("case", UNARY_CASES)
def test_unary_primitives_match_finite_differences(case):
    check_unary_case(case, stable_seed(case))


@pytest.mark.parametrize("case", ["add"])
def test_binary_primitives_match_finite_differences(case):
    for trial in range(20):
        rng = np.random.default_rng(7000 + trial)
        w = rng.uniform(-2.0, 2.0, size=(3, 4))
        theta = rng.uniform(-2.0, 2.0, size=24)

        def build(t, a_val, b_val):
            a, b = t.leaf(a_val), t.leaf(b_val)
            return a, b, getattr(t, case)(a, b)

        def split(theta):
            return theta[:12].reshape(3, 4), theta[12:].reshape(3, 4)

        def run(probes):
            return [(w * build(Tape(), *split(theta))[2].value).sum()
                    for theta in probes]

        def grad(theta):
            t = Tape()
            a, b, out = build(t, *split(theta))
            grads = weighted_gradients(t, out, w)
            return np.concatenate([grads[a.index].ravel(), grads[b.index].ravel()])

        assert finite_diff_check(run, grad, theta, h=H) <= FD_TOL


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
    out = t.add(a, a)
    grads = t.backward(out)
    assert np.array_equal(grads[b.index], np.zeros((1, 1)))


def test_backward_gradients_are_read_only():
    # add hands one array to both parents; neither may be written through
    t = Tape()
    a, b = t.leaf([[1.0, 2.0]]), t.leaf([[3.0, 4.0]])
    grads = t.backward(t.sum(t.add(a, b)))
    assert np.array_equal(grads[a.index], [[1.0, 1.0]])
    for g in grads:
        with pytest.raises(ValueError):
            g[0, 0] = 5.0
    assert np.array_equal(grads[b.index], [[1.0, 1.0]])


def add_sum_tape(monkeypatch):
    t = Tape()
    a = t.leaf(np.ones((2, 2)))
    t.backward(t.sum(t.add(a, a)))
    return t


def objective_tape(monkeypatch):
    """The tape of one objective and its gradient: every op of the tape."""
    tapes = []

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(objective_module, "Tape", RecordingTape)
    heads, states, targets, readout = toy_instance(3)
    emma_objective(heads, states, targets, LossWeights(0.5, 0.5), readout)
    assert {node.op for node in tapes[0].nodes} == {
        "leaf", "add", "sum", "monotonic_alignment", "lookback_attention",
        "stepwise", "energies", "readout", "cross_entropy", "delay_moments"}
    return tapes.pop()


@pytest.mark.parametrize("build", [add_sum_tape, objective_tape])
def test_finished_tape_is_freed_without_the_cycle_collector(monkeypatch, build):
    # neither nodes nor their adjoint closures hold a reference to their
    # tape, so dropping the last reference to the tape frees it and its
    # saved intermediates at once, even while one of its nodes is still held
    gc.disable()
    try:
        t = build(monkeypatch)
        a = t.nodes[0]
        ref = weakref.ref(t)
        del t
        assert ref() is None
        assert a.value.ndim == 2
    finally:
        gc.enable()


def test_node_values_are_immutable():
    t = Tape()
    a = t.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        a.value[0, 0] = 3.0

