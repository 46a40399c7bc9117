"""Eager-recording reverse-mode differentiation over the matrix catalog.

A :class:`Tape` records every primitive application as a :class:`Node`
holding the operation kind, parent indices, and the forward value.  Nodes
are appended in execution order, so the list is always topologically
sorted and :meth:`Tape.backward` is a single reverse sweep.  Values are
2-D float64 arrays, frozen on creation; scalars are 1-by-1 matrices.  An
op whose adjoint reads forward intermediates keeps them in ``Node.saved``.

Only first-order gradients of a single scalar output are supported, and a
tape must stay on the thread that created it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DomainError, ShapeError
from . import matrix as mx
from . import monotonic

__all__ = ["Node", "Tape"]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class Node:
    """Handle to one recorded value on a tape."""

    __slots__ = ("tape", "index", "op", "value", "parents", "meta", "saved")

    def __init__(self, tape: "Tape", index: int, op: str, value: np.ndarray,
                 parents: tuple[int, ...], meta: tuple, saved: tuple = ()):
        self.tape = tape
        self.index = index
        self.op = op
        self.value = value
        self.parents = parents
        self.meta = meta
        self.saved = saved

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ShapeError(f"item() requires a 1x1 value, got {self.value.shape}")
        return float(self.value[0, 0])

    # Operator sugar; scalars fold into scale/shift ops.
    def __add__(self, other):
        if isinstance(other, Node):
            return self.tape.add(self, other)
        return self.tape.shift(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Node):
            return self.tape.sub(self, other)
        return self.tape.shift(self, -float(other))

    def __rsub__(self, other):
        return self.tape.shift(self.tape.scale(self, -1.0), float(other))

    def __mul__(self, other):
        if isinstance(other, Node):
            return self.tape.mul(self, other)
        return self.tape.scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self.tape.scale(self, -1.0)

    def __matmul__(self, other):
        return self.tape.matmul(self, other)

    def __repr__(self) -> str:
        return f"Node(#{self.index} {self.op} {self.value.shape})"


# Forward rules, keyed by op kind: (parent values, meta) -> value, or a tuple
# (value, *saved) for ops whose adjoint reads forward intermediates.
# `leaf` has no rule; replay restores its stored value directly.
_FORWARD: dict[str, Callable] = {
    "add": lambda vs, m: vs[0] + vs[1],
    "sub": lambda vs, m: vs[0] - vs[1],
    "mul": lambda vs, m: vs[0] * vs[1],
    "matmul": lambda vs, m: vs[0] @ vs[1],
    "scale": lambda vs, m: vs[0] * m[0],
    "shift": lambda vs, m: vs[0] + m[0],
    "reciprocal": lambda vs, m: 1.0 / vs[0],
    "cumprod": lambda vs, m: np.cumprod(vs[0], axis=m[0]),
    "cumsum": lambda vs, m: np.cumsum(vs[0], axis=m[0]),
    "triu": lambda vs, m: np.triu(vs[0], k=m[0]),
    "roll": lambda vs, m: np.roll(vs[0], m[0], axis=1),
    "flip": lambda vs, m: vs[0][:, ::-1],
    "sigmoid": lambda vs, m: mx.sigmoid(vs[0]),
    "exp": lambda vs, m: np.exp(vs[0]),
    "log": lambda vs, m: np.log(vs[0]),
    "row_softmax": lambda vs, m: mx.row_softmax(vs[0]),
    "sum": lambda vs, m: np.array([[vs[0].sum()]]),
    "row": lambda vs, m: vs[0][m[0]:m[0] + 1, :],
    "vstack": lambda vs, m: np.vstack(vs),
    "transpose": lambda vs, m: vs[0].T.copy(),
    "monotonic_alignment": lambda vs, m: monotonic.alignment_forward(vs[0], m[0]),
    "lookback_attention": lambda vs, m: monotonic.lookback_forward(vs[0], vs[1]),
}


def _cumprod_adjoint(x: np.ndarray, grad: np.ndarray, axis: int) -> np.ndarray:
    """Gradient of cumprod via exclusive prefix products and a suffix scan.

    Division-free, so rows containing exact zeros stay well-defined:
    d/dx_j = prefix_excl(j) * S_j with S_j = g_j + x_{j+1} * S_{j+1}.
    """
    if axis == 0:
        return _cumprod_adjoint(x.T, grad.T, 1).T
    n = x.shape[1]
    prefix = np.ones_like(x)
    if n > 1:
        np.cumprod(x[:, :-1], axis=1, out=prefix[:, 1:])
    suffix = np.empty_like(grad)
    suffix[:, -1] = grad[:, -1]
    for j in range(n - 2, -1, -1):
        suffix[:, j] = grad[:, j] + x[:, j + 1] * suffix[:, j + 1]
    return prefix * suffix


def _softmax_adjoint(y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    inner = (grad * y).sum(axis=1, keepdims=True)
    return y * (grad - inner)


def _vstack_adjoint(grad: np.ndarray, row_counts: tuple[int, ...]):
    grads = []
    offset = 0
    for r in row_counts:
        grads.append(grad[offset:offset + r, :])
        offset += r
    return tuple(grads)


# Adjoint rules: (node value, upstream grad, parent values, meta, saved)
# -> per-parent grads.
_BACKWARD: dict[str, Callable] = {
    "add": lambda y, g, vs, m, s: (g, g),
    "sub": lambda y, g, vs, m, s: (g, -g),
    "mul": lambda y, g, vs, m, s: (g * vs[1], g * vs[0]),
    "matmul": lambda y, g, vs, m, s: (g @ vs[1].T, vs[0].T @ g),
    "scale": lambda y, g, vs, m, s: (g * m[0],),
    "shift": lambda y, g, vs, m, s: (g,),
    "reciprocal": lambda y, g, vs, m, s: (-g * y * y,),
    "cumprod": lambda y, g, vs, m, s: (_cumprod_adjoint(vs[0], g, m[0]),),
    "cumsum": lambda y, g, vs, m, s: (np.flip(np.cumsum(np.flip(g, axis=m[0]), axis=m[0]), axis=m[0]),),
    "triu": lambda y, g, vs, m, s: (np.triu(g, k=m[0]),),
    "roll": lambda y, g, vs, m, s: (np.roll(g, -m[0], axis=1),),
    "flip": lambda y, g, vs, m, s: (g[:, ::-1],),
    "sigmoid": lambda y, g, vs, m, s: (g * y * (1.0 - y),),
    "exp": lambda y, g, vs, m, s: (g * y,),
    "log": lambda y, g, vs, m, s: (g / vs[0],),
    "row_softmax": lambda y, g, vs, m, s: (_softmax_adjoint(y, g),),
    "sum": lambda y, g, vs, m, s: (np.full_like(vs[0], g[0, 0]),),
    "row": lambda y, g, vs, m, s: (_row_scatter(g, vs[0].shape, m[0]),),
    "vstack": lambda y, g, vs, m, s: _vstack_adjoint(g, m),
    "transpose": lambda y, g, vs, m, s: (g.T.copy(),),
    "monotonic_alignment": lambda y, g, vs, m, s: (
        monotonic.alignment_adjoint(s[0], s[1], g, m[0]),),
    "lookback_attention": lambda y, g, vs, m, s:
        monotonic.lookback_adjoint(vs[0], vs[1], s[0], s[1], g),
}


def _row_scatter(grad: np.ndarray, shape: tuple[int, int], i: int) -> np.ndarray:
    out = np.zeros(shape)
    out[i, :] = grad[0, :]
    return out


def _forward(op: str, values: list[np.ndarray], meta: tuple):
    """(value, saved intermediates) of one forward rule."""
    out = _FORWARD[op](values, meta)
    return (out[0], out[1:]) if isinstance(out, tuple) else (out, ())


class Tape:
    """Ordered record of primitive applications with reverse-mode backward."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def _record(self, op: str, parents: tuple[Node, ...], meta: tuple = ()) -> Node:
        for p in parents:
            if p.tape is not self:
                raise LookupError("parent node belongs to a different tape")
        value, saved = _forward(op, [p.value for p in parents], meta)
        node = Node(self, len(self.nodes), op, _freeze(value),
                    tuple(p.index for p in parents), meta, saved)
        self.nodes.append(node)
        return node

    # -- leaves -----------------------------------------------------------
    def leaf(self, value) -> Node:
        """Record an input matrix (gradients are reported for every leaf)."""
        arr = _freeze(mx.as_matrix(value).copy())
        node = Node(self, len(self.nodes), "leaf", arr, (), ())
        self.nodes.append(node)
        return node

    def constant(self, value) -> Node:
        """A leaf whose gradient the caller does not intend to read."""
        return self.leaf(value)

    def scalar(self, value: float) -> Node:
        return self.leaf(np.array([[float(value)]]))

    # -- primitives --------------------------------------------------------
    def add(self, a: Node, b: Node) -> Node:
        mx._check_same_shape(a.value, b.value, "add")
        return self._record("add", (a, b))

    def sub(self, a: Node, b: Node) -> Node:
        mx._check_same_shape(a.value, b.value, "sub")
        return self._record("sub", (a, b))

    def mul(self, a: Node, b: Node) -> Node:
        mx._check_same_shape(a.value, b.value, "mul")
        return self._record("mul", (a, b))

    def matmul(self, a: Node, b: Node) -> Node:
        if a.value.shape[1] != b.value.shape[0]:
            raise ShapeError(
                f"matmul: shapes {a.value.shape} and {b.value.shape} do not conform")
        return self._record("matmul", (a, b))

    def scale(self, a: Node, c: float) -> Node:
        return self._record("scale", (a,), (float(c),))

    def shift(self, a: Node, c: float) -> Node:
        return self._record("shift", (a,), (float(c),))

    def reciprocal(self, a: Node) -> Node:
        if np.any(a.value == 0.0):
            raise DomainError("reciprocal: entries must be non-zero")
        return self._record("reciprocal", (a,))

    def cumprod(self, a: Node, axis: int = 1) -> Node:
        mx._check_axis(axis)
        return self._record("cumprod", (a,), (axis,))

    def cumsum(self, a: Node, axis: int = 1) -> Node:
        mx._check_axis(axis)
        return self._record("cumsum", (a,), (axis,))

    def triu(self, a: Node, offset: int = 0) -> Node:
        return self._record("triu", (a,), (int(offset),))

    def roll(self, a: Node, k: int = 1) -> Node:
        return self._record("roll", (a,), (int(k),))

    def flip(self, a: Node) -> Node:
        return self._record("flip", (a,))

    def sigmoid(self, a: Node) -> Node:
        return self._record("sigmoid", (a,))

    def exp(self, a: Node) -> Node:
        return self._record("exp", (a,))

    def log(self, a: Node) -> Node:
        if np.any(a.value <= 0.0):
            raise DomainError("log: entries must be strictly positive")
        return self._record("log", (a,))

    def row_softmax(self, a: Node) -> Node:
        return self._record("row_softmax", (a,))

    def transpose(self, a: Node) -> Node:
        return self._record("transpose", (a,))

    def sum(self, a: Node) -> Node:
        """Total sum as a 1x1 matrix."""
        return self._record("sum", (a,))

    def row(self, a: Node, i: int) -> Node:
        """Row ``i`` of ``a`` as a 1xN matrix."""
        if not 0 <= i < a.value.shape[0]:
            raise ValueError(f"row index {i} out of range for {a.value.shape}")
        return self._record("row", (a,), (int(i),))

    def vstack(self, rows: list[Node]) -> Node:
        if not rows:
            raise ValueError("vstack: need at least one row")
        cols = rows[0].value.shape[1]
        for r in rows:
            if r.value.shape[1] != cols:
                raise ShapeError("vstack: rows have differing widths")
        return self._record("vstack", tuple(rows),
                            tuple(r.value.shape[0] for r in rows))

    def monotonic_alignment(self, p: Node, force_last_column: bool = False) -> Node:
        """Expected monotonic alignment of stepwise probabilities ``p``
        (see :mod:`emma_stream.numerics.monotonic`), recorded as one node."""
        return self._record("monotonic_alignment", (p,), (bool(force_last_column),))

    def lookback_attention(self, alpha: Node, e: Node) -> Node:
        """Infinite-lookback attention of ``alpha`` over energies ``e``,
        recorded as one node."""
        mx._check_same_shape(alpha.value, e.value, "lookback_attention")
        if np.any(e.value <= 0.0):
            raise DomainError("lookback_attention: energies must be strictly positive")
        return self._record("lookback_attention", (alpha, e))

    # -- backward and replay ------------------------------------------------
    def backward(self, output: Node) -> list[np.ndarray]:
        """Gradients of a scalar ``output`` with respect to every node.

        Returns one array per node, indexed like ``self.nodes``; nodes the
        output does not depend on get zeros.
        """
        if output.tape is not self or not (0 <= output.index < len(self.nodes)) \
                or self.nodes[output.index] is not output:
            raise LookupError("output node is not on this tape")
        if output.value.shape != (1, 1):
            raise ValueError(
                f"backward requires a scalar (1x1) output, got {output.value.shape}")

        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[output.index] = np.ones((1, 1))
        for node in reversed(self.nodes[:output.index + 1]):
            g = grads[node.index]
            if g is None or node.op == "leaf":
                continue
            parent_values = [self.nodes[p].value for p in node.parents]
            parent_grads = _BACKWARD[node.op](node.value, g, parent_values,
                                              node.meta, node.saved)
            for p_idx, pg in zip(node.parents, parent_grads):
                if grads[p_idx] is None:
                    grads[p_idx] = pg.copy()
                else:
                    grads[p_idx] = grads[p_idx] + pg
        return [g if g is not None else np.zeros_like(n.value)
                for g, n in zip(grads, self.nodes)]

    def grad_of(self, grads: list[np.ndarray], node: Node) -> np.ndarray:
        return grads[node.index]

    def replay(self) -> None:
        """Re-run every forward rule; raise if any value fails to reproduce bit-identically."""
        for node in self.nodes:
            if node.op == "leaf":
                continue
            value, _ = _forward(node.op, [self.nodes[p].value for p in node.parents],
                                node.meta)
            recomputed = np.ascontiguousarray(value, dtype=np.float64)
            if not np.array_equal(recomputed, node.value):
                raise RuntimeError(
                    f"replay mismatch at node #{node.index} ({node.op})")
