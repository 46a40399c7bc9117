"""Eager-recording reverse-mode differentiation over the matrix catalog.

A :class:`Tape` records every primitive application as a :class:`Node`
holding the operation kind, parent indices, and the forward value.  Nodes
are appended in execution order, so the list is always topologically
sorted and :meth:`Tape.backward` is a single reverse sweep.  Values are
2-D float64 arrays, frozen on creation; scalars are 1-by-1 matrices.
Shapes must match exactly, except that :meth:`Tape.add_bias` broadcasts a
row or a scalar.  An op whose adjoint reads forward intermediates keeps
them in ``Node.saved``.

Only first-order gradients of a single scalar output are supported, and a
tape must stay on the thread that created it.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
    "add_bias": lambda vs, m: vs[0] + vs[1],
    "sigmoid": lambda vs, m: mx.sigmoid(vs[0]),
    "tanh": lambda vs, m: np.tanh(vs[0]),
    "exp": lambda vs, m: np.exp(vs[0]),
    "log": lambda vs, m: np.log(vs[0]),
    "row_softmax": lambda vs, m: mx.row_softmax(vs[0]),
    "sum": lambda vs, m: np.array([[vs[0].sum()]]),
    "vstack": lambda vs, m: np.vstack(vs),
    "transpose": lambda vs, m: vs[0].T.copy(),
    "monotonic_alignment": lambda vs, m: _stacked_alignment(vs, m[0]),
    "lookback_attention": lambda vs, m: _stacked_lookback(vs),
}


def _stacked_alignment(ps: list[np.ndarray], force_last_column: bool):
    """Alignment of every head's p in one wavefront, heads stacked by row."""
    alpha, *saved = monotonic.alignment_forward(np.stack(ps), force_last_column)
    return (alpha.reshape(-1, alpha.shape[2]), *saved)


def _stacked_lookback(vs: list[np.ndarray]):
    """Lookback of the row-stacked alpha ``vs[0]`` over the heads' energies
    ``vs[1:]``; keeps the stacked energies for the adjoint."""
    e = np.concatenate(vs[1:])
    beta, r, s = monotonic.lookback_forward(vs[0], e)
    return beta, e, r, s


def _stacked_alignment_adjoint(ps, qs, grad: np.ndarray, force_last_column: bool):
    n_heads, n_target = ps.shape[1:]
    p_adj = monotonic.alignment_adjoint(
        ps, qs, grad.reshape(n_heads, n_target, -1), force_last_column)
    return tuple(p_adj)


def _stacked_lookback_adjoint(alpha, e, r, s, grad: np.ndarray, n_heads: int):
    alpha_adj, e_adj = monotonic.lookback_adjoint(alpha, e, r, s, grad)
    return (alpha_adj, *np.split(e_adj, n_heads))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum ``grad`` over the axes a 1 x n row or a 1 x 1 scalar was broadcast on."""
    out = grad.sum(axis=0, keepdims=True)
    return out.sum(axis=1, keepdims=True) if shape[1] == 1 else out


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
    "add_bias": lambda y, g, vs, m, s: (g, _unbroadcast(g, vs[1].shape)),
    "sigmoid": lambda y, g, vs, m, s: (g * y * (1.0 - y),),
    "tanh": lambda y, g, vs, m, s: (g * (1.0 - y * y),),
    "exp": lambda y, g, vs, m, s: (g * y,),
    "log": lambda y, g, vs, m, s: (g / vs[0],),
    "row_softmax": lambda y, g, vs, m, s: (_softmax_adjoint(y, g),),
    "sum": lambda y, g, vs, m, s: (np.full_like(vs[0], g[0, 0]),),
    "vstack": lambda y, g, vs, m, s: _vstack_adjoint(g, m),
    "transpose": lambda y, g, vs, m, s: (g.T.copy(),),
    "monotonic_alignment": lambda y, g, vs, m, s:
        _stacked_alignment_adjoint(s[0], s[1], g, m[0]),
    "lookback_attention": lambda y, g, vs, m, s:
        _stacked_lookback_adjoint(vs[0], *s, g, len(vs) - 1),
}


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

    def add_bias(self, a: Node, b: Node) -> Node:
        """``a`` plus a 1 x n row ``b`` added to every row, or plus a 1 x 1
        scalar ``b`` added to every entry."""
        if b.value.shape not in ((1, a.value.shape[1]), (1, 1)):
            raise ShapeError(
                f"add_bias: bias {b.value.shape} is neither a 1x{a.value.shape[1]} "
                "row nor a 1x1 scalar")
        return self._record("add_bias", (a, b))

    def sigmoid(self, a: Node) -> Node:
        return self._record("sigmoid", (a,))

    def tanh(self, a: Node) -> Node:
        return self._record("tanh", (a,))

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

    def vstack(self, rows: list[Node]) -> Node:
        if not rows:
            raise ValueError("vstack: need at least one row")
        cols = rows[0].value.shape[1]
        for r in rows:
            if r.value.shape[1] != cols:
                raise ShapeError("vstack: rows have differing widths")
        return self._record("vstack", tuple(rows),
                            tuple(r.value.shape[0] for r in rows))

    def monotonic_alignment(self, p: Node | Sequence[Node],
                            force_last_column: bool = False) -> Node:
        """Expected monotonic alignment of the stepwise probabilities of one
        head ``p``, or of several same-shape heads, in one wavefront (see
        :mod:`emma_stream.numerics.monotonic`). Recorded as one node whose
        value stacks the heads' alignments by row: H |y| x |x|."""
        heads = (p,) if isinstance(p, Node) else tuple(p)
        if not heads:
            raise ValueError("monotonic_alignment: need at least one head")
        for q in heads[1:]:
            mx._check_same_shape(heads[0].value, q.value, "monotonic_alignment")
        return self._record("monotonic_alignment", heads, (bool(force_last_column),))

    def lookback_attention(self, alpha: Node, e: Node | Sequence[Node]) -> Node:
        """Infinite-lookback attention of the row-stacked alignments ``alpha``
        over each head's energies ``e`` (one node, or one per head, in
        ``alpha``'s row order), recorded as one node shaped like ``alpha``."""
        heads = (e,) if isinstance(e, Node) else tuple(e)
        if not heads:
            raise ValueError("lookback_attention: need at least one head")
        for energy in heads:
            mx._check_same_shape(heads[0].value, energy.value, "lookback_attention")
            if np.any(energy.value <= 0.0):
                raise DomainError(
                    "lookback_attention: energies must be strictly positive")
        rows, cols = heads[0].value.shape
        if alpha.value.shape != (len(heads) * rows, cols):
            raise ShapeError(
                f"lookback_attention: alpha {alpha.value.shape} does not stack "
                f"{len(heads)} heads of {heads[0].value.shape}")
        return self._record("lookback_attention", (alpha, *heads))

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
