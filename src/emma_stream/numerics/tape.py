"""Eager-recording reverse-mode differentiation over the matrix catalog.

A :class:`Tape` records every primitive application as a :class:`Node`
holding the operation kind, parent indices, the forward value and its
adjoint.  Each op is stated once, in its :class:`Tape` method: the method
checks its inputs, runs the forward kernel and records the value with an
``adjoint`` closure over what the adjoint kernel reads.  Nodes are
appended in execution order, so the list is always topologically sorted
and :meth:`Tape.backward` is a single reverse sweep.  Values are 2-D
float64 arrays, frozen on creation; scalars are 1-by-1 matrices, and
shapes must match exactly.  ``Node.saved`` keeps the forward
intermediates that callers read: the stepwise op's layers and
activations, and the delay moments and delays.  The policy-head ops
:meth:`Tape.stepwise` and :meth:`Tape.energies` read every head's
parameters from one parameter leaf, and :meth:`Tape.readout` reads its
weights from it too.  The leaf is one flat 1 x n parameter row, or R such
rows of one layout: their R x H heads travel as one node, stacked by row,
and the tail ops give one output row per block of rows, each bit for bit
a one-row leaf's (numpy's batched products do that; one tall product over
all blocks rounds differently).

The primitives are the ones the objective records, and no others.
Element-wise ``sigmoid``, ``tanh``, ``exp``, ``log`` and ``row_softmax``
are not tape ops: the fused ops evaluate them inside their own forwards
and adjoints.

Only first-order gradients of a single scalar output are supported, and a
tape must stay on the thread that created it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DomainError, ShapeError
from . import matrix as mx
from . import monotonic, policy

__all__ = ["Node", "Tape"]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


class Node:
    """Handle to one recorded value on a tape, carrying its own adjoint.

    ``adjoint(g)`` maps the gradient ``g`` of the node's value to one
    gradient per parent, in ``parents`` order; a leaf has none. The closure
    holds what it reads (parent values and forward intermediates), never
    the tape. A node does not refer back to its tape either: a tape and its
    nodes would form a reference cycle, and every finished tape, saved
    intermediates and all, would wait for the cyclic garbage collector
    instead of being freed when the objective returns. A tape recognises
    its nodes by index.
    """

    __slots__ = ("index", "op", "value", "parents", "adjoint", "saved")

    def __init__(self, index: int, op: str, value: np.ndarray,
                 parents: tuple[int, ...], adjoint: Callable | None,
                 saved: tuple = ()):
        self.index = index
        self.op = op
        self.value = value
        self.parents = parents
        self.adjoint = adjoint
        self.saved = saved


def _delay_moments(alpha: np.ndarray, ideal: np.ndarray, weights: np.ndarray):
    """Per block r of rows of ``alpha``: its moments [mean(d - ideal),
    mean(v)] times ``weights[r]``, R x 1; and the R x 2 moments and the
    delays d, one row of them per block."""
    d, v = monotonic.delay_moments(alpha.reshape(len(weights), -1, alpha.shape[1]))
    n = d.shape[1]
    lat = (d.reshape(len(weights), -1, ideal.size) - ideal).sum(axis=(1, 2)) / n
    moments = np.stack([lat, v.sum(axis=1) / n], axis=1)
    return (moments[:, None] @ weights[:, :, None]).reshape(-1, 1), moments, d


def _readout(beta: np.ndarray, theta: np.ndarray, v: np.ndarray,
             head_mean: np.ndarray, w_slot, b_slot):
    """Logits of every block r of rows of ``beta``: head_mean @ (beta_r @ v)
    @ W_r + b_r, W_r and b_r read from row r of ``theta``; and the R stacked
    head means."""
    x = head_mean @ (beta.reshape(len(theta), -1, beta.shape[1]) @ v)
    logits = x @ policy.view(theta, w_slot) + policy.view(theta, b_slot)
    return logits.reshape(-1, logits.shape[2]), x


def _cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Per block of len(targets) rows, -sum_i log softmax(logits)[i,
    targets[i]], R x 1; and the softmax.

    Summed over the one-hot mask of the targets, the order in which the
    composed graph summed: its round-off in the value is what the central
    differences of the objective's gradient check see.
    """
    softmax = mx.row_softmax(logits)
    if np.any(softmax <= 0.0):
        raise DomainError("cross_entropy: softmax underflowed to zero")
    onehot = np.zeros_like(logits)
    onehot[np.arange(len(logits)), np.resize(targets, len(logits))] = 1.0
    return -(onehot * np.log(softmax)).reshape(
        -1, targets.size * logits.shape[1]).sum(axis=1, keepdims=True), softmax


def _readout_adjoint(theta: np.ndarray, v: np.ndarray, head_mean: np.ndarray,
                     w_slot, b_slot, x: np.ndarray, grad: np.ndarray):
    g = grad.reshape(x.shape[:2] + (-1,))
    theta_adj = np.zeros_like(theta)
    policy.view(theta_adj, w_slot)[...] = np.swapaxes(x, 1, 2) @ g
    policy.view(theta_adj, b_slot)[...] = g.sum(axis=1, keepdims=True)
    x_adj = g @ np.swapaxes(policy.view(theta, w_slot), 1, 2)
    beta_adj = (head_mean.T @ x_adj) @ v.T
    return beta_adj.reshape(-1, beta_adj.shape[2]), theta_adj


def _delay_moments_adjoint(alpha: np.ndarray, weights: np.ndarray,
                           d: np.ndarray, grad: np.ndarray):
    """d lat / d alpha[i, j] = j / n, d var / d alpha[i, j] = (j^2 - 2 d_i j) / n
    for n rows per block, each block's pair weighted by its grad times its
    ``weights`` row."""
    j = np.arange(1.0, alpha.shape[1] + 1.0)
    g_lat, g_var = ((grad * weights) / d.shape[1]).T[..., None, None]
    out = g_lat * j + g_var * (j * j - 2.0 * (d[..., None] * j))
    return (out.reshape(alpha.shape),)


def _cross_entropy_adjoint(softmax: np.ndarray, grad: np.ndarray, targets):
    g = np.repeat(grad, len(targets), axis=0)  # each block's grad, per row
    out = softmax * g
    out[np.arange(len(out)), np.resize(targets, len(out))] -= g[:, 0]
    return out


def _policy_states(op: str, theta: Node, s, h, heads: policy.HeadSlots):
    """Checked, frozen states (s, h) of a policy-head op."""
    if theta.value.shape[1] < heads.n_heads * heads.stride:
        raise ShapeError(f"{op}: parameter rows {theta.value.shape} do not "
                         f"hold {heads.n_heads} heads of {heads.stride}")
    s, h = _freeze(mx.as_matrix(s).copy()), _freeze(mx.as_matrix(h).copy())
    if s.shape[1] != h.shape[1]:
        raise ShapeError(f"{op}: state dims differ: {s.shape[1]} vs {h.shape[1]}")
    return s, h


class Tape:
    """Ordered record of primitive applications with reverse-mode backward."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def _holds(self, node: Node) -> bool:
        return node.index < len(self.nodes) and self.nodes[node.index] is node

    def _record(self, op: str, parents: tuple[Node, ...], value: np.ndarray,
                adjoint: Callable | None, saved: tuple = ()) -> Node:
        for p in parents:
            if not self._holds(p):
                raise LookupError("parent node belongs to a different tape")
        node = Node(len(self.nodes), op, _freeze(value),
                    tuple([p.index for p in parents]), adjoint, saved)
        self.nodes.append(node)
        return node

    # -- leaves -----------------------------------------------------------
    def leaf(self, value) -> Node:
        """Record an input matrix (gradients are reported for every leaf)."""
        return self._record("leaf", (), mx.as_matrix(value).copy(), None)

    # -- primitives --------------------------------------------------------
    def add(self, a: Node, b: Node) -> Node:
        mx._check_same_shape(a.value, b.value, "add")
        return self._record("add", (a, b), a.value + b.value, lambda g: (g, g))

    def sum(self, a: Node) -> Node:
        """Total sum as a 1x1 matrix."""
        return self._record("sum", (a,), np.array([[a.value.sum()]]),
                            lambda g: (np.full_like(a.value, g[0, 0]),))

    def monotonic_alignment(self, p: Node, force_last_column: bool = False,
                            heads: int = 1) -> Node:
        """Expected monotonic alignment of the stepwise probabilities ``p``,
        which stack ``heads`` heads by row, in one wavefront (see
        :mod:`emma_stream.numerics.monotonic`). Recorded as one node whose
        value stacks every head's alignment by row, in order."""
        if heads < 1 or p.value.shape[0] % heads:
            raise ShapeError(f"monotonic_alignment: {p.value.shape[0]} rows do "
                             f"not stack {heads} heads")
        force = bool(force_last_column)
        alpha, ps, qs = monotonic.alignment_forward(
            p.value.reshape(heads, -1, p.value.shape[1]), force)
        return self._record(
            "monotonic_alignment", (p,), alpha.reshape(-1, alpha.shape[2]),
            lambda g: (monotonic.alignment_adjoint(
                ps, qs, g.reshape(heads, -1, g.shape[1]), force).reshape(g.shape),))

    def lookback_attention(self, alpha: Node, e: Node) -> Node:
        """Infinite-lookback attention of the row-stacked alignments ``alpha``
        over the energies ``e``, stacked alike; one node shaped like
        ``alpha``."""
        mx._check_same_shape(alpha.value, e.value, "lookback_attention")
        if np.any(e.value <= 0.0):
            raise DomainError("lookback_attention: energies must be strictly positive")
        beta, r, s = monotonic.lookback_forward(alpha.value, e.value)
        return self._record("lookback_attention", (alpha, e), beta,
                            lambda g: monotonic.lookback_adjoint(
                                alpha.value, e.value, r, s, g))

    def stepwise(self, theta: Node, s: np.ndarray, h: np.ndarray,
                 heads: policy.HeadSlots) -> Node:
        """Stepwise probabilities of every head, row-stacked H |y| x |x|,
        with the heads' parameters read from each row of ``theta`` where
        ``heads`` places them (see :mod:`emma_stream.numerics.policy`); an
        R-row ``theta`` gives R H |y| rows, ordered by row, then by head.
        Decoder states ``s`` and encoder states ``h`` are constants.
        Recorded as one node."""
        s, h = _policy_states("stepwise", theta, s, h, heads)
        p, saved = policy.heads_stepwise(theta.value, s, h, heads)
        return self._record("stepwise", (theta,), p,
                            lambda g: (policy.heads_stepwise_adjoint(
                                theta.value, p, saved, heads, g),), (saved,))

    def energies(self, theta: Node, s: np.ndarray, h: np.ndarray,
                 heads: policy.HeadSlots) -> Node:
        """Attention energies of every head, row-stacked like
        :meth:`stepwise`, as one node. Each row's max score is subtracted
        as a constant: the lookback attention does not see a per-row
        energy scale, so the adjoint leaves the max out."""
        s, h = _policy_states("energies", theta, s, h, heads)
        e, qk = policy.heads_energies(theta.value, s, h, heads)
        return self._record("energies", (theta,), e,
                            lambda g: (policy.heads_energies_adjoint(
                                theta.value, e, qk, s, h, heads, g),))

    def delay_moments(self, alpha: Node, ideal, weights) -> Node:
        """R x 1: per block r of rows of ``alpha``, one per row of the R x 2
        ``weights``, its moments [mean(d - ideal), mean(v)] @ weights[r].
        Row i has expected source position d_i = sum_j j alpha[i, j] and
        spread v_i = sum_j j^2 alpha[i, j] - d_i^2 (positions j from 1);
        ``ideal`` holds one target delay per row of a head. The R x 2
        moments and the R blocks' delays d are in ``Node.saved``."""
        ideal = _freeze(np.array(ideal, dtype=np.float64).ravel())
        weights = _freeze(mx.as_matrix(weights).copy())
        n_rows = alpha.value.shape[0]
        if weights.shape[1] != 2 or ideal.size == 0 \
                or n_rows % (len(weights) * ideal.size):
            raise ShapeError(f"delay_moments: weights {weights.shape} and "
                             f"{ideal.size} ideal delays do not fit {n_rows} rows")
        value, moments, d = _delay_moments(alpha.value, ideal, weights)
        return self._record("delay_moments", (alpha,), value,
                            lambda g: _delay_moments_adjoint(
                                alpha.value, weights, d, g), (moments, d))

    def readout(self, beta: Node, theta: Node, v, heads: int,
                w_slot: policy.Slot, b_slot: policy.Slot) -> Node:
        """Logits stacked by block r of rows of ``beta``, one per row of
        ``theta``: the mean over its ``heads`` heads of beta_r @ v, for the
        constant ``v``, times W_r plus the row b_r, read from row r of
        ``theta`` at ``(offset, rows, cols)`` slots."""
        v = _freeze(mx.as_matrix(v).copy())
        n_blocks, n = theta.value.shape
        n_rows = beta.value.shape[0]
        (w_off, rows, cols), (b_off, b_rows, b_cols) = w_slot, b_slot
        if heads < 1 or n_rows % (n_blocks * heads) \
                or beta.value.shape[1] != v.shape[0] or v.shape[1] != rows \
                or (b_rows, b_cols) != (1, cols) or min(w_off, b_off) < 0 \
                or max(w_off + rows * cols, b_off + cols) > n:
            raise ShapeError(f"readout: slots {w_slot}, {b_slot} and values "
                             f"{v.shape} do not fit {heads} heads of beta "
                             f"{beta.value.shape} and theta {theta.value.shape}")
        n_target = n_rows // (n_blocks * heads)
        # the head average [I ... I] / H of one block's rows, as one matmul
        head_mean = _freeze((np.arange(n_target * heads) % n_target
                             == np.arange(n_target)[:, None]) / heads)
        logits, x = _readout(beta.value, theta.value, v, head_mean,
                             w_slot, b_slot)
        return self._record("readout", (beta, theta), logits,
                            lambda g: _readout_adjoint(theta.value, v, head_mean,
                                                       w_slot, b_slot, x, g))

    def cross_entropy(self, logits: Node, targets) -> Node:
        """R x 1: per block of len(targets) rows, the summed negative
        log-likelihood -sum_i log softmax(logits)[i, targets[i]]."""
        targets = np.array(targets, dtype=np.intp).ravel()
        rows, cols = logits.value.shape
        if targets.size == 0 or rows % targets.size or targets.min() < 0 \
                or targets.max() >= cols:
            raise ValueError(f"cross_entropy: need blocks of targets in "
                             f"[0, {cols}) dividing {rows} rows, got {targets}")
        value, softmax = _cross_entropy(logits.value, targets)
        return self._record("cross_entropy", (logits,), value,
                            lambda g: (_cross_entropy_adjoint(softmax, g, targets),))

    # -- backward ---------------------------------------------------------
    def backward(self, output: Node) -> list[np.ndarray]:
        """Gradients of a scalar ``output`` with respect to every node.

        Returns one array per node, indexed like ``self.nodes``; nodes the
        output does not depend on get zeros. The other arrays are read-only,
        since several nodes may share one.
        """
        if not self._holds(output):
            raise LookupError("output node is not on this tape")
        if output.value.shape != (1, 1):
            raise ValueError(
                f"backward requires a scalar (1x1) output, got {output.value.shape}")

        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[output.index] = _freeze(np.ones((1, 1)))
        for node in reversed(self.nodes[:output.index + 1]):
            g = grads[node.index]
            if g is None or node.op == "leaf":
                continue
            for p_idx, pg in zip(node.parents, node.adjoint(g)):
                if grads[p_idx] is not None:
                    pg = grads[p_idx] + pg
                # stored as the adjoint made it: accumulation is out of
                # place, and read-only, since one array may reach two
                # parents (add passes g to both)
                pg.setflags(write=False)
                grads[p_idx] = pg
        return [g if g is not None else np.zeros_like(n.value)
                for g, n in zip(grads, self.nodes)]
