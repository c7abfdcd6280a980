"""Reverse-mode differentiation over a fixed set of dense/sparse primitives.

This is not a general autodiff system: it supports exactly the operations the
models in this package need (dense matmul, CSR propagation, activations,
softmax, dropout, cross-entropy, the branch gate, the gated GCN branch mixture
``gcn_mixture``, edge gather/softmax/scatter for attention, and a few
reductions). Every primitive records its inputs and a backward closure on the
implicit tape formed by the ``Tensor`` graph; ``backward`` replays it in
reverse topological order, visiting each node once.

All values are 64-bit floats. Every primitive checks its output for NaN/Inf
and raises ``NumericError`` instead of letting non-finite values propagate.
Stochastic draws (dropout masks, any noise supplied by the caller) are
captured at forward time and treated as constants by the backward pass.

The edge primitives scatter without ``np.add.at``. ``edge_combine`` takes a
``sparse.EdgeIndex`` built once per graph: its forward is the CSR product
``A_dst(w) @ msgs`` over the target-ordered layout, and its ``msgs``
gradient is ``A_src(w) @ g`` over the source-ordered one. ``edge_softmax``
shifts scores by ``EdgeIndex.segment_max``; its denominators and the backward
of ``gather_rows`` are one ``np.bincount`` per column. Both orders are stable
sorts of the edge list and ``bincount`` adds in index order, so every per-node
sum adds the same terms in the same order as an ``np.add.at`` scatter over the
edge list, and results are bitwise equal to it.
"""

from __future__ import annotations

import numpy as np

from .rng import Rng
from .sparse import DimensionError, EdgeIndex, SparseAdj


class NumericError(FloatingPointError):
    """A primitive produced NaN or Inf."""


class EdgeTouchCounter:
    """Counts stored-edge touches of sparse propagation (complexity probe)."""

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)


edge_touches = EdgeTouchCounter()


def _check_finite(a: np.ndarray, op: str):
    if not np.all(np.isfinite(a)):
        raise NumericError(f"non-finite values produced by '{op}'")


class Tensor:
    """A node of the tape: a float64 array plus provenance."""

    __slots__ = ("value", "grad", "parents", "op", "needs_grad", "_backward", "__weakref__")

    def __init__(self, value, parents=(), op="leaf", backward=None, needs_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        _check_finite(self.value, op)
        self.parents = tuple(parents)
        self.op = op
        self._backward = backward
        self.needs_grad = needs_grad or any(p.needs_grad for p in self.parents)
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):  # pragma: no cover
        return f"Tensor(op={self.op}, shape={self.value.shape})"


def constant(value) -> Tensor:
    return Tensor(value, op="const")


def parameter(value) -> Tensor:
    """A trainable leaf; always receives a gradient buffer in backward."""
    return Tensor(np.array(value, dtype=np.float64), op="param", needs_grad=True)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _accum(t: Tensor, g: np.ndarray):
    if not t.needs_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, s in enumerate(shape):
        if s == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _topo(root: Tensor) -> list[Tensor]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.needs_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every registered parameter.

    Parameters not reached by the tape get zero gradients of matching shape.
    """
    if loss.value.size != 1:
        raise ValueError("backward root must be a scalar")
    order = _topo(loss)
    reached = {id(n) for n in order}
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    out = {}
    for name, p in params.items():
        if id(p) in reached and p.grad is not None:
            out[name] = np.array(p.grad, dtype=np.float64)
        else:
            out[name] = np.zeros_like(p.value)
    return out


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = Tensor(a.value + b.value, (a, b), "add")

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    out._backward = bwd
    return out


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    out = Tensor(a.value * b.value, (a, b), "mul")

    def bwd(g):
        _accum(a, _unbroadcast(g * b.value, a.shape))
        _accum(b, _unbroadcast(g * a.value, b.shape))

    out._backward = bwd
    return out


def scale(a, c: float) -> Tensor:
    a = _lift(a)
    c = float(c)
    out = Tensor(a.value * c, (a,), "scale")
    out._backward = lambda g: _accum(a, g * c)
    return out


def mix(e, branches) -> Tensor:
    """Per-node gated sum ``sum_k e[:, k:k+1] * branches[k]`` of K (N, H)
    branch outputs under (N, K) gates, adding the terms left to right."""
    e = _lift(e)
    branches = [_lift(b) for b in branches]
    gates, vals = e.value, [b.value for b in branches]
    if (not vals or vals[0].ndim != 2 or gates.shape != (vals[0].shape[0], len(vals))
            or any(v.shape != vals[0].shape for v in vals)):
        raise DimensionError(f"mix: gates {gates.shape}, branches {[v.shape for v in vals]}")
    total = gates[:, 0:1] * vals[0]
    for k in range(1, len(vals)):
        total = total + gates[:, k : k + 1] * vals[k]
    out = Tensor(total, (e, *branches), "mix")

    def bwd(g):
        ge = np.empty(gates.shape)
        for k, v in enumerate(vals):
            ge[:, k] = (g * v).sum(axis=1)
        _accum(e, ge)
        for k, b in enumerate(branches):
            _accum(b, g * gates[:, k : k + 1])

    out._backward = bwd
    return out


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {a.value.shape} x {b.value.shape}"
        )
    out = Tensor(a.value @ b.value, (a, b), "matmul")

    def bwd(g):
        _accum(a, g @ b.value.T)
        _accum(b, a.value.T @ g)

    out._backward = bwd
    return out


def transpose(a) -> Tensor:
    a = _lift(a)
    out = Tensor(a.value.T, (a,), "transpose")
    out._backward = lambda g: _accum(a, g.T)
    return out


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Contiguous row slice a[start:stop]."""
    a = _lift(a)
    out = Tensor(a.value[start:stop], (a,), "slice_rows")

    def bwd(g):
        buf = np.zeros(a.shape)
        buf[start:stop] = g
        _accum(a, buf)

    out._backward = bwd
    return out


def spmm(s: SparseAdj, m) -> Tensor:
    """Sparse-adjacency times dense matrix; counts stored-edge touches."""
    m = _lift(m)
    if s.n != m.value.shape[0]:
        raise DimensionError(
            f"spmm shape mismatch: adjacency n={s.n}, matrix rows={m.value.shape[0]}"
        )
    edge_touches.add(s.nnz)
    out = Tensor(s.csr @ m.value, (m,), "spmm")
    out._backward = lambda g: _accum(m, s.csr.T @ g)
    return out


def gcn_mixture(adj: SparseAdj, z, e, w_d, w_self) -> Tensor:
    """Gated GCN mixture ``sum_k e[:, k:k+1] * (A z W_d,k^T + z W_self,k^T)``
    of K branches under (N, K) gates, as one node.

    The K message and K self transforms are one matmul each over the stacked
    weights; propagation stays one CSR product per branch, so one call counts
    K * nnz edge touches.
    """
    z, e = _lift(z), _lift(e)
    w_d, w_self = [_lift(w) for w in w_d], [_lift(w) for w in w_self]
    zv, gates, k = z.value, e.value, len(w_d)
    shape = w_d[0].shape if w_d else ()
    if (zv.ndim != 2 or len(shape) != 2 or shape[1] != zv.shape[1] or len(w_self) != k
            or any(w.shape != shape for w in w_d + w_self)
            or adj.n != len(zv) or gates.shape != (len(zv), k)):
        raise DimensionError(f"gcn_mixture: adjacency n={adj.n}, z {zv.shape}, "
                             f"gates {gates.shape}, w_d {[w.shape for w in w_d]}, "
                             f"w_self {[w.shape for w in w_self]}")
    n, h = len(zv), shape[0]
    wd = np.concatenate([w.value for w in w_d])  # (K*H, H_in)
    ws = np.concatenate([w.value for w in w_self])
    msgs = zv @ wd.T
    branches = (zv @ ws.T).reshape(n, k, h)
    for j in range(k):
        edge_touches.add(adj.nnz)
        branches[:, j] += adj.csr @ msgs[:, j * h:(j + 1) * h]
    out = Tensor(np.einsum("nk,nkh->nh", gates, branches), (z, e, *w_d, *w_self), "gcn_mixture")

    def bwd(g):
        _accum(e, np.einsum("nh,nkh->nk", g, branches))
        gs = np.einsum("nh,nk->nkh", g, gates).reshape(n, k * h)
        gd = adj.csr.T @ gs  # each column on its own: equal to K branch products
        _accum(z, gd @ wd + gs @ ws)
        gwd, gws = gd.T @ zv, gs.T @ zv
        for j in range(k):
            _accum(w_d[j], gwd[j * h:(j + 1) * h])
            _accum(w_self[j], gws[j * h:(j + 1) * h])

    out._backward = bwd
    return out


def relu(a) -> Tensor:
    a = _lift(a)
    pos = a.value > 0
    out = Tensor(np.where(pos, a.value, 0.0), (a,), "relu")
    out._backward = lambda g: _accum(a, g * pos)
    return out


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    if not 0.0 <= slope < 1.0:
        raise ValueError("leaky_relu slope must lie in [0, 1)")
    a = _lift(a)
    pos = a.value > 0
    out = Tensor(np.where(pos, a.value, slope * a.value), (a,), "leaky_relu")
    out._backward = lambda g: _accum(a, g * np.where(pos, 1.0, slope))
    return out


def row_softmax(a) -> Tensor:
    """Row-wise softmax with max-subtraction; rows sum to 1 within 1e-12."""
    a = _lift(a)
    z = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, (a,), "row_softmax")

    def bwd(g):
        _accum(a, (g - (g * y).sum(axis=-1, keepdims=True)) * y)

    out._backward = bwd
    return out


def row_log_softmax(a) -> Tensor:
    """Row-wise log-softmax, stable even where the softmax underflows to 0."""
    a = _lift(a)
    z = a.value - a.value.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    y = z - lse
    out = Tensor(y, (a,), "row_log_softmax")

    def bwd(g):
        _accum(a, g - g.sum(axis=-1, keepdims=True) * np.exp(y))

    out._backward = bwd
    return out


def dropout(a, p: float, rng: Rng, training: bool) -> Tensor:
    """Inverted dropout; the mask is drawn once and frozen on the tape."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must lie in [0, 1)")
    a = _lift(a)
    if not training or p == 0.0:
        return a
    keep = (rng.uniform(a.value.shape) >= p) / (1.0 - p)
    out = Tensor(a.value * keep, (a,), "dropout")
    out._backward = lambda g: _accum(a, g * keep)
    return out


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------


def sum_all(a) -> Tensor:
    a = _lift(a)
    out = Tensor(a.value.sum(), (a,), "sum_all")
    out._backward = lambda g: _accum(a, np.full(a.shape, float(g)))
    return out


def masked_row_mean(a, rows) -> Tensor:
    """Mean over selected rows of the row-sums of ``a`` (scalar output)."""
    a = _lift(a)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("masked_row_mean: empty row selection")
    out = Tensor(a.value[rows].sum() / rows.size, (a,), "masked_row_mean")

    def bwd(g):
        buf = np.zeros(a.shape)
        buf[rows] = float(g) / rows.size
        _accum(a, buf)

    out._backward = bwd
    return out


def cross_entropy(logits, labels, mask) -> Tensor:
    """Mean over masked nodes of -log softmax(logits)[label]."""
    logits = _lift(logits)
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.asarray(mask, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cross_entropy: empty mask")
    n, c = logits.value.shape
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("cross_entropy: label out of range")
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(n), labels]
    losses = lse - picked
    out = Tensor(losses[rows].mean(), (logits,), "cross_entropy")

    def bwd(g):
        soft = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        buf = np.zeros((n, c))
        buf[rows] = soft[rows]
        buf[rows, labels[rows]] -= 1.0
        _accum(logits, buf * (float(g) / rows.size))

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# edge-level primitives (attention propagation)
# ---------------------------------------------------------------------------


def _scatter_rows(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """``out[idx[i]] += vals[i]`` over rows of ``vals``, one ``bincount`` per
    column; it adds in index order, so it is bitwise equal to ``np.add.at``."""
    cols = vals.reshape(len(idx), -1)
    out = np.empty((n, cols.shape[1]))
    for c in range(cols.shape[1]):
        out[:, c] = np.bincount(idx, weights=cols[:, c], minlength=n)
    return out.reshape((n,) + vals.shape[1:])


def gather_rows(a, idx) -> Tensor:
    a = _lift(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.value[idx], (a,), "gather_rows")
    out._backward = lambda g: _accum(a, _scatter_rows(idx, g, a.shape[0]))
    return out


def edge_softmax(scores, edges: EdgeIndex) -> Tensor:
    """Softmax of (E, 1) edge scores over each target's incoming edges, as an
    (E,) tensor; scores are shifted by their target's maximum first."""
    scores = _lift(scores)
    if scores.value.shape != (edges.num_edges, 1):
        raise DimensionError(f"edge_softmax: {edges.num_edges} edges, scores {scores.shape}")
    dst, n = edges.dst, edges.n
    s = scores.value[:, 0]
    ex = np.exp(s - edges.segment_max(s)[dst])
    d = _scatter_rows(dst, ex, n)[dst]  # >= 1: each target's max term is exp(0)
    out = Tensor(ex / d, (scores,), "edge_softmax")

    # capture arrays, not ``out``: a closure on its own node is a reference
    # cycle that keeps the whole tape alive until the cyclic collector runs
    def bwd(g):
        gx = g / d + _scatter_rows(dst, -g * ex / (d * d), n)[dst]
        _accum(scores, (gx * ex)[:, None])

    out._backward = bwd
    return out


def edge_combine(w, msgs, edges: EdgeIndex) -> Tensor:
    """out[dst[e]] += w[e] * msgs[src[e]]; both ``w`` and ``msgs`` differentiable."""
    w, msgs = _lift(w), _lift(msgs)
    if w.value.ndim != 1 or w.value.shape[0] != edges.num_edges:
        raise DimensionError("edge_combine: weight/edge count mismatch")
    if msgs.value.ndim != 2 or msgs.value.shape[0] != edges.n:
        raise DimensionError(
            f"edge_combine: {edges.n} nodes, message rows {msgs.value.shape[:1]}"
        )
    out = Tensor(edges.scatter_to_dst(w.value, msgs.value), (w, msgs), "edge_combine")

    def bwd(g):
        _accum(w, (g[edges.dst] * msgs.value[edges.src]).sum(axis=1))
        _accum(msgs, edges.scatter_to_src(w.value, g))

    out._backward = bwd
    return out

