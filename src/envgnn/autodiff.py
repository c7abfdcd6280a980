"""Reverse-mode differentiation over a fixed set of dense/sparse primitives.

This is not a general autodiff system: it supports exactly the operations the
models in this package need: dense matmul and transpose, elementwise add and
mul of two operands of equal shape (they do not broadcast), scale, relu, row
softmax and log-softmax, dropout, cross-entropy, a masked row mean, and one
gated mixture layer per backbone, ``gcn_mixture`` and ``gat_mixture``. Every
primitive hands its inputs and a backward closure to the ``Tensor`` it makes,
and the node records them on the implicit tape formed by the ``Tensor`` graph
if a gradient flows through it; ``backward`` replays the tape in reverse
topological order, visiting each node once.

Gradient lifetime: a node that needs no gradient, because none of its inputs
is a parameter or depends on one, keeps nothing: no inputs and no closure,
and its primitive skips what only a backward would read (relu's mask, the
mixtures' gate-gradient map). A forward on constants (the model's eval
forward) therefore builds no tape, and each intermediate is freed as soon as
the next op has used it. ``backward`` releases an intermediate node's
gradient as soon as its closure has passed it on to the node's inputs, so at
most the gradients still waiting on their closures are resident at once.
Parameters keep theirs. The closures stay on the tape, so the same tape can
be replayed by a second ``backward`` with the same result. A tape is freed by
reference counting when its last node goes out of scope: no closure refers to
its own output. While it lives, a node keeps for its closure only what the
backward reads, in the smallest exact form: ``gat_mixture`` keeps its
attention's exp-scores (E, K), per-target denominators (N, K) and the leaky
ReLU's sign as bools, and recomputes the attention from the first two in the
backward, one branch's column at a time, bitwise as the forward computed it;
``dropout`` keeps a bool mask and its scale.

All values are 64-bit floats. Every primitive checks its output for NaN/Inf
and raises ``NumericError`` instead of letting non-finite values propagate.
Stochastic draws (dropout masks, any noise supplied by the caller) are
captured at forward time and treated as constants by the backward pass.

Both mixtures take the graph's one ``sparse.SparseAdj``, a CSR matrix whose
rows are targets. ``gcn_mixture`` propagates through its normalized values.
``gat_mixture`` ignores them and scatters without ``np.add.at``: with
per-entry attention weights ``w`` the structure is ``A(w)``, its
attention-weighted sums are the products ``A(w) @ msgs``, and their ``msgs``
gradients the transpose products ``A(w).T @ g``. Its edge softmax shifts
scores by ``SparseAdj.segment_max``; its denominators and the per-node sums
of score gradients are one ``np.bincount`` per column. The products and
``bincount`` add each node's terms in stored entry order, as an ``np.add.at``
scatter over the stored entries does, so results are bitwise equal to it.

Nothing in ``gat_mixture`` is K*E*H in size. Its attention scores are
products of z with score vectors folded from ``W_a[k]^T b[k]``, and the
attention weights' gradient is one row-wise dot per branch over blocks of
edges, bitwise equal to the (K, E, H) gather-and-contract it replaces.

Two fast-path rules keep the hot kernels off numpy's slow paths without
changing a bit of their output:

- no ``np.where`` on a data-dependent mask: a value picked by a sign mask is
  ``np.maximum`` (relu) or arithmetic on the mask (the GAT leaky slope,
  ``_leaky_slope``: ``0.2 + 0.8 * (raw > 0)``, exactly 1.0 or 0.2);
- a row maximum is ``_row_max``, not ``max(axis=-1)``, which is slow over a
  last axis of a few entries.
"""

from __future__ import annotations

import numpy as np

from .rng import Rng
from .sparse import DimensionError, SparseAdj


class NumericError(FloatingPointError):
    """A primitive produced NaN or Inf."""


class EdgeTouchCounter:
    """Counts stored-edge touches of sparse propagation (complexity probe)."""

    def __init__(self):
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
        self.op = op
        self.needs_grad = needs_grad or any(p.needs_grad for p in parents)
        # a node no gradient flows through keeps neither its inputs nor its
        # closure, so its inputs are freed as soon as nothing else holds them
        self.parents, self._backward = (tuple(parents), backward) if self.needs_grad else ((), None)
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
    Each intermediate node's gradient is released once its closure has run;
    afterwards only parameter leaves hold a ``.grad``. The closures are kept,
    so calling ``backward`` again on the same loss gives the same gradients.
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
            node.grad = None
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


def _same_shape(op: str, a, b) -> tuple[Tensor, Tensor]:
    """The lifted operands of an elementwise op, which must have one shape."""
    a, b = _lift(a), _lift(b)
    if a.shape != b.shape:
        raise DimensionError(f"{op}: operand shapes {a.shape} and {b.shape} differ")
    return a, b


def add(a, b) -> Tensor:
    a, b = _same_shape("add", a, b)

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return Tensor(a.value + b.value, (a, b), "add", bwd)


def mul(a, b) -> Tensor:
    a, b = _same_shape("mul", a, b)

    def bwd(g):
        _accum(a, g * b.value)
        _accum(b, g * a.value)

    return Tensor(a.value * b.value, (a, b), "mul", bwd)


def scale(a, c: float) -> Tensor:
    a = _lift(a)
    c = float(c)
    return Tensor(a.value * c, (a,), "scale", lambda g: _accum(a, g * c))


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {a.value.shape} x {b.value.shape}"
        )

    def bwd(g):
        _accum(a, g @ b.value.T)
        _accum(b, a.value.T @ g)

    return Tensor(a.value @ b.value, (a, b), "matmul", bwd)


def transpose(a) -> Tensor:
    a = _lift(a)
    return Tensor(a.value.T, (a,), "transpose", lambda g: _accum(a, g.T))


def relu(a) -> Tensor:
    a = _lift(a)
    pos = a.value > 0 if a.needs_grad else None  # the mask only the backward reads
    return Tensor(np.maximum(a.value, 0.0), (a,), "relu", lambda g: _accum(a, g * pos))


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, bit for bit, for 1-D to 3-D ``a``.

    A reduction over a short last axis is slow in numpy; the elementwise
    maximum of the rows of its contiguous transpose is not, and max is exact
    in any order."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0)).max(axis=0)[..., None]


def row_softmax(a) -> Tensor:
    """Row-wise softmax with max-subtraction; rows sum to 1 within 1e-12."""
    a = _lift(a)
    z = a.value - _row_max(a.value)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        _accum(a, (g - (g * y).sum(axis=-1, keepdims=True)) * y)

    return Tensor(y, (a,), "row_softmax", bwd)


def row_log_softmax(a) -> Tensor:
    """Row-wise log-softmax, stable even where the softmax underflows to 0."""
    a = _lift(a)
    z = a.value - _row_max(a.value)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    y = z - lse

    def bwd(g):
        _accum(a, g - g.sum(axis=-1, keepdims=True) * np.exp(y))

    return Tensor(y, (a,), "row_log_softmax", bwd)


def dropout(a, p: float, rng: Rng, training: bool) -> Tensor:
    """Inverted dropout; the mask is drawn once and frozen on the tape as
    bools. Kept entries are scaled by ``c = 1/(1-p)``: ``mask * c`` is
    ``(u >= p) / (1 - p)`` bit for bit."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must lie in [0, 1)")
    a = _lift(a)
    if not training or p == 0.0:
        return a
    mask = rng.uniform(a.value.shape) >= p
    c = 1.0 / (1.0 - p)
    return Tensor(a.value * (mask * c), (a,), "dropout", lambda g: _accum(a, g * (mask * c)))


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------


def masked_row_mean(a, rows) -> Tensor:
    """Mean over selected rows of the row-sums of ``a`` (scalar output)."""
    a = _lift(a)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("masked_row_mean: empty row selection")

    def bwd(g):
        buf = np.zeros(a.shape)
        buf[rows] = float(g) / rows.size
        _accum(a, buf)

    return Tensor(a.value[rows].sum() / rows.size, (a,), "masked_row_mean", bwd)


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
    z = logits.value - _row_max(logits.value)
    ez = np.exp(z)
    sums = ez.sum(axis=1, keepdims=True)
    lse = np.log(sums[:, 0])
    picked = z[np.arange(n), labels]
    losses = lse - picked

    def bwd(g):
        soft = ez / sums
        buf = np.zeros((n, c))
        buf[rows] = soft[rows]
        buf[rows, labels[rows]] -= 1.0
        _accum(logits, buf * (float(g) / rows.size))

    return Tensor(losses[rows].mean(), (logits,), "cross_entropy", bwd)


# ---------------------------------------------------------------------------
# gated mixture layers
# ---------------------------------------------------------------------------


def _mixture_operands(op: str, n: int, z, e, w_d, w_self):
    """The lifted operands of a gated mixture on an ``n``-node graph, checked:
    (N, H_in) inputs, (N, K) gates, (K, H, H_in) message weights, and self
    weights of that shape or None."""
    z, e, w_d = _lift(z), _lift(e), _lift(w_d)
    w_self = None if w_self is None else _lift(w_self)
    if (z.value.ndim != 2 or w_d.value.ndim != 3 or w_d.shape[2] != z.shape[1]
            or (w_self is not None and w_self.shape != w_d.shape)
            or n != len(z.value) or e.shape != (n, w_d.shape[0])):
        raise DimensionError(f"{op}: graph n={n}, z {z.shape}, gates {e.shape}, w_d {w_d.shape}, "
                             f"w_self {None if w_self is None else w_self.shape}")
    return z, e, w_d, w_self


def _gate(e: Tensor, branches: np.ndarray, needs_grad: bool):
    """The sum of (N, K, H) branches under the (N, K) gates of ``e`` and, if
    ``needs_grad``, the map from its gradient to the branches' (N, K, H)
    gradient, which also accumulates the gates' own (else None). Under a
    constant (N, 1) gate of ones (erm's layers pass one) the sum is the one
    branch."""
    gates = e.value
    if not e.needs_grad and gates.shape[1] == 1 and (gates == 1.0).all():
        return branches[:, 0], lambda g: g[:, None]
    mixed = np.einsum("nk,nkh->nh", gates, branches)
    if not needs_grad:
        return mixed, None

    def branch_grad(g):
        if e.needs_grad:
            _accum(e, np.einsum("nh,nkh->nk", g, branches))
        return np.einsum("nh,nk->nkh", g, gates)

    return mixed, branch_grad


def gcn_mixture(adj: SparseAdj, z, e, w_d, w_self) -> Tensor:
    """Gated GCN mixture ``sum_k e[:, k:k+1] * (A z W_d[k]^T + z W_self[k]^T)``
    of K branches under (N, K) gates, as one node; a ``w_self`` of None drops
    the self term.

    The K message and K self transforms are one matmul each over a (K*H,
    H_in) view of the (K, H, H_in) weights, and propagation is one CSR product
    over the contiguous (N, K*H) message block. A CSR product sums each output
    column on its own, so that product equals K branch products bit for bit
    and still does the work of K propagations: one call counts K * nnz edge
    touches.
    """
    z, e, w_d, w_self = _mixture_operands("gcn_mixture", adj.n, z, e, w_d, w_self)
    zv, (n, k), h = z.value, e.shape, w_d.shape[1]
    wd = w_d.value.reshape(k * h, -1)
    ws = None if w_self is None else w_self.value.reshape(k * h, -1)
    edge_touches.add(k * adj.nnz)
    branches = (adj.csr @ (zv @ wd.T)).reshape(n, k, h)
    if ws is not None:
        branches += (zv @ ws.T).reshape(n, k, h)
    operands = tuple(p for p in (z, e, w_d, w_self) if p is not None)
    mixed, branch_grad = _gate(e, branches, any(p.needs_grad for p in operands))

    def bwd(g):
        gs = branch_grad(g).reshape(n, k * h)
        gd = adj.csr.T @ gs  # each column on its own: equal to K branch products
        gz = gd @ wd
        if w_self is not None:
            gz = gz + gs @ ws
            _accum(w_self, (gs.T @ zv).reshape(w_self.shape))
        _accum(z, gz)
        _accum(w_d, (gd.T @ zv).reshape(w_d.shape))

    return Tensor(mixed, operands, "gcn_mixture", bwd)


def _scatter_rows(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """``out[idx[i]] += vals[i]`` over rows of ``vals``, one ``bincount`` per
    column; it adds in index order, so it is bitwise equal to ``np.add.at``."""
    cols = vals.reshape(len(idx), -1)
    out = np.empty((n, cols.shape[1]))
    for c in range(cols.shape[1]):
        out[:, c] = np.bincount(idx, weights=cols[:, c], minlength=n)
    return out.reshape((n,) + vals.shape[1:])


class _EdgeSoftmax:
    """Softmax of (E, K) scores ``s`` of ``adj``'s stored entries over each
    target's entries, column by column, as it is kept: exp-scores ``ex``
    (E, K), shifted by their target's maximum, and per-target denominators
    ``denom`` (N, K), not the attention or per-entry denominators.
    ``column(j)`` is column j of the attention ``ex / denom[dst]``, bitwise
    the same array on every call; calling the object with the attention's
    gradient gives the scores' (its vector-Jacobian product). Per-target rows are gathered with
    ``np.take``, several times faster than fancy indexing on (E, K) rows."""

    __slots__ = ("dst", "n", "ex", "denom")

    def __init__(self, adj: SparseAdj, s: np.ndarray):
        self.dst, self.n = adj.dst, adj.n
        self.ex = np.exp(s - self._at_targets(adj.segment_max(s)))
        self.denom = _scatter_rows(self.dst, self.ex, self.n)  # >= 1: a max term is exp(0)

    def _at_targets(self, per_node: np.ndarray) -> np.ndarray:  # (N, K) -> (E, K)
        return np.take(per_node, self.dst, axis=0)

    def column(self, j: int) -> np.ndarray:
        """Branch ``j``'s attention ``ex[:, j] / denom[dst, j]``, a contiguous
        (E,) array."""
        return self.ex[:, j] / np.take(self.denom[:, j], self.dst)

    def __call__(self, g: np.ndarray) -> np.ndarray:
        ex, d = self.ex, self._at_targets(self.denom)
        return (g / d + self._at_targets(_scatter_rows(self.dst, -g * ex / (d * d), self.n))) * ex


def _leaky_slope(raw: np.ndarray) -> np.ndarray:
    """The leaky ReLU's slope at ``raw``: 1.0 where ``raw > 0``, else 0.2,
    both exact (0.2 + 0.8 rounds to 1.0). ``raw`` may be that bool sign
    itself, the slope's form on the tape."""
    return 0.2 + 0.8 * (raw > 0)


# edges per block of the attention-weight gradient; a block gathers its
# (B, H_in) source rows once for all K branches
_EDGE_BLOCK = 2048


def _edge_dots(gz_d: np.ndarray, z: np.ndarray, src: np.ndarray, dst: np.ndarray,
               block: int = _EDGE_BLOCK) -> np.ndarray:
    """``out[i, j] = <gz_d[j, dst[i]], z[src[i]]>`` for (K, N, H_in) ``gz_d``,
    as the (E, K) array ``einsum("kei,ei->ek", gz_d[:, dst], z[src])``, bit
    for bit, without its (K, E, H_in) gather: each block of ``block`` edges
    gathers its source rows once and takes one row-wise dot per branch."""
    out = np.empty((len(src), len(gz_d)))
    for lo in range(0, len(src), block):
        zs = np.take(z, src[lo:lo + block], axis=0)
        d = dst[lo:lo + block]
        for j, g in enumerate(gz_d):
            out[lo:lo + block, j] = np.einsum("ei,ei->e", np.take(g, d, axis=0), zs)
    return out


def _attention_scores(z: np.ndarray, w_a: np.ndarray, halves: np.ndarray):
    """Branch k's attention scores ``alpha[:, k] = z W_a[k]^T b_k[:H]`` and
    ``beta[:, k] = z W_a[k]^T b_k[H:]`` for (K, H, H_in) ``w_a`` and the (K, 2,
    H) ``halves`` of b, as one product ``z u^T`` with the (2K, H_in) score
    vectors ``u`` (rows ``W_a[k]^T b_k[:H]``, ``W_a[k]^T b_k[H:]``, branch by
    branch) folded first. Returns ``u``, ``alpha`` and ``beta``."""
    u = np.matmul(halves, w_a).reshape(2 * len(w_a), -1)
    alpha, beta = (z @ u.T).reshape(len(z), len(w_a), 2).transpose(2, 0, 1).copy()
    return u, alpha, beta


def gat_mixture(adj: SparseAdj, z, e, w_d, w_self, w_a, b) -> Tensor:
    """Gated GAT mixture ``sum_k e[:, k:k+1] * (A_k z W_d[k]^T + z W_self[k]^T)``
    of K branches under (N, K) gates, as one node; a ``w_self`` of None drops
    the self term.

    ``A_k`` is branch k's attention over the stored entries of ``adj``, whose
    values it ignores: entry u -> v (row v, column u) weighs the softmax, over
    row v's entries, of the leaky ReLU (slope 0.2) of
    ``alpha_k[v] + beta_k[u]``, where ``alpha_k`` and ``beta_k`` are
    ``z W_a[k]^T`` times the first and second half of the (2H, 1) vector
    ``b[k]``, scored from folded vectors by ``_attention_scores``: neither
    pass forms the (N, K*H) transform ``z W_a^T``. With the (N, 2K) score
    gradient ``gab`` and ``gu = gab^T z``, the backward gives ``z``,
    ``W_a[k]`` and ``b[k]`` the gradients ``gab u``, ``halves[k]^T gu[k]`` and
    ``gu[k] W_a[k]^T``.

    The K message and self transforms are one matmul each over (K*H, H_in)
    views of the (K, H, H_in) weights, and the scores of all branches one
    (E, K) array; each branch is one product with ``adj``'s CSR structure
    under its attention weights, so one call counts K touches of every stored
    entry between distinct nodes. The attention weights' gradient is taken
    per branch in blocks of edges (``_edge_dots``); no (K, E, H_in) array
    exists.

    The node keeps, per stored entry, only the attention's exp-scores and the
    leaky ReLU's sign as bools, plus the (N, K) per-target denominators
    (``_EdgeSoftmax``). The backward recomputes the attention from them, one
    branch's (E,) column inside each of the K transpose products that give
    the messages' gradient, after the score gradient's (E, K) transients are
    released.
    ``w_a`` may be ``w_d``: their gradients add up.
    """
    z, e, w_d, w_self = _mixture_operands("gat_mixture", adj.n, z, e, w_d, w_self)
    w_a, b = _lift(w_a), _lift(b)
    zv, (n, k), h = z.value, e.shape, w_d.shape[1]
    if w_a.shape != w_d.shape or b.shape != (k, 2 * h, 1):
        raise DimensionError(f"gat_mixture: w_d {w_d.shape}, w_a {w_a.shape}, b {b.shape}")
    src, dst = adj.src, adj.dst
    wd = w_d.value.reshape(k * h, -1)
    halves = b.value.reshape(k, 2, h)  # b[k, :H] and b[k, H:]
    u, alpha, beta = _attention_scores(zv, w_a.value, halves)
    raw = np.take(alpha, dst, axis=0) + np.take(beta, src, axis=0)  # (E, K)
    pos = raw > 0
    softmax = _EdgeSoftmax(adj, raw * _leaky_slope(pos))
    msgs = zv @ wd.T
    ws = None if w_self is None else w_self.value.reshape(k * h, -1)
    branches = np.zeros((n, k, h)) if ws is None else (zv @ ws.T).reshape(n, k, h)
    for j in range(k):
        branches[:, j] += adj.scatter_to_dst(softmax.column(j), msgs[:, j * h:(j + 1) * h])
    edge_touches.add(k * adj.num_links)
    operands = tuple(p for p in (z, e, w_d, w_self, w_a, b) if p is not None)
    mixed, branch_grad = _gate(e, branches, any(p.needs_grad for p in operands))

    # capture arrays, not the output node: a closure on its own node is a
    # reference cycle that keeps the whole tape alive until the cyclic
    # collector runs
    def bwd(g):
        gs = branch_grad(g)
        # the score branch first, so its (E, K) transients are gone before gm:
        # d/d att[i, j] = <gs_j[dst_i], msgs_j[src_i]> = <(gs_j W_d[j])[dst_i], z[src_i]>
        gscore = softmax(_edge_dots(np.matmul(gs.transpose(1, 0, 2), w_d.value), zv, src, dst))
        gscore *= _leaky_slope(pos)
        gab = np.stack([_scatter_rows(dst, gscore, n), _scatter_rows(src, gscore, n)],
                       axis=-1).reshape(n, 2 * k)  # columns in the row order of u
        del gscore
        gm = np.empty((n, k * h))
        for j in range(k):
            gm[:, j * h:(j + 1) * h] = adj.scatter_to_src(softmax.column(j), gs[:, j])
        gu = (gab.T @ zv).reshape(k, 2, -1)
        gz = gm @ wd + gab @ u
        if w_self is not None:
            gs = gs.reshape(n, k * h)
            gz = gz + gs @ ws
            _accum(w_self, (gs.T @ zv).reshape(w_self.shape))
        _accum(z, gz)
        _accum(w_d, (gm.T @ zv).reshape(w_d.shape))
        _accum(w_a, np.matmul(halves.transpose(0, 2, 1), gu))
        _accum(b, np.matmul(gu, w_a.value.transpose(0, 2, 1)).reshape(b.shape))  # (K, 2, H)

    return Tensor(mixed, operands, "gat_mixture", bwd)
