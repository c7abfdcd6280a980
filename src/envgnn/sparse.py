"""Sparse graph operands: a CSR adjacency with per-edge normalization
coefficients (GCN propagation) and a directed edge list stored in target
order, the CSR layout of its per-edge weights (GAT attention)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class SparseAdj:
    """Square CSR adjacency used as the propagation operand.

    The stored values carry the normalization coefficients (e.g.
    1/sqrt(d_u d_v)), so propagation is a single sparse-dense product.
    """

    def __init__(self, csr: sp.csr_matrix):
        self.csr = csr

    @classmethod
    def from_coo(cls, n: int, rows, cols, values) -> "SparseAdj":
        m = sp.csr_matrix(
            (np.asarray(values, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
        m.sum_duplicates()
        return cls(m)

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    def densify(self) -> np.ndarray:
        """Dense reconstruction; the independent oracle for spmm."""
        return self.csr.toarray()


class EdgeIndex:
    """Directed edge list ``src[e] -> dst[e]`` stored in target order.

    ``from_coo`` sorts the edges stably by target once, so ``dst`` is
    nondecreasing and the edges into node ``v`` are ``dst_ptr[v]`` to
    ``dst_ptr[v + 1]``, in their input order. With per-edge weights ``w``
    (which change every step, while the structure does not) this is the CSR
    layout of ``A(w)``, ``A[dst[e], src[e]] = w[e]``: a scatter to targets is
    ``A(w) @ x``, one to sources the transpose product ``A(w).T @ x``. Both
    add each node's terms in stored edge order, as an ``np.add.at`` scatter
    over ``src`` and ``dst`` does, so they are bitwise equal to it.
    """

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray):
        """From int64 endpoint vectors already checked and sorted by ``from_coo``."""
        self.n, self.src, self.dst = n, src, dst
        self.num_links = int(np.count_nonzero(src != dst))  # self loops excluded
        # scipy keeps int32 indices as given, and would otherwise scan and
        # downcast int64 ones on every product
        idx = np.int32 if max(n, src.size) < 2**31 else np.int64
        self.dst_ptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(dst, minlength=n), out=self.dst_ptr[1:])
        self._cols = src.astype(idx)

    @classmethod
    def from_coo(cls, n: int, src, dst) -> "EdgeIndex":
        """The edges ``src[e] -> dst[e]`` of an ``n``-node graph, stably sorted by target."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise DimensionError("edge source and target lists must be equal-length vectors")
        if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise DimensionError(f"edge endpoint out of range [0, {n})")
        # numpy's stable sort of 8- or 16-bit keys is a linear-time radix sort
        order = np.argsort(dst.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")
        return cls(int(n), src[order], dst[order])

    @property
    def num_edges(self) -> int:
        return self.src.size

    def _matrix(self, w: np.ndarray) -> sp.csr_matrix:
        """``A(w)``: the CSR matrix with ``A[dst[e], src[e]] = w[e]``."""
        return sp.csr_matrix((w, self._cols, self.dst_ptr), shape=(self.n, self.n))

    def scatter_to_dst(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``out[dst[e]] += w[e] * x[src[e]]``, as the product ``A(w) @ x``."""
        return self._matrix(w) @ x

    def scatter_to_src(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``out[src[e]] += w[e] * x[dst[e]]``, as the product ``A(w).T @ x``."""
        return self._matrix(w).T @ x

    def segment_max(self, v: np.ndarray) -> np.ndarray:
        """Per target node, the max of ``v`` over its incoming edges, for
        (E,) or (E, K) ``v`` column by column; -inf where a node has none."""
        out = np.full((self.n,) + v.shape[1:], -np.inf)
        starts = self.dst_ptr[:-1]
        filled = starts < self.dst_ptr[1:]
        if filled.any():
            out[filled] = np.maximum.reduceat(v, starts[filled], axis=0)
        return out
