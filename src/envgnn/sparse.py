"""Sparse graph operands: a CSR adjacency with per-edge normalization
coefficients (GCN propagation) and a directed edge list with precomputed
row orderings (GAT attention)."""

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
    """Directed edge list ``src[e] -> dst[e]`` with fixed CSR orderings.

    ``by_dst`` and ``by_src`` are stable sorts of the edge ids by target and
    by source; ``dst_ptr`` and ``src_ptr`` are their row pointers. Per-edge
    weights change every step but the structure does not, so a weighted
    scatter is one CSR product over a matrix assembled from these arrays.
    Within each row the edges keep their original order (the sorts are
    stable), so each row sum adds the same terms in the same order as an
    ``np.add.at`` scatter over the edge list, and the result is bitwise equal.
    """

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray):
        """From int64 endpoint vectors already checked by ``from_coo``."""
        self.n, self.src, self.dst = n, src, dst
        self.num_links = int(np.count_nonzero(src != dst))  # self loops excluded
        # scipy keeps int32 indices as given, and would otherwise scan and
        # downcast int64 ones on every product
        idx = np.int32 if max(n, src.size) < 2**31 else np.int64
        # numpy's stable sort of 8- or 16-bit keys is a linear-time radix sort
        key = np.min_scalar_type(max(n - 1, 0))
        self.by_dst = np.argsort(dst.astype(key), kind="stable")
        self.by_src = np.argsort(src.astype(key), kind="stable")
        self.dst_ptr = _row_pointer(dst, n, idx)
        self.src_ptr = _row_pointer(src, n, idx)
        self._src_by_dst = src[self.by_dst].astype(idx)
        self._dst_by_src = dst[self.by_src].astype(idx)

    @classmethod
    def from_coo(cls, n: int, src, dst) -> "EdgeIndex":
        """The edges ``src[e] -> dst[e]`` of an ``n``-node graph, in this order."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise DimensionError("edge source and target lists must be equal-length vectors")
        if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise DimensionError(f"edge endpoint out of range [0, {n})")
        return cls(int(n), src, dst)

    @property
    def num_edges(self) -> int:
        return self.src.size

    def scatter_to_dst(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``out[dst[e]] += w[e] * x[src[e]]``, as the product ``A_dst(w) @ x``."""
        a = sp.csr_matrix((w[self.by_dst], self._src_by_dst, self.dst_ptr),
                          shape=(self.n, self.n))
        return a @ x

    def scatter_to_src(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``out[src[e]] += w[e] * x[dst[e]]``, as the product ``A_src(w) @ x``."""
        a = sp.csr_matrix((w[self.by_src], self._dst_by_src, self.src_ptr),
                          shape=(self.n, self.n))
        return a @ x

    def segment_max(self, v: np.ndarray) -> np.ndarray:
        """Per target node, the max of ``v`` over its incoming edges, for
        (E,) or (E, K) ``v`` column by column; -inf where a node has none."""
        out = np.full((self.n,) + v.shape[1:], -np.inf)
        starts = self.dst_ptr[:-1]
        filled = starts < self.dst_ptr[1:]
        if filled.any():
            out[filled] = np.maximum.reduceat(np.take(v, self.by_dst, axis=0), starts[filled],
                                              axis=0)
        return out


def _row_pointer(rows: np.ndarray, n: int, dtype) -> np.ndarray:
    ptr = np.zeros(n + 1, dtype=dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr
