"""The sparse graph operand of both backbones: a square CSR matrix whose rows
are targets. GCN propagates through its stored normalization values; GAT
reads only its structure and weighs the stored entries by attention."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class SparseAdj:
    """Square adjacency in canonical CSR form: row ``v`` holds the entries
    ``A[v, u]`` of edges ``u -> v``, sources ascending, duplicates summed.

    GCN's stored values are the normalization coefficients (e.g.
    1/sqrt(d_u d_v)), so propagation is a single sparse-dense product. GAT
    puts its own per-entry weights ``w`` (which change every step, while the
    structure does not) on the same ``indices``/``indptr``: ``A(w)`` has
    ``A[dst[e], src[e]] = w[e]``, a scatter to targets is ``A(w) @ x`` and one
    to sources the transpose product ``A(w).T @ x``. Both add each node's
    terms in stored entry order, as an ``np.add.at`` scatter over ``src`` and
    ``dst`` does, so they are bitwise equal to it.
    """

    def __init__(self, csr: sp.csr_matrix):
        self.csr = csr

    @classmethod
    def from_coo(cls, n: int, rows, cols, values) -> "SparseAdj":
        """The ``n``-node matrix with entries ``A[rows[i], cols[i]] += values[i]``."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if rows.ndim != 1 or rows.shape != cols.shape or rows.shape != values.shape:
            raise DimensionError("entry rows, columns and values must be equal-length vectors")
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise DimensionError(f"entry index out of range [0, {n})")
        m = sp.csr_matrix((values, (rows, cols)), shape=(n, n))
        m.sum_duplicates()
        return cls(m)

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    @property
    def src(self) -> np.ndarray:
        """The source (column) of each stored entry."""
        return self.csr.indices

    @cached_property
    def dst(self) -> np.ndarray:
        """The target (row) of each stored entry, nondecreasing."""
        indptr = self.csr.indptr
        return np.repeat(np.arange(self.n, dtype=indptr.dtype), np.diff(indptr))

    @cached_property
    def num_links(self) -> int:
        """Stored entries between distinct nodes: self loops excluded."""
        return int(np.count_nonzero(self.src != self.dst))

    def densify(self) -> np.ndarray:
        """Dense reconstruction; the independent oracle for propagation."""
        return self.csr.toarray()

    def _weighted(self, w: np.ndarray) -> sp.csr_matrix:
        """``A(w)``: this structure with the per-entry weights ``w``."""
        return sp.csr_matrix((w, self.csr.indices, self.csr.indptr), shape=self.csr.shape)

    def scatter_to_dst(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``out[dst[e]] += w[e] * x[src[e]]``, as the product ``A(w) @ x``."""
        return self._weighted(w) @ x

    def scatter_to_src(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``out[src[e]] += w[e] * x[dst[e]]``, as the product ``A(w).T @ x``."""
        return self._weighted(w).T @ x

    def segment_max(self, v: np.ndarray) -> np.ndarray:
        """Per target node, the max of ``v`` over its stored entries, for
        (nnz,) or (nnz, K) ``v`` column by column; -inf where a row is empty."""
        out = np.full((self.n,) + v.shape[1:], -np.inf)
        starts = self.csr.indptr[:-1]
        filled = starts < self.csr.indptr[1:]
        if filled.any():
            out[filled] = np.maximum.reduceat(v, starts[filled], axis=0)
        return out
