"""Compressed-sparse-row adjacency with per-edge normalization coefficients."""

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
