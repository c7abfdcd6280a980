"""Tape primitives that only the tests build on: a plain sparse-dense product
(the reference for the fused mixtures and ACCEPT-04's hand-written model) and
a sum to a scalar loss. They hand their backward closures to the package's
tape like its own primitives do."""

import numpy as np

from envgnn import autodiff as ad
from envgnn.autodiff import Tensor
from envgnn.sparse import DimensionError, SparseAdj


def spmm(s: SparseAdj, m) -> Tensor:
    """Sparse-adjacency times dense matrix; counts stored-edge touches."""
    m = ad._lift(m)
    if s.n != m.value.shape[0]:
        raise DimensionError(
            f"spmm shape mismatch: adjacency n={s.n}, matrix rows={m.value.shape[0]}"
        )
    ad.edge_touches.add(s.nnz)
    return Tensor(s.csr @ m.value, (m,), "spmm", lambda g: ad._accum(m, s.csr.T @ g))


def sum_all(a) -> Tensor:
    a = ad._lift(a)
    return Tensor(a.value.sum(), (a,), "sum_all",
                  lambda g: ad._accum(a, np.full(a.shape, float(g))))
