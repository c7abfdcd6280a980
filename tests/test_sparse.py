"""Sparse container tests: construction, lookup, dense oracle."""

import numpy as np
import pytest

from envgnn.rng import Rng
from envgnn.sparse import DimensionError, SparseAdj


def test_from_coo_roundtrip():
    s = SparseAdj.from_coo(3, [0, 1, 2], [1, 0, 2], [0.5, 0.5, 2.0])
    assert s.n == 3
    assert s.nnz == 3
    dense = s.densify()
    assert dense[0, 1] == 0.5 and dense[1, 0] == 0.5 and dense[2, 2] == 2.0
    assert dense.sum() == 3.0


def test_from_coo_sums_duplicates():
    s = SparseAdj.from_coo(2, [0, 0], [1, 1], [1.0, 2.0])
    assert s.nnz == 1
    assert s.csr[0, 1] == 3.0


def test_missing_entry_is_zero():
    s = SparseAdj.from_coo(3, [0], [1], [1.0])
    assert s.csr[2, 0] == 0.0


def test_row_columns():
    s = SparseAdj.from_coo(4, [0, 0, 2], [1, 3, 0], [1.0, 1.0, 1.0])
    assert set(s.csr[0].indices.tolist()) == {1, 3}
    assert s.csr[1].nnz == 0


def test_empty_matrix():
    s = SparseAdj.from_coo(5, [], [], [])
    assert s.nnz == 0
    assert np.array_equal(s.densify(), np.zeros((5, 5)))


def test_densify_matches_manual_reconstruction():
    rng = Rng(40)
    n = 7
    u = rng.uniform((n, n))
    rows, cols = np.nonzero(u < 0.3)
    vals = rng.normal(rows.shape)
    s = SparseAdj.from_coo(n, rows, cols, vals)
    manual = np.zeros((n, n))
    np.add.at(manual, (rows, cols), vals)
    assert np.abs(s.densify() - manual).max() <= 1e-15


@pytest.mark.parametrize("src, dst", [([0, 3], [1, 0]), ([0, -1], [1, 0]), ([0, 1], [1])])
def test_edge_index_rejects_bad_endpoints(src, dst):
    with pytest.raises(DimensionError):
        SparseAdj.from_coo(3, dst, src, np.ones(len(src)))


def test_from_coo_rejects_a_value_per_entry_mismatch():
    with pytest.raises(DimensionError):
        SparseAdj.from_coo(3, [0, 1], [1, 0], [1.0])
