"""Tests for the reverse-mode tape: primitive values against closed-form or
hand-computed oracles, gradients against central finite differences."""

import gc
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from envgnn import autodiff as ad
from envgnn.autodiff import NumericError, Tensor, constant, parameter
from envgnn.gradcheck import per_branch
from envgnn.optim import finite_diff_grad
from envgnn.rng import Rng
from envgnn.sparse import DimensionError, EdgeIndex, SparseAdj


def fd_check(build, theta, tol=1e-6, h=1e-5):
    """Compare tape gradients of a scalar-producing builder with central
    finite differences over the named parameter arrays; a stacked (K, ...)
    branch weight is compared branch by branch."""
    params = {k: parameter(v) for k, v in theta.items()}
    loss = build(params)
    analytic = per_branch(ad.backward(loss, params))

    def f(values):
        ps = {k: parameter(v) for k, v in values.items()}
        return float(build(ps).value)

    numeric = per_branch(finite_diff_grad(f, {k: np.array(v) for k, v in theta.items()}, h=h))
    for k in analytic:
        denom = max(np.abs(analytic[k]).max(initial=0.0),
                    np.abs(numeric[k]).max(initial=0.0), 1e-8)
        assert np.abs(analytic[k] - numeric[k]).max(initial=0.0) / denom <= tol, k


# ---------------------------------------------------------------------------
# matmul and friends
# ---------------------------------------------------------------------------


def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(constant(np.eye(2)), constant(m))
    assert np.array_equal(out.value, m)


def test_matmul_hand_case():
    out = ad.matmul(constant([[1.0, 2.0], [3.0, 4.0]]), constant([[1.0], [1.0]]))
    assert np.array_equal(out.value, [[3.0], [7.0]])


def test_matmul_zero_annihilates():
    out = ad.matmul(constant(np.zeros((2, 3))), constant(np.ones((3, 2))))
    assert np.array_equal(out.value, np.zeros((2, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))


def test_matmul_gradients():
    rng = Rng(0)
    fd_check(
        lambda p: ad.sum_all(ad.mul(ad.matmul(p["a"], p["b"]),
                                    ad.matmul(p["a"], p["b"]))),
        {"a": rng.normal((3, 4)), "b": rng.normal((4, 2))},
    )


def test_transpose_roundtrip_and_grad():
    rng = Rng(1)
    a = rng.normal((2, 5))
    assert np.array_equal(ad.transpose(constant(a)).value, a.T)
    fd_check(lambda p: ad.sum_all(ad.mul(ad.transpose(p["a"]), ad.transpose(p["a"]))),
             {"a": a})


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_row_softmax_uniform_logits():
    out = ad.row_softmax(constant([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_row_softmax_closed_form():
    out = ad.row_softmax(constant([[1.0, 0.0, 0.0]]))
    assert np.allclose(out.value, [[0.57611688, 0.21194156, 0.21194156]], atol=1e-8)


def test_row_softmax_overflow_safe():
    out = ad.row_softmax(constant([[1000.0, 0.0]]))
    assert np.allclose(out.value, [[1.0, 0.0]], atol=1e-300)


def test_row_softmax_rows_sum_to_one():
    x = Rng(2).normal((10, 7))
    out = ad.row_softmax(constant(x))
    assert np.abs(out.value.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("width", [1, 2, 3, 8, 40])
def test_row_max_equals_keepdims_max_exactly(ndim, width):
    rng = Rng(10 * width + ndim)
    special = np.array([0.0, -0.0, 1e300, -1e300, 1.5, -1.5])  # ties, signed zeros, extremes
    a = np.concatenate([special[rng.integers(0, len(special), 60 * width)],
                        rng.normal(60 * width)])
    rows = a[rng.permutation(len(a))].reshape(-1, width)  # 120 rows
    for a in {1: rows[:30], 2: [rows], 3: [rows.reshape(-1, 4, width)]}[ndim]:
        got, want = ad._row_max(a), a.max(axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_row_softmax_gradient():
    fd_check(lambda p: ad.sum_all(ad.mul(ad.row_softmax(p["x"]), p["w"])),
             {"x": Rng(3).normal((4, 5)), "w": Rng(4).normal((4, 5))})


def test_row_log_softmax_matches_log_of_softmax():
    x = Rng(5).normal((6, 4))
    direct = np.log(ad.row_softmax(constant(x)).value)
    assert np.abs(ad.row_log_softmax(constant(x)).value - direct).max() <= 1e-12


def test_row_log_softmax_stable_where_softmax_underflows():
    # softmax underflows to exactly 0 here; the log stays finite
    x = np.array([[800.0, 0.0]])
    assert ad.row_softmax(constant(x)).value[0, 1] == 0.0
    out = ad.row_log_softmax(constant(x))
    assert np.isfinite(out.value).all()
    assert abs(out.value[0, 1] + 800.0) <= 1e-9


def test_row_log_softmax_gradient():
    fd_check(lambda p: ad.sum_all(ad.mul(ad.row_log_softmax(p["x"]), p["w"])),
             {"x": Rng(6).normal((4, 5)), "w": Rng(7).normal((4, 5))})


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def test_relu_values():
    assert np.array_equal(ad.relu(constant([-1.0, 2.0])).value, [0.0, 2.0])


def test_relu_equals_where_bit_for_bit_and_keeps_its_mask():
    a = np.concatenate([[-0.0, 0.0, -1e300, 1e300, -5e-324, 5e-324], Rng(3).normal(40)])
    x = parameter(a)
    out = ad.relu(x)
    assert np.array_equal(out.value.view(np.int64), np.where(a > 0, a, 0.0).view(np.int64))
    g = Rng(4).normal(a.shape)
    grad = ad.backward(ad.sum_all(ad.mul(out, constant(g))), {"x": x})["x"]
    assert np.array_equal(grad.view(np.int64), (g * (a > 0)).view(np.int64))


def test_activation_gradients_away_from_kink():
    x = np.array([[-2.0, -0.5, 0.7, 3.0]])
    fd_check(lambda p: ad.sum_all(ad.relu(p["x"])), {"x": x})


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_dropout_p_zero_identity():
    x = constant(Rng(10).normal((5, 5)))
    assert ad.dropout(x, 0.0, Rng(0), training=True) is x


def test_dropout_eval_identity():
    x = constant(Rng(11).normal((5, 5)))
    assert ad.dropout(x, 0.9, Rng(0), training=False) is x


def test_dropout_statistics():
    x = np.ones((1000, 1000))
    out = ad.dropout(constant(x), 0.5, Rng(12), training=True).value
    survivors = (out != 0).mean()
    assert abs(survivors - 0.5) <= 0.01
    assert abs(out.mean() - x.mean()) <= 0.02 * abs(x.mean())


def test_dropout_bad_probability():
    with pytest.raises(ValueError):
        ad.dropout(constant([1.0]), 1.0, Rng(0), training=True)


def test_dropout_gradient_uses_frozen_mask():
    x = parameter(Rng(13).normal((8, 8)))
    out = ad.dropout(x, 0.4, Rng(14), training=True)
    loss = ad.sum_all(out)
    grads = ad.backward(loss, {"x": x})
    # gradient is exactly the inverted-dropout mask
    mask = out.value / np.where(x.value != 0, x.value, 1.0)
    assert np.allclose(grads["x"], mask, atol=1e-12)


# ---------------------------------------------------------------------------
# losses and reductions
# ---------------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = constant(np.zeros((3, 4)))
    out = ad.cross_entropy(logits, [0, 1, 2], [0, 1, 2])
    assert abs(float(out.value) - np.log(4.0)) <= 1e-12


def test_cross_entropy_confident_correct():
    labels = np.array([0, 1])
    logits = np.full((2, 3), -1000.0)
    logits[np.arange(2), labels] = 1000.0
    out = ad.cross_entropy(constant(logits), labels, [0, 1])
    assert float(out.value) <= 1e-9


def test_cross_entropy_matches_direct_formula():
    rng = Rng(15)
    logits = rng.normal((5, 3))
    labels = rng.integers(0, 3, 5)
    out = ad.cross_entropy(constant(logits), labels, np.arange(5))
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    direct = -np.log(p[np.arange(5), labels]).mean()
    assert abs(float(out.value) - direct) <= 1e-12


def test_cross_entropy_masked_subset():
    rng = Rng(16)
    logits = rng.normal((6, 3))
    labels = rng.integers(0, 3, 6)
    rows = np.array([1, 4])
    out = ad.cross_entropy(constant(logits), labels, rows)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    direct = -np.log(p[rows, labels[rows]]).mean()
    assert abs(float(out.value) - direct) <= 1e-12


def test_cross_entropy_gradient():
    rng = Rng(17)
    labels = rng.integers(0, 3, 5)
    fd_check(lambda p: ad.cross_entropy(p["z"], labels, [0, 2, 4]),
             {"z": rng.normal((5, 3))})


def test_cross_entropy_label_range():
    with pytest.raises(ValueError):
        ad.cross_entropy(constant(np.zeros((2, 3))), [0, 3], [0, 1])


def test_cross_entropy_empty_mask():
    with pytest.raises(ValueError):
        ad.cross_entropy(constant(np.zeros((2, 3))), [0, 1], [])


def test_masked_row_mean_value_and_grad():
    rng = Rng(18)
    a = rng.normal((5, 4))
    rows = np.array([0, 3])
    out = ad.masked_row_mean(constant(a), rows)
    assert abs(float(out.value) - a[rows].sum(axis=1).mean()) <= 1e-12
    fd_check(lambda p: ad.masked_row_mean(p["a"], rows), {"a": a})


def test_sum_all_grad_is_ones():
    w = parameter(Rng(19).normal((3, 4)))
    grads = ad.backward(ad.sum_all(w), {"w": w})
    assert np.array_equal(grads["w"], np.ones((3, 4)))


def test_add_broadcast_gradient():
    fd_check(lambda p: ad.sum_all(ad.mul(ad.add(p["a"], p["b"]),
                                         ad.add(p["a"], p["b"]))),
             {"a": Rng(21).normal((4, 3)), "b": Rng(22).normal((1, 3))})


def test_scale_gradient():
    fd_check(lambda p: ad.sum_all(ad.scale(p["a"], -2.5)),
             {"a": Rng(25).normal((3, 3))})


# ---------------------------------------------------------------------------
# sparse propagation
# ---------------------------------------------------------------------------


def _random_adj(n, rng, p=0.4):
    u = rng.uniform((n, n))
    rows, cols = np.nonzero(np.triu(u < p, k=1))
    r = np.concatenate([rows, cols])
    c = np.concatenate([cols, rows])
    vals = np.abs(rng.normal(r.shape)) + 0.1
    return SparseAdj.from_coo(n, r, c, vals)


def test_spmm_empty_adjacency():
    s = SparseAdj.from_coo(3, [], [], [])
    out = ad.spmm(s, constant(np.ones((3, 2))))
    assert np.array_equal(out.value, np.zeros((3, 2)))


def test_spmm_single_edge_swaps():
    s = SparseAdj.from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
    out = ad.spmm(s, constant([[5.0], [7.0]]))
    assert np.array_equal(out.value, [[7.0], [5.0]])


def test_spmm_matches_densify_oracle():
    rng = Rng(26)
    s = _random_adj(8, rng)
    m = rng.normal((8, 3))
    out = ad.spmm(s, constant(m))
    assert np.abs(out.value - s.densify() @ m).max() <= 1e-12


def test_spmm_gradient():
    rng = Rng(27)
    s = _random_adj(6, rng)
    fd_check(lambda p: ad.sum_all(ad.mul(ad.spmm(s, p["m"]), ad.spmm(s, p["m"]))),
             {"m": rng.normal((6, 2))})


def test_spmm_shape_mismatch():
    s = SparseAdj.from_coo(3, [], [], [])
    with pytest.raises(DimensionError):
        ad.spmm(s, constant(np.ones((4, 2))))


def test_spmm_counts_edge_touches():
    rng = Rng(28)
    s = _random_adj(8, rng)
    ad.edge_touches.reset()
    ad.spmm(s, constant(rng.normal((8, 2))))
    ad.spmm(s, constant(rng.normal((8, 2))))
    assert ad.edge_touches.count == 2 * s.nnz
    ad.edge_touches.reset()


# ---------------------------------------------------------------------------
# gated GCN mixture
# ---------------------------------------------------------------------------


def _directed_adj(n, rng, p=0.4):
    """An adjacency whose structure and values are both asymmetric, so that a
    backward that propagates with A where it needs A^T fails."""
    rows, cols = np.nonzero(rng.uniform((n, n)) < p)
    s = SparseAdj.from_coo(n, rows, cols, rng.normal(rows.shape))
    assert np.abs(s.densify() - s.densify().T).max() > 0.1
    return s


def _mixture_operands(k, seed, n=7, h=3):
    """Inputs, gates and (K, H, H) ``w_d`` and ``w_self``, drawn branch by
    branch."""
    rng = Rng(seed)
    theta = {"z": rng.normal((n, h)), "e": rng.uniform((n, k))}
    branches = [(rng.normal((h, h)), rng.normal((h, h))) for _ in range(k)]
    theta["w_d"], theta["w_self"] = (np.stack(ws) for ws in zip(*branches))
    return _directed_adj(n, rng), theta


def _gcn_mixture(adj, p):
    return ad.gcn_mixture(adj, p["z"], p["e"], p["w_d"], p["w_self"])


def _gcn_mixture_chain(adj, p):
    """The per-branch chain the primitive replaces, over weights split by
    ``per_branch``: K spmm/matmul/add branches, each gated by its column of ``e``
    (picked out by a one-hot matmul), added left to right."""
    k = p["e"].shape[1]
    out = None
    for j in range(k):
        branch = ad.add(ad.spmm(adj, ad.matmul(p["z"], ad.transpose(p[f"w_d[{j}]"]))),
                        ad.matmul(p["z"], ad.transpose(p[f"w_self[{j}]"])))
        gated = ad.mul(ad.matmul(p["e"], constant(np.eye(k)[:, j:j + 1])), branch)
        out = gated if out is None else ad.add(out, gated)
    return out


@pytest.mark.parametrize("k", [1, 3])
def test_gcn_mixture_gradients(k):
    adj, theta = _mixture_operands(k, 60 + k)
    fd_check(lambda p: ad.sum_all(ad.mul(_gcn_mixture(adj, p), _gcn_mixture(adj, p))), theta)


@pytest.mark.parametrize("k", [1, 3])
def test_gcn_mixture_matches_per_branch_chain(k):
    adj, theta = _mixture_operands(k, 70 + k, n=12, h=5)
    g = constant(Rng(80 + k).normal((12, 5)))
    values, grads = [], []
    for build, operands in ((_gcn_mixture, theta), (_gcn_mixture_chain, per_branch(theta))):
        params = {name: parameter(v) for name, v in operands.items()}
        out = build(adj, params)
        values.append(out.value)
        grads.append(ad.backward(ad.sum_all(ad.mul(out, g)), params))
    assert np.abs(values[0] - values[1]).max() <= 1e-12
    grads[0] = per_branch(grads[0])
    for name in grads[1]:
        assert np.abs(grads[0][name] - grads[1][name]).max() <= 1e-12, name


@pytest.mark.parametrize("n_adj, gates, k_self", [
    (6, (7, 2), 2),   # adjacency of another graph
    (7, (7, 3), 2),   # one gate column per branch
    (7, (6, 2), 2),   # one gate row per node
    (7, (7, 2), 1),   # one self weight per message weight
])
def test_gcn_mixture_validates_shapes(n_adj, gates, k_self):
    rng = Rng(64)
    adj = SparseAdj.from_coo(n_adj, [0], [1], [1.0])
    w = constant(rng.normal((2, 3, 3)))
    with pytest.raises(DimensionError):
        ad.gcn_mixture(adj, constant(rng.normal((7, 3))), constant(np.ones(gates)),
                       w, constant(w.value[:k_self]))


def test_mixtures_reject_unstacked_weights():
    # a bare (H, H_in) weight is not a stack of one branch
    rng = Rng(68)
    z, w, ones = constant(rng.normal((4, 3))), constant(rng.normal((3, 3))), np.ones((4, 1))
    with pytest.raises(DimensionError):
        ad.gcn_mixture(SparseAdj.from_coo(4, [0], [1], [1.0]), z, ones, w, None)
    with pytest.raises(DimensionError):
        ad.gat_mixture(EdgeIndex.from_coo(4, [0], [1]), z, ones, w, None, w, np.zeros((6, 1)))


def test_gcn_mixture_counts_edge_touches_per_branch():
    adj, theta = _mixture_operands(3, 65)
    ad.edge_touches.reset()
    _gcn_mixture(adj, {name: constant(v) for name, v in theta.items()})
    assert ad.edge_touches.count == 3 * adj.nnz
    ad.edge_touches.reset()


@pytest.mark.parametrize("with_self", [True, False], ids=["self", "no-self"])
@pytest.mark.parametrize("k", [1, 3])
def test_gcn_mixture_under_one_hot_gate_is_its_branch_bit_for_bit(k, with_self):
    adj, theta = _mixture_operands(k, 90 + k, n=12, h=5)
    z, w_d = theta["z"], theta["w_d"]
    w_self = theta["w_self"] if with_self else None
    for j in range(k):
        out = ad.gcn_mixture(adj, z, np.eye(k)[[j] * 12], w_d, w_self).value
        want = adj.csr @ (z @ w_d[j].T)
        if with_self:
            want = want + z @ w_self[j].T
        assert np.array_equal(out.view(np.int64), want.view(np.int64)), j


def test_gcn_mixture_without_self_term_is_the_plain_propagation():
    # the erm layer: one branch, no self weights and a unit gate
    adj, theta = _mixture_operands(1, 66, n=12, h=5)
    theta = {"z": theta["z"], "w_d": theta["w_d"]}
    ones, g = constant(np.ones((12, 1))), constant(Rng(67).normal((12, 5)))

    def mixture(p):
        return ad.gcn_mixture(adj, p["z"], ones, p["w_d"], None)

    def plain(p):
        return ad.spmm(adj, ad.matmul(p["z"], ad.transpose(p["w_d[0]"])))

    values, grads = [], []
    for build, operands in ((mixture, theta), (plain, per_branch(theta))):
        params = {name: parameter(v) for name, v in operands.items()}
        out = build(params)
        values.append(out.value)
        grads.append(ad.backward(ad.sum_all(ad.mul(out, g)), params))
    assert np.abs(values[0] - values[1]).max() <= 1e-12
    grads[0] = per_branch(grads[0])
    for name in grads[1]:
        assert np.abs(grads[0][name] - grads[1][name]).max() <= 1e-12, name
    fd_check(lambda p: ad.sum_all(ad.mul(mixture(p), mixture(p))), theta)


# ---------------------------------------------------------------------------
# gated GAT mixture and its edge operations
# ---------------------------------------------------------------------------


def random_coo(seed, n=9, e=40):
    """``(n, src, dst)`` of a random edge list, out of target order, with
    repeated pairs; nodes n-2 and n-1 receive no edge (n-1 sends none either)."""
    rng = Rng(seed)
    src = rng.integers(0, n - 1, e)
    dst = rng.integers(0, n - 2, e)
    src[e // 2:] = src[: e - e // 2]  # repeat the first half's pairs
    dst[e // 2:] = dst[: e - e // 2]
    return n, src, dst


def random_edges(seed, n=9, e=40):
    return EdgeIndex.from_coo(*random_coo(seed, n, e))


def add_at(idx, vals, n):
    buf = np.zeros((n,) + vals.shape[1:])
    np.add.at(buf, idx, vals)
    return buf


def _gat_operands(k, seed, with_self=True, h=3):
    """Operands of a K-branch ``gat_mixture`` on directed ``random_edges``
    (an edge's reverse is mostly absent), with nonzero ``b``."""
    edges = random_edges(seed)
    pairs = set(zip(edges.src.tolist(), edges.dst.tolist()))
    assert any((v, u) not in pairs for u, v in pairs)
    rng = Rng(seed + 1)
    theta = {"z": rng.normal((edges.n, h)), "e": rng.uniform((edges.n, k))}
    roles = ("w_d", "w_a", "b") + (("w_self",) if with_self else ())
    branches = [(rng.normal((h, h)), rng.normal((h, h)), 0.5 * rng.normal((2 * h, 1)))
                + ((rng.normal((h, h)),) if with_self else ()) for _ in range(k)]
    theta.update((role, np.stack(ws)) for role, ws in zip(roles, zip(*branches)))
    return edges, theta


def _gat_mixture(edges, p):
    return ad.gat_mixture(edges, p["z"], p["e"], p["w_d"], p.get("w_self"), p["w_a"], p["b"])


@pytest.mark.parametrize("with_self", [True, False], ids=["self", "no-self"])
@pytest.mark.parametrize("k", [1, 3])
def test_gat_mixture_gradients(k, with_self):
    edges, theta = _gat_operands(k, 90 + k, with_self)
    fd_check(lambda p: ad.sum_all(ad.mul(_gat_mixture(edges, p), _gat_mixture(edges, p))),
             theta)


def test_leaky_slope_equals_where_exactly():
    raw = np.concatenate([[-0.0, 0.0, -1e300, 1e300, -5e-324, 5e-324], Rng(5).normal(40)])
    want = np.where(raw > 0, 1.0, 0.2)
    assert np.array_equal(ad._leaky_slope(raw).view(np.int64), want.view(np.int64))


def test_gat_mixture_gradients_with_one_weight_for_messages_and_attention():
    # the erm layer: its one weight is both w_d and w_a, under a unit gate
    edges, theta = _gat_operands(1, 93, with_self=False)
    ones = constant(np.ones((edges.n, 1)))

    def layer(p):
        return ad.gat_mixture(edges, p["z"], ones, p["w_d"], None, p["w_d"], p["b"])

    fd_check(lambda p: ad.sum_all(ad.mul(layer(p), layer(p))),
             {"z": theta["z"], "w_d": theta["w_d"], "b": theta["b"]})


@pytest.mark.parametrize("k", [1, 3])
def test_attention_scores_from_folded_vectors_match_the_unfolded_product(k):
    # (z W_a[k]^T) b_k, the transform first, as the scores were computed before the fold
    rng = Rng(96 + k)
    h, h_in = 8, 6
    z, w_a, b = rng.normal((11, h_in)), rng.normal((k, h, h_in)), 0.5 * rng.normal((k, 2 * h, 1))
    u, alpha, beta = ad._attention_scores(z, w_a, b.reshape(k, 2, h))
    assert u.shape == (2 * k, h_in) and alpha.shape == beta.shape == (11, k)
    for j in range(k):
        t = z @ w_a[j].T
        np.testing.assert_allclose(alpha[:, j], t @ b[j, :h, 0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(beta[:, j], t @ b[j, h:, 0], rtol=0, atol=1e-13)


def _gather_dots(gz_d, z, src, dst):
    """The attention-weight gradient as computed before edge blocking: one
    (K, E, H_in) gather of target rows, contracted with the source rows."""
    return np.einsum("kei,ei->ek", np.take(gz_d, dst, axis=1), np.take(z, src, axis=0))


@pytest.mark.parametrize("k", [1, 3])
def test_edge_dots_equal_the_gather_einsum_bit_for_bit(k):
    rng = Rng(97 + k)
    n, h_in, e = 50, 9, 2 * ad._EDGE_BLOCK + 37
    src, dst = rng.integers(0, n, e), rng.integers(0, n, e)
    gz_d, z = rng.normal((k, n, h_in)), rng.normal((n, h_in))
    assert e % ad._EDGE_BLOCK and e % 7  # each leaves a last, partial block
    want = _gather_dots(gz_d, z, src, dst)
    for block in (1, 7, ad._EDGE_BLOCK, e, e + 5):
        got = ad._edge_dots(gz_d, z, src, dst, block)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), block
    loop = np.array([[sum(gz_d[j, dst[i], c] * z[src[i], c] for c in range(h_in))
                      for j in range(k)] for i in range(e)])
    assert np.abs(ad._edge_dots(gz_d, z, src, dst) - loop).max() <= 1e-12


def test_gat_mixture_backward_allocates_no_branch_by_edge_gather():
    # an edge-heavy layer (E = 51 N) at hidden 32: the (K, E, H) gather of the
    # attention-weight gradient alone would take K * E * H * 8 bytes
    k, n, h, links = 3, 400, 32, 10_000
    rng = Rng(98)
    src, dst = rng.integers(0, n, links), rng.integers(0, n, links)
    loops = np.arange(n)
    edges = EdgeIndex.from_coo(n, np.concatenate([src, dst, loops]),
                               np.concatenate([dst, src, loops]))
    p = {"z": parameter(rng.normal((n, h))), "e": parameter(rng.uniform((n, k)))}
    p.update((role, parameter(rng.normal((k, h, h)))) for role in ("w_d", "w_self", "w_a"))
    p["b"] = parameter(0.1 * rng.normal((k, 2 * h, 1)))
    loss = ad.sum_all(_gat_mixture(edges, p))
    tracemalloc.start()  # after the forward: only what the backward allocates is traced
    try:
        ad.backward(loss, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gather = k * edges.num_edges * h * 8
    assert peak < gather, (peak, gather)


@pytest.mark.parametrize("n_edges, gates, k_self, k_att, b_rows", [
    (6, (7, 2), 2, 2, 6),   # edge index of another graph
    (7, (7, 3), 2, 2, 6),   # one gate column per branch
    (7, (6, 2), 2, 2, 6),   # one gate row per node
    (7, (7, 2), 1, 2, 6),   # one self weight per message weight, or none
    (7, (7, 2), 2, 1, 6),   # one attention weight per branch
    (7, (7, 2), 2, 2, 3),   # each b stacks two halves of H rows
])
def test_gat_mixture_validates_shapes(n_edges, gates, k_self, k_att, b_rows):
    rng = Rng(94)
    edges = EdgeIndex.from_coo(n_edges, [0], [1])
    w = constant(rng.normal((2, 3, 3)))
    b = constant(np.zeros((2, b_rows, 1)))
    with pytest.raises(DimensionError):
        ad.gat_mixture(edges, constant(rng.normal((7, 3))), constant(np.ones(gates)),
                       w, constant(w.value[:k_self]), constant(w.value[:k_att]), b)


def test_gat_mixture_counts_edge_touches_per_branch_without_self_loops():
    edges = EdgeIndex.from_coo(4, [0, 1, 2, 0, 1, 2, 3], [1, 2, 0, 0, 1, 2, 3])
    rng = Rng(95)
    w = constant(rng.normal((3, 2, 2)))
    b = constant(rng.normal((3, 4, 1)))
    ad.edge_touches.reset()
    ad.gat_mixture(edges, constant(rng.normal((4, 2))), constant(np.ones((4, 3))), w, w, w, b)
    assert edges.num_links == 3 and ad.edge_touches.count == 3 * 3
    ad.edge_touches.reset()


@pytest.mark.parametrize("seed", range(5))
def test_edge_ops_equal_add_at_exactly(seed):
    # the CSR and bincount paths must add the same terms in the same order as
    # np.add.at, so the comparison is exact, not within a tolerance
    edges = random_edges(seed)
    n, e = edges.n, edges.num_edges
    rng = Rng(seed + 100)
    w, x, vals = rng.normal((e,)), rng.normal((n, 4)), rng.normal((e, 3))
    np.testing.assert_array_equal(edges.scatter_to_dst(w, x),
                                  add_at(edges.dst, w[:, None] * x[edges.src], n))
    np.testing.assert_array_equal(edges.scatter_to_src(w, x),
                                  add_at(edges.src, w[:, None] * x[edges.dst], n))
    for idx in (edges.src, edges.dst):
        np.testing.assert_array_equal(ad._scatter_rows(idx, vals, n), add_at(idx, vals, n))
        np.testing.assert_array_equal(ad._scatter_rows(idx, vals[:, 0], n),
                                      add_at(idx, vals[:, 0], n))


def edge_softmax_chain(s, g, edges):
    """The attention softmax as the per-branch op chain computed it (shift by
    the segment max, exp, scatter-add denominators, gather, divide), with
    ``np.add.at`` scatters; returns the softmax and the gradient of
    ``sum(softmax * g)`` with respect to ``s``."""
    dst, n = edges.dst, edges.n
    seg_max = np.full(n, -np.inf)
    np.maximum.at(seg_max, dst, s)
    ex = np.exp(s - seg_max[dst])
    d = add_at(dst, ex, n)[dst]
    return ex / d, (g / d + add_at(dst, -g * ex / (d * d), n)[dst]) * ex


@pytest.mark.parametrize("seed", range(5))
def test_edge_softmax_equals_deleted_chain_exactly(seed):
    # gat_mixture's softmax of (E, K) scores, column by column
    edges = random_edges(seed)
    rng = Rng(seed + 300)
    s, g = rng.normal((edges.num_edges, 3)), rng.normal((edges.num_edges, 3))
    att, vjp = ad._attention_softmax(edges, s)
    grad = vjp(g)
    for j in range(3):
        expect, expect_grad = edge_softmax_chain(s[:, j], g[:, j], edges)
        np.testing.assert_array_equal(att[:, j], expect)
        np.testing.assert_array_equal(grad[:, j], expect_grad)


def test_edge_softmax_gradient():
    rng = Rng(44)
    edges = random_edges(4)
    s, w = rng.normal((edges.num_edges, 2)), rng.normal((edges.num_edges, 2))
    numeric = finite_diff_grad(
        lambda v: float((ad._attention_softmax(edges, v["s"])[0] * w).sum()), {"s": s},
        h=1e-5)["s"]
    analytic = ad._attention_softmax(edges, s)[1](w)
    assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(numeric).max()


def test_edge_softmax_sums_to_one_per_target_at_extreme_scores():
    edges = random_edges(5)
    s = 700.0 * np.sign(Rng(45).normal((edges.num_edges, 2)))  # near the float range unshifted
    att, _ = ad._attention_softmax(edges, s)
    sums = add_at(edges.dst, att, edges.n)
    targets = np.bincount(edges.dst, minlength=edges.n) > 0
    np.testing.assert_allclose(sums[targets], 1.0, atol=1e-12)
    assert not sums[~targets].any() and not targets[-2:].any()


@pytest.mark.parametrize("seed", range(5))
def test_segment_max_equals_loop_exactly(seed):
    edges = random_edges(seed)
    v = Rng(seed + 200).normal((edges.num_edges,))
    expect = np.full(edges.n, -np.inf)
    for i in range(edges.num_edges):
        expect[edges.dst[i]] = max(expect[edges.dst[i]], v[i])
    got = edges.segment_max(v)
    np.testing.assert_array_equal(got, expect)
    assert np.isneginf(got[-2:]).all()
    # (E, K) scores, column by column
    vk = Rng(seed + 250).normal((edges.num_edges, 3))
    expect = np.full((edges.n, 3), -np.inf)
    for i in range(edges.num_edges):
        expect[edges.dst[i]] = np.maximum(expect[edges.dst[i]], vk[i])
    np.testing.assert_array_equal(edges.segment_max(vk), expect)


def test_edge_index_stores_edges_in_stable_target_order():
    n, src_in, dst_in = random_coo(7)
    e = src_in.size
    assert (np.diff(dst_in) < 0).any()  # given out of target order
    edges = EdgeIndex.from_coo(n, src_in, dst_in)
    order = np.argsort(dst_in, kind="stable")
    np.testing.assert_array_equal(edges.src, src_in[order])
    np.testing.assert_array_equal(edges.dst, dst_in[order])
    assert (np.diff(edges.dst) >= 0).all()
    ptr = edges.dst_ptr
    assert ptr[0] == 0 and ptr[-1] == e and ptr.shape == (n + 1,)
    for v in range(n):
        np.testing.assert_array_equal(edges.dst[ptr[v]:ptr[v + 1]], v)
    assert ptr[n - 2] == ptr[n] == e  # the last two nodes receive no edge
    assert edges.num_links == np.count_nonzero(src_in != dst_in)


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------


def test_backward_requires_scalar():
    w = parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(ad.add(w, w), {"w": w})


def test_unreached_parameter_gets_zeros():
    w = parameter(np.ones((2, 2)))
    other = parameter(np.ones((3,)))
    grads = ad.backward(ad.sum_all(w), {"w": w, "other": other})
    assert np.array_equal(grads["other"], np.zeros((3,)))


def test_shared_subexpression_accumulates_once_per_path():
    # y = x + x uses x twice; dy/dx = 2
    x = parameter(np.array([3.0]))
    grads = ad.backward(ad.sum_all(ad.add(x, x)), {"x": x})
    assert np.array_equal(grads["x"], [2.0])


def test_repeated_backward_is_stable():
    x = parameter(np.array([2.0]))
    loss = ad.sum_all(ad.mul(x, x))
    g1 = ad.backward(loss, {"x": x})
    g2 = ad.backward(loss, {"x": x})
    assert np.array_equal(g1["x"], g2["x"])


def test_nan_detection_on_construction():
    with pytest.raises(NumericError):
        Tensor(np.array([np.nan]))


# ---------------------------------------------------------------------------
# tape lifetime
# ---------------------------------------------------------------------------

_ADJ = SparseAdj.from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
_EDGES = EdgeIndex.from_coo(2, [0, 1, 0, 1], [1, 0, 0, 1])


def _two_branches(x):
    """Two branches of weight ``x``, stacked as one (2, H, H) parameter."""
    return parameter([x.value] * 2)


PRIMITIVES = {
    "add": lambda x: ad.add(x, x),
    "mul": lambda x: ad.mul(x, x),
    "scale": lambda x: ad.scale(x, 2.0),
    "matmul": lambda x: ad.matmul(x, x),
    "transpose": ad.transpose,
    "spmm": lambda x: ad.spmm(_ADJ, x),
    "gcn_mixture": lambda x: ad.gcn_mixture(_ADJ, x, x, _two_branches(x), _two_branches(x)),
    "gat_mixture": lambda x: ad.gat_mixture(_EDGES, x, x, _two_branches(x), _two_branches(x),
                                            _two_branches(x),
                                            constant([[[0.1], [0.2], [0.3], [0.4]]] * 2)),
    "relu": ad.relu,
    "row_softmax": ad.row_softmax,
    "row_log_softmax": ad.row_log_softmax,
    "dropout": lambda x: ad.dropout(x, 0.5, Rng(0), True),
    "sum_all": ad.sum_all,
    "masked_row_mean": lambda x: ad.masked_row_mean(x, [0]),
    "cross_entropy": lambda x: ad.cross_entropy(x, [0, 1], [0, 1]),
}


def test_every_primitive_has_a_lifetime_case():
    public = {name for name, f in vars(ad).items()
              if inspect.isfunction(f) and f.__module__ == ad.__name__
              and not name.startswith("_")}
    assert public - {"backward", "constant", "parameter"} == set(PRIMITIVES)


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_output_freed_without_cyclic_gc(name):
    # a backward closure that captures its own output node is a reference
    # cycle; the tape would then outlive its last reference
    x = parameter([[0.5, 1.0], [2.0, 0.25]])
    gc.disable()
    try:
        ref = weakref.ref(PRIMITIVES[name](x))
        assert ref() is None
    finally:
        gc.enable()
