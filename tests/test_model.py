"""Model tests: estimator fixtures, naive-loop propagation oracles, forward
pass contracts, initialization statistics, and weight export."""

import numpy as np
import pytest

from envgnn import autodiff as ad
from envgnn.autodiff import constant
from envgnn.config import TrainConfig
from envgnn.graphdata import Graph
from envgnn.model import (
    _branch_attention,
    env_probs,
    export_branch_weights,
    forward,
    gumbel_sample,
    import_branch_weights,
    init_params,
    moe_preact,
    prepare_graph,
)
from envgnn.rng import Rng, STREAM_DROPOUT, STREAM_GUMBEL, STREAM_INIT


def random_graph(n=10, d=4, c=3, seed=0, p=0.35):
    rng = Rng(seed)
    u = rng.uniform((n, n))
    rows, cols = np.nonzero(np.triu(u < p, k=1))
    return Graph(n, rng.normal((n, d)), rng.integers(0, c, n),
                 np.stack([rows, cols], axis=1), c)


def make_params(cfg, in_dim=4, num_classes=3, seed=0):
    return init_params(cfg, in_dim, num_classes, Rng(seed).substream(STREAM_INIT))


# ---------------------------------------------------------------------------
# environment estimator
# ---------------------------------------------------------------------------


def test_env_probs_zero_weights_uniform():
    z = constant(Rng(1).normal((6, 4)))
    pi, log_pi = env_probs(z, constant(np.zeros((3, 4))))
    assert np.abs(pi.value - 1 / 3).max() <= 1e-15
    assert np.abs(log_pi.value - np.log(1 / 3)).max() <= 1e-12


def test_env_probs_closed_form():
    z = constant([[1.0, 0.0]])
    w = constant([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    pi, _ = env_probs(z, w)
    assert np.allclose(pi.value, [[0.57611688, 0.21194156, 0.21194156]], atol=1e-7)


def test_env_probs_branch_permutation_equivariance():
    rng = Rng(2)
    z = constant(rng.normal((5, 4)))
    w = rng.normal((3, 4))
    pi, _ = env_probs(z, constant(w))
    perm = [2, 0, 1]
    pi_perm, _ = env_probs(z, constant(w[perm]))
    assert np.abs(pi_perm.value - pi.value[:, perm]).max() <= 1e-14


def test_gumbel_sample_noiseless_literal():
    pi, _ = env_probs(constant(Rng(3).normal((4, 2))), constant(Rng(4).normal((3, 2))))
    e, noise = gumbel_sample(pi, 1.0, None, "literal", noise=np.zeros((4, 3)))
    expect = np.exp(pi.value) / np.exp(pi.value).sum(axis=1, keepdims=True)
    assert np.abs(e.value - expect).max() <= 1e-14
    assert np.array_equal(noise, np.zeros((4, 3)))


def test_gumbel_sample_high_temperature_uniform():
    pi = constant(np.array([[0.9, 0.05, 0.05]]))
    g = Rng(5).gumbel((1, 3))
    e, _ = gumbel_sample(pi, 1e9, None, "literal", noise=g)
    assert np.abs(e.value - 1 / 3).max() <= 1e-8


def test_gumbel_sample_rejects_bad_inputs():
    pi = constant(np.full((2, 3), 1 / 3))
    with pytest.raises(ValueError):
        gumbel_sample(pi, 0.0, Rng(0))
    with pytest.raises(ValueError):
        gumbel_sample(pi, 1.0, Rng(0), mode="nope")


def test_gumbel_rows_sum_to_one():
    pi = constant(np.full((50, 4), 0.25))
    e, _ = gumbel_sample(pi, 1.0, Rng(6).substream(STREAM_GUMBEL))
    assert np.abs(e.value.sum(axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# MoE-GCN propagation vs naive loop
# ---------------------------------------------------------------------------


def naive_moe_gcn(zv, dense_adj, ev, params, layer, k):
    n, h = zv.shape
    out = np.zeros((n, h))
    for u in range(n):
        for j in range(1, k + 1):
            wd = params[f"l{layer}.k{j}.w_d"].value
            ws = params[f"l{layer}.k{j}.w_self"].value
            agg = np.zeros(h)
            for v in range(n):
                agg += dense_adj[u, v] * (zv[v] @ wd.T)
            out[u] += ev[u, j - 1] * (agg + zv[u] @ ws.T)
    return out


def test_moe_gcn_gate_collapse_k1():
    cfg = TrainConfig(num_branches=1, hidden=4)
    g = random_graph(seed=7)
    gt = prepare_graph(g, cfg)
    params = make_params(cfg)
    z = constant(Rng(8).normal((g.n, 4)))
    e = constant(np.ones((g.n, 1)))
    out = moe_preact(z, gt, e, params, 1)
    direct = (gt.adj.densify() @ z.value @ params["l1.k1.w_d"].value.T
              + z.value @ params["l1.k1.w_self"].value.T)
    assert np.abs(out.value - direct).max() <= 1e-12


def test_moe_gcn_one_hot_gate_exclusivity():
    cfg = TrainConfig(num_branches=3, hidden=4)
    g = random_graph(seed=9)
    gt = prepare_graph(g, cfg)
    params = make_params(cfg)
    z = constant(Rng(10).normal((g.n, 4)))
    e = np.zeros((g.n, 3))
    e[:, 1] = 1.0
    out = moe_preact(z, gt, constant(e), params, 1)
    # scrambling the unused branches' weights must not change the output
    params["l1.k1.w_d"].value = Rng(11).normal((4, 4))
    params["l1.k3.w_self"].value = Rng(12).normal((4, 4))
    out2 = moe_preact(z, gt, constant(e), params, 1)
    assert np.abs(out.value - out2.value).max() == 0.0


def test_moe_gcn_matches_naive_loop():
    for seed in range(20):
        cfg = TrainConfig(num_branches=3, hidden=4)
        n = int(Rng(seed).integers(4, 17, ()))
        g = random_graph(n=n, seed=seed + 100)
        gt = prepare_graph(g, cfg)
        params = make_params(cfg, seed=seed)
        rng = Rng(seed + 200)
        zv = rng.normal((g.n, 4))
        ev = ad.row_softmax(constant(rng.normal((g.n, 3)))).value
        out = moe_preact(constant(zv), gt, constant(ev), params, 1)
        expect = naive_moe_gcn(zv, gt.adj.densify(), ev, params, 1, 3)
        assert np.abs(out.value - expect).max() <= 1e-10


# ---------------------------------------------------------------------------
# attention propagation vs naive loop
# ---------------------------------------------------------------------------


def naive_attention(zv, edges, n, wa, b, slope=0.2):
    h = wa.shape[0]
    t = zv @ wa.T
    alpha = t @ b[:h, 0]
    beta = t @ b[h:, 0]
    nbrs = {u: {u} for u in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    att = {}
    for u in range(n):
        members = sorted(nbrs[u])
        scores = np.array([alpha[u] + beta[v] for v in members])
        scores = np.where(scores > 0, scores, slope * scores)
        ex = np.exp(scores - scores.max())
        soft = ex / ex.sum()
        for v, a in zip(members, soft):
            att[(u, v)] = a
    return att


def test_attention_rows_sum_to_one():
    cfg = TrainConfig(backbone="gat", hidden=4)
    g = random_graph(seed=13)
    gt = prepare_graph(g, cfg)
    params = make_params(cfg)
    params["l1.k1.b"].value = 0.3 * Rng(14).normal((8, 1))
    z = constant(Rng(15).normal((g.n, 4)))
    att = _branch_attention(z, gt, params["l1.k1.w_a"], params["l1.k1.b"])
    sums = np.zeros(g.n)
    np.add.at(sums, gt.edges.dst, att.value)
    assert np.abs(sums - 1.0).max() <= 1e-9


def test_attention_zero_bias_uniform():
    cfg = TrainConfig(backbone="gat", hidden=4)
    g = random_graph(seed=16)
    gt = prepare_graph(g, cfg)
    params = make_params(cfg)  # b starts at zero
    z = constant(Rng(17).normal((g.n, 4)))
    att = _branch_attention(z, gt, params["l1.k1.w_a"], params["l1.k1.b"])
    sizes = g.degrees + 1
    assert np.abs(att.value - 1.0 / sizes[gt.edges.dst]).max() <= 1e-12


def test_attention_matches_naive_loop():
    for seed in range(10):
        cfg = TrainConfig(backbone="gat", hidden=4)
        g = random_graph(n=8, seed=seed + 300)
        gt = prepare_graph(g, cfg)
        params = make_params(cfg, seed=seed)
        params["l1.k1.b"].value = 0.4 * Rng(seed + 400).normal((8, 1))
        zv = Rng(seed + 500).normal((g.n, 4))
        att = _branch_attention(constant(zv), gt, params["l1.k1.w_a"], params["l1.k1.b"])
        oracle = naive_attention(zv, g.edges, g.n,
                                 params["l1.k1.w_a"].value, params["l1.k1.b"].value)
        for i in range(len(gt.edges.dst)):
            u, v = int(gt.edges.dst[i]), int(gt.edges.src[i])
            assert abs(att.value[i] - oracle[(u, v)]) <= 1e-10


def test_attention_isolated_node_attends_to_itself_exactly():
    # node 5 has no neighbour: its only incoming edge is its self loop, so
    # its attention is exactly 1 and its aggregate is exactly its own message
    cfg = TrainConfig(backbone="gat", num_branches=2, hidden=4)
    g = Graph(6, Rng(40).normal((6, 4)), [0, 1, 2, 0, 1, 2],
              [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]], 3)
    gt = prepare_graph(g, cfg)
    params = make_params(cfg)
    params["l1.k1.b"].value = 0.4 * Rng(41).normal((8, 1))
    zv = Rng(42).normal((6, 4))
    att = _branch_attention(constant(zv), gt, params["l1.k1.w_a"], params["l1.k1.b"])
    (own,) = np.flatnonzero(gt.edges.dst == 5)
    assert gt.edges.src[own] == 5 and att.value[own] == 1.0
    msgs = zv @ params["l1.k1.w_d"].value.T
    out = ad.edge_combine(att, constant(msgs), gt.edges)
    np.testing.assert_array_equal(out.value[5], msgs[5])
    logits = forward(gt, params, cfg, Rng(43), Rng(44), training=False).logits.value
    assert np.isfinite(logits).all()


def test_prepare_graph_builds_only_the_backbone_operand():
    g = random_graph(seed=45)
    gcn = prepare_graph(g, TrainConfig(backbone="gcn"))
    gat = prepare_graph(g, TrainConfig(backbone="gat"))
    assert gcn.edges is None and gcn.adj is not None
    assert gat.adj is None and gat.edges is not None
    assert gcn.stored_edges == gat.stored_edges == 2 * len(g.edges)
    assert gat.edges.num_edges == gat.stored_edges + g.n


def test_moe_gat_matches_naive_loop():
    cfg = TrainConfig(backbone="gat", num_branches=2, hidden=4)
    g = random_graph(n=8, seed=600)
    gt = prepare_graph(g, cfg)
    params = make_params(cfg)
    for j in (1, 2):
        params[f"l1.k{j}.b"].value = 0.4 * Rng(601 + j).normal((8, 1))
    rng = Rng(610)
    zv = rng.normal((g.n, 4))
    ev = ad.row_softmax(constant(rng.normal((g.n, 2)))).value
    out = moe_preact(constant(zv), gt, constant(ev), params, 1)
    expect = np.zeros((g.n, 4))
    for j in (1, 2):
        att = naive_attention(zv, g.edges, g.n,
                              params[f"l1.k{j}.w_a"].value, params[f"l1.k{j}.b"].value)
        msgs = zv @ params[f"l1.k{j}.w_d"].value.T
        branch = zv @ params[f"l1.k{j}.w_self"].value.T
        for (u, v), a in att.items():
            branch[u] += a * msgs[v]
        expect += ev[:, j - 1:j] * branch
    assert np.abs(out.value - expect).max() <= 1e-10


# ---------------------------------------------------------------------------
# full forward passes
# ---------------------------------------------------------------------------


def eval_logits(g, cfg, params, seed=0):
    gt = prepare_graph(g, cfg)
    root = Rng(seed)
    out = forward(gt, params, cfg, root.substream(STREAM_GUMBEL),
                  root.substream(STREAM_DROPOUT), training=False)
    return out


def test_forward_shapes_and_posterior():
    cfg = TrainConfig(num_layers=3, hidden=8, num_branches=4)
    g = random_graph(seed=18)
    params = make_params(cfg, in_dim=4, num_classes=3)
    out = eval_logits(g, cfg, params)
    assert out.logits.value.shape == (g.n, 3)
    assert len(out.posterior) == 3
    for lp in out.posterior:
        assert lp.pi.value.shape == (g.n, 4)
        assert np.abs(lp.e.value.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(lp.pi.value.sum(axis=1) - 1.0).max() <= 1e-12


def test_forward_eval_deterministic():
    cfg = TrainConfig(hidden=8)
    g = random_graph(seed=19)
    params = make_params(cfg)
    a = eval_logits(g, cfg, params, seed=5).logits.value
    b = eval_logits(g, cfg, params, seed=5).logits.value
    assert np.array_equal(a, b)


def test_mean_pool_ablation_equals_uniform_gates():
    cfg = TrainConfig(hidden=8, mean_pool_env=True, dropout=0.0)
    g = random_graph(seed=20)
    params = make_params(cfg)
    gt = prepare_graph(g, cfg)
    out = forward(gt, params, cfg, Rng(0), Rng(0), training=True)

    # hand-rolled forward with e fixed at 1/K
    k = cfg.num_branches
    z = ad.matmul(gt.features, ad.transpose(params["phi_in"]))
    for l in range(1, cfg.num_layers + 1):
        e = constant(np.full((g.n, k), 1.0 / k))
        z = ad.add(ad.relu(moe_preact(z, gt, e, params, l)), z)
    direct = ad.matmul(z, ad.transpose(params["phi_out"])).value
    assert np.abs(out.logits.value - direct).max() <= 1e-12
    for lp in out.posterior:
        assert np.abs(lp.e.value - 1.0 / k).max() == 0.0


def test_deterministic_eval_flag_zeroes_noise():
    cfg = TrainConfig(hidden=8, deterministic_eval=True)
    g = random_graph(seed=21)
    params = make_params(cfg)
    out = eval_logits(g, cfg, params, seed=0)
    for lp in out.posterior:
        assert np.array_equal(lp.noise, np.zeros_like(lp.noise))
        # without noise the gate is the tempered softmax of pi itself
        expect = np.exp(lp.pi.value) / np.exp(lp.pi.value).sum(axis=1, keepdims=True)
        assert np.abs(lp.e.value - expect).max() <= 1e-12


def test_feature_dim_mismatch_raises():
    cfg = TrainConfig(hidden=8)
    params = make_params(cfg, in_dim=6)
    with pytest.raises(ValueError):
        eval_logits(random_graph(seed=22, d=4), cfg, params)


@pytest.mark.parametrize("method", ["canet", "erm"])
def test_forward_rejects_graph_prepared_for_other_backbone(method):
    g = random_graph(seed=24)
    for backbone, other in (("gcn", "gat"), ("gat", "gcn")):
        cfg = TrainConfig(method=method, backbone=backbone, hidden=4)
        gt = prepare_graph(g, TrainConfig(backbone=other))
        with pytest.raises(ValueError, match=f"prepared for {other}"):
            forward(gt, make_params(cfg), cfg, Rng(0), Rng(0), training=False)


def test_baseline_gcn_hand_fixture():
    # identity features and identity weights on the 3-node path: each logit row
    # is the self-loop-normalized neighborhood sum plus the residual identity
    n = 3
    cfg = TrainConfig(method="erm", num_layers=1, hidden=n, dropout=0.0)
    g = Graph(n, np.eye(n), [0, 1, 0], [[0, 1], [1, 2]], 2)
    params = make_params(cfg, in_dim=n, num_classes=n)
    params.load_values({"phi_in": np.eye(n), "l1.w": np.eye(n), "phi_out": np.eye(n)})
    gt = prepare_graph(g, cfg)
    out = forward(gt, params, cfg, Rng(0), Rng(0), training=False)
    expect = gt.adj.densify() + np.eye(n)  # relu is inactive: entries >= 0
    assert np.abs(out.logits.value - expect).max() <= 1e-12
    assert out.posterior is None
    # spot-check one normalization coefficient: deg(0)=2, deg(1)=3 with loops
    assert abs(gt.adj.csr[0, 1] - 1.0 / np.sqrt(6.0)) <= 1e-12


def test_baseline_gat_zero_bias_is_mean_aggregation():
    cfg = TrainConfig(method="erm", backbone="gat", num_layers=1, hidden=4, dropout=0.0)
    g = random_graph(seed=23)
    params = make_params(cfg)
    gt = prepare_graph(g, cfg)
    out = forward(gt, params, cfg, Rng(0), Rng(0), training=False)
    z = g.features @ params["phi_in"].value.T
    msgs = z @ params["l1.w"].value.T
    agg = np.zeros_like(z)
    for i in range(len(gt.edges.dst)):
        agg[gt.edges.dst[i]] += msgs[gt.edges.src[i]] / (g.degrees[gt.edges.dst[i]] + 1)
    expect = (np.maximum(agg, 0.0) + z) @ params["phi_out"].value.T
    assert np.abs(out.logits.value - expect).max() <= 1e-10


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_deterministic():
    cfg = TrainConfig(hidden=8)
    a = make_params(cfg, seed=3).values()
    b = make_params(cfg, seed=3).values()
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_init_std_matches_fan_in():
    cfg = TrainConfig(hidden=512, num_layers=1, num_branches=1)
    params = make_params(cfg, in_dim=512, num_classes=2)
    std = params["l1.k1.w_d"].value.std()
    target = np.sqrt(2.0 / 512)
    assert abs(std - target) <= 0.1 * target


def test_init_branches_not_tied():
    params = make_params(TrainConfig(hidden=8))
    assert not np.array_equal(params["l1.k1.w_d"].value, params["l1.k2.w_d"].value)


def test_init_gat_bias_zero():
    params = make_params(TrainConfig(hidden=8, backbone="gat"))
    assert np.array_equal(params["l1.k1.b"].value, np.zeros((16, 1)))


def test_shared_env_single_matrix():
    params = make_params(TrainConfig(hidden=8, shared_env=True))
    assert "w_env" in params
    assert "l1.w_env" not in params
    assert params.env_weight(1) is params.env_weight(2)


def test_load_values_shape_check():
    params = make_params(TrainConfig(hidden=8))
    vals = params.values()
    vals["phi_in"] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        params.load_values(vals)


# ---------------------------------------------------------------------------
# branch-weight export
# ---------------------------------------------------------------------------


def test_export_emits_one_file_per_branch(tmp_path):
    params = make_params(TrainConfig(hidden=4, num_branches=5))
    paths = export_branch_weights(params, 1, str(tmp_path))
    assert len(paths) == 5
    for p in paths:
        assert p.endswith(".csv")


def test_export_import_roundtrip(tmp_path):
    params = make_params(TrainConfig(hidden=4))
    paths = export_branch_weights(params, 2, str(tmp_path))
    for j, p in enumerate(paths, start=1):
        back = import_branch_weights(p)
        assert np.array_equal(back, params[f"l2.k{j}.w_d"].value)


def test_export_rejects_bad_layer(tmp_path):
    params = make_params(TrainConfig(hidden=4))
    with pytest.raises(ValueError):
        export_branch_weights(params, 3, str(tmp_path))
