"""Model tests: estimator fixtures, naive-loop propagation oracles, forward
pass contracts, initialization statistics, and weight export."""

import numpy as np
import pytest

from envgnn import autodiff as ad
from envgnn import model
from envgnn.autodiff import constant
from envgnn.config import TrainConfig
from envgnn.graphdata import Graph, build_norm_adj
from envgnn.model import (
    env_probs,
    export_branch_weights,
    forward,
    gumbel_sample,
    init_params,
    moe_preact,
    prepare_graph,
)
from envgnn.rng import Rng, STREAM_DROPOUT, STREAM_GUMBEL, STREAM_INIT

from branch_csv import import_branch_weights


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
    # without noise, at tau 1, the softmax of log pi gives back pi
    pi, log_pi = env_probs(constant(Rng(3).normal((4, 2))), constant(Rng(4).normal((3, 2))))
    e = gumbel_sample(log_pi, 1.0, np.zeros((4, 3)))
    assert np.abs(e.value - pi.value).max() <= 1e-14


def test_gumbel_sample_high_temperature_uniform():
    pi = constant(np.array([[0.9, 0.05, 0.05]]))
    g = Rng(5).gumbel((1, 3))
    e = gumbel_sample(pi, 1e9, g)
    assert np.abs(e.value - 1 / 3).max() <= 1e-8


@pytest.mark.parametrize("tau", [0.0, -1.0])
def test_config_rejects_nonpositive_gumbel_temperature(tau):
    # gumbel_sample divides by tau unchecked; every entry path builds a TrainConfig
    with pytest.raises(ValueError, match="tau must be positive"):
        TrainConfig(tau=tau)


@pytest.mark.parametrize("tau", [1e-320, 5e-324])
def test_config_rejects_gumbel_temperature_without_finite_reciprocal(tau):
    # positive, but 1 / tau overflows to inf in gumbel_sample
    with pytest.raises(ValueError, match="tau must have a finite reciprocal"):
        TrainConfig(tau=tau)
    TrainConfig(tau=1e-308)  # subnormal, but 1 / tau = 1e308 is finite


def test_gumbel_rows_sum_to_one():
    pi = constant(np.full((50, 4), 0.25))
    e = gumbel_sample(pi, 1.0, Rng(6).substream(STREAM_GUMBEL).gumbel((50, 4)))
    assert np.abs(e.value.sum(axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# MoE-GCN propagation vs naive loop
# ---------------------------------------------------------------------------


def naive_moe_gcn(zv, dense_adj, ev, params, layer, k):
    n, h = zv.shape
    out = np.zeros((n, h))
    for u in range(n):
        for j in range(1, k + 1):
            wd = params[f"l{layer}.w_d"].value[j - 1]
            ws = params[f"l{layer}.w_self"].value[j - 1]
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
    direct = (gt.adj.densify() @ z.value @ params["l1.w_d"].value[0].T
              + z.value @ params["l1.w_self"].value[0].T)
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
    params["l1.w_d"].value[0] = Rng(11).normal((4, 4))
    params["l1.w_self"].value[2] = Rng(12).normal((4, 4))
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


def attention_matrix(gt, w_a, b):
    """One GAT branch's attention as a dense (N, N) matrix, entry [v, u] the
    weight of edge u -> v, read off ``gat_mixture``: with inputs and message
    weight both the identity (width N), one branch, a unit gate and no self
    term, the mixture's output is the attention matrix."""
    eye, n = np.eye(gt.n), gt.n
    return ad.gat_mixture(gt.adj, eye, np.ones((n, 1)), eye[None], None, w_a, b).value


def gat_branch_params(n, seed, scale=0.3):
    """One branch's (1, N, N) attention weight and (1, 2N, 1) attention
    vector, for ``attention_matrix`` on an n-node graph."""
    rng = Rng(seed)
    return constant(rng.normal((1, n, n))), constant(scale * rng.normal((1, 2 * n, 1)))


def test_attention_rows_sum_to_one():
    g = random_graph(seed=13)
    gt = prepare_graph(g, TrainConfig(backbone="gat"))
    att = attention_matrix(gt, *gat_branch_params(g.n, 14))
    assert np.abs(att.sum(axis=1) - 1.0).max() <= 1e-9


def test_attention_zero_bias_uniform():
    g = random_graph(seed=16)
    gt = prepare_graph(g, TrainConfig(backbone="gat"))
    w_a, _ = gat_branch_params(g.n, 17)
    att = attention_matrix(gt, w_a, constant(np.zeros((1, 2 * g.n, 1))))
    expect = np.zeros((g.n, g.n))
    expect[gt.adj.dst, gt.adj.src] = 1.0 / (g.degrees + 1)[gt.adj.dst]
    assert np.abs(att - expect).max() <= 1e-12


def test_attention_matches_naive_loop():
    for seed in range(10):
        g = random_graph(n=8, seed=seed + 300)
        gt = prepare_graph(g, TrainConfig(backbone="gat"))
        w_a, b = gat_branch_params(g.n, seed + 400, scale=0.4)
        att = attention_matrix(gt, w_a, b)
        oracle = naive_attention(np.eye(g.n), g.edges, g.n, w_a.value[0], b.value[0])
        expect = np.zeros((g.n, g.n))
        for (u, v), a in oracle.items():
            expect[u, v] = a
        assert np.abs(att - expect).max() <= 1e-10


def test_attention_isolated_node_attends_to_itself_exactly():
    # node 5 has no neighbour: its only incoming edge is its self loop, so
    # its attention is exactly 1 and its aggregate is exactly its own message
    cfg = TrainConfig(backbone="gat", num_branches=2, hidden=4)
    g = Graph(6, Rng(40).normal((6, 4)), [0, 1, 2, 0, 1, 2],
              [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]], 3)
    gt = prepare_graph(g, cfg)
    att = attention_matrix(gt, *gat_branch_params(g.n, 41, scale=0.4))
    assert att[5, 5] == 1.0 and not att[5, :5].any()
    params = make_params(cfg)
    params["l1.b"].value[0] = 0.4 * Rng(41).normal((8, 1))
    zv = Rng(42).normal((6, 4))
    w_d, w_a, b = (params[f"l1.{role}"].value[:1] for role in ("w_d", "w_a", "b"))
    out = ad.gat_mixture(gt.adj, constant(zv), constant(np.ones((6, 1))), w_d, None, w_a, b)
    np.testing.assert_array_equal(out.value[5], (zv @ w_d[0].T)[5])
    logits = forward(gt, params, Rng(43), Rng(44), training=False).logits.value
    assert np.isfinite(logits).all()


@pytest.mark.parametrize("method", ["canet", "erm"])
def test_gat_attends_over_the_self_looped_gcn_adjacency(method):
    g = random_graph(seed=45)
    gat = prepare_graph(g, TrainConfig(backbone="gat", method=method))
    looped = build_norm_adj(g, add_self_loops=True)
    assert gat.backbone == "gat"
    np.testing.assert_array_equal(gat.adj.csr.indptr, looped.csr.indptr)
    np.testing.assert_array_equal(gat.adj.csr.indices, looped.csr.indices)
    assert gat.adj.nnz == 2 * len(g.edges) + g.n


@pytest.mark.parametrize("backbone, method", [
    ("gcn", "canet"), ("gcn", "erm"), ("gat", "canet"), ("gat", "erm"),
])
def test_stored_edges_counts_the_operands_links(backbone, method):
    g = random_graph(seed=46)
    gt = prepare_graph(g, TrainConfig(backbone=backbone, method=method))
    off_diagonal = np.count_nonzero(gt.adj.src != gt.adj.dst)
    assert gt.stored_edges == gt.adj.num_links == off_diagonal == 2 * len(g.edges)


def test_moe_gat_matches_naive_loop():
    cfg = TrainConfig(backbone="gat", num_branches=2, hidden=4)
    g = random_graph(n=8, seed=600)
    gt = prepare_graph(g, cfg)
    params = make_params(cfg)
    for j in (1, 2):
        params["l1.b"].value[j - 1] = 0.4 * Rng(601 + j).normal((8, 1))
    rng = Rng(610)
    zv = rng.normal((g.n, 4))
    ev = ad.row_softmax(constant(rng.normal((g.n, 2)))).value
    out = moe_preact(constant(zv), gt, constant(ev), params, 1)
    expect = np.zeros((g.n, 4))
    for j in (1, 2):
        w_d, w_self, w_a, b = (params[f"l1.{role}"].value[j - 1]
                               for role in ("w_d", "w_self", "w_a", "b"))
        att = naive_attention(zv, g.edges, g.n, w_a, b)
        msgs = zv @ w_d.T
        branch = zv @ w_self.T
        for (u, v), a in att.items():
            branch[u] += a * msgs[v]
        expect += ev[:, j - 1:j] * branch
    assert np.abs(out.value - expect).max() <= 1e-10


@pytest.mark.parametrize("with_self", [True, False], ids=["self", "no-self"])
def test_gat_mixture_matches_naive_loop(with_self):
    for seed in range(6):
        k = 1 + seed % 3
        g = random_graph(n=9, seed=seed + 700)
        gt = prepare_graph(g, TrainConfig(backbone="gat"))
        rng = Rng(seed + 710)
        zv, ev = rng.normal((g.n, 4)), rng.uniform((g.n, k))
        w_d, w_self, w_a = (rng.normal((k, 4, 4)) for _ in range(3))
        b = 0.4 * rng.normal((k, 8, 1))
        out = ad.gat_mixture(gt.adj, constant(zv), constant(ev), w_d,
                             w_self if with_self else None, w_a, b)
        expect = np.zeros((g.n, 4))
        for j in range(k):
            branch = zv @ w_self[j].T if with_self else np.zeros((g.n, 4))
            for (u, v), a in naive_attention(zv, g.edges, g.n, w_a[j], b[j]).items():
                branch[u] += a * (zv[v] @ w_d[j].T)
            expect += ev[:, j:j + 1] * branch
        assert np.abs(out.value - expect).max() <= 1e-12


# ---------------------------------------------------------------------------
# full forward passes
# ---------------------------------------------------------------------------


def eval_logits(g, cfg, params, seed=0):
    gt = prepare_graph(g, cfg)
    root = Rng(seed)
    out = forward(gt, params, root.substream(STREAM_GUMBEL),
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
    out = forward(gt, params, Rng(0), Rng(0), training=True)

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
        # without noise, at tau 1, the gate is softmax(log pi) = pi
        assert np.abs(lp.e.value - lp.pi.value).max() <= 1e-12


def reachable(roots):
    """Every node under ``roots`` by parent links, each once."""
    seen = {id(r): r for r in roots}
    stack = list(roots)
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


@pytest.mark.parametrize("method", ["canet", "erm"])
@pytest.mark.parametrize("backbone", ["gcn", "gat"])
def test_eval_forward_builds_no_tape(backbone, method):
    # no node of an eval pass keeps inputs or a closure; the training pass
    # on the same parameters records its tape as before
    cfg = TrainConfig(backbone=backbone, method=method, hidden=8)
    g = random_graph(seed=27)
    params = make_params(cfg)
    out = eval_logits(g, cfg, params)
    roots = [out.logits] + [t for lp in out.posterior or [] for t in (lp.pi, lp.log_pi, lp.e)]
    nodes = reachable(roots)
    assert len(nodes) == len(roots)
    assert all(t.parents == () and t._backward is None and not t.needs_grad for t in nodes)
    trained = forward(prepare_graph(g, cfg), params, Rng(1), Rng(2), training=True).logits
    assert trained.needs_grad and trained._backward is not None
    assert params["phi_in"].needs_grad and params["phi_in"].op == "param"


@pytest.mark.parametrize("backbone", ["gcn", "gat"])
@pytest.mark.parametrize("overrides", [{"method": "erm"}, {"mean_pool_env": True}],
                         ids=["erm", "canet-mean-pool"])
def test_eval_forward_equals_training_forward_bit_for_bit(backbone, overrides):
    # with dropout off and no gate noise drawn, the two modes differ only in
    # whether the tape is recorded: the arithmetic is the same
    cfg = TrainConfig(backbone=backbone, hidden=8, dropout=0.0, **overrides)
    g = random_graph(seed=28)
    params = make_params(cfg)
    gt = prepare_graph(g, cfg)
    logits = [forward(gt, params, Rng(3), Rng(4), training=mode).logits.value
              for mode in (False, True)]
    assert np.array_equal(logits[0].view(np.int64), logits[1].view(np.int64))


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
            forward(gt, make_params(cfg), Rng(0), Rng(0), training=False)


@pytest.mark.parametrize("backbone, method, branches_per_layer", [
    ("gcn", "canet", 3), ("gcn", "erm", 1), ("gat", "canet", 3), ("gat", "erm", 1),
], ids=["canet-3", "erm-1", "gat-canet-3", "gat-erm-1"])
def test_gcn_training_forward_counts_edge_touches(backbone, method, branches_per_layer):
    # canet propagates once per branch, erm once per layer. The GCN erm
    # operand carries the self loops, so its stored entries include one per
    # node; GAT's self loops are not counted.
    cfg = TrainConfig(backbone=backbone, method=method, num_layers=2, num_branches=3, hidden=4)
    g = random_graph(seed=25)
    gt = prepare_graph(g, cfg)
    per_branch = gt.stored_edges
    if backbone == "gcn":
        assert gt.adj.nnz == gt.stored_edges + (g.n if method == "erm" else 0)
        per_branch = gt.adj.nnz
    ad.edge_touches.count = 0
    forward(gt, make_params(cfg), Rng(1), Rng(2), training=True)
    assert ad.edge_touches.count == 2 * branches_per_layer * per_branch
    ad.edge_touches.count = 0


# tape nodes of a 3-layer training forward and its cross-entropy, leaves
# included: each layer's branch weights are one parameter per role
NODES_PER_STEP = {("gcn", "canet"): 50, ("gcn", "erm"): 24, ("gat", "canet"): 56,
                  ("gat", "erm"): 27}


@pytest.mark.parametrize("method", ["canet", "erm"])
@pytest.mark.parametrize("backbone", ["gcn", "gat"])
def test_training_step_holds_one_mixture_node_per_layer(monkeypatch, backbone, method):
    cfg = TrainConfig(backbone=backbone, method=method, num_layers=3, hidden=4)
    g = random_graph(seed=26)
    gt = prepare_graph(g, cfg)
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return moe_preact(*args)

    monkeypatch.setattr(model, "moe_preact", counted)
    logits = forward(gt, make_params(cfg), Rng(1), Rng(2), training=True).logits
    loss = ad.cross_entropy(logits, g.labels, np.arange(g.n))
    ops, seen, stack = [], {id(loss)}, [loss]
    while stack:
        node = stack.pop()
        ops.append(node.op)
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    assert calls == [1, 2, 3]
    assert ops.count(f"{backbone}_mixture") == 3
    assert len(ops) == NODES_PER_STEP[backbone, method]
    assert not ({"gcn_mixture", "gat_mixture"} - {f"{backbone}_mixture"}) & set(ops)


def test_baseline_gcn_hand_fixture():
    # identity features and identity weights on the 3-node path: each logit row
    # is the self-loop-normalized neighborhood sum plus the residual identity
    n = 3
    cfg = TrainConfig(method="erm", num_layers=1, hidden=n, dropout=0.0)
    g = Graph(n, np.eye(n), [0, 1, 0], [[0, 1], [1, 2]], 2)
    params = make_params(cfg, in_dim=n, num_classes=n)
    params.load_values({"phi_in": np.eye(n), "l1.w_d": np.eye(n)[None], "phi_out": np.eye(n)})
    gt = prepare_graph(g, cfg)
    out = forward(gt, params, Rng(0), Rng(0), training=False)
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
    out = forward(gt, params, Rng(0), Rng(0), training=False)
    z = g.features @ params["phi_in"].value.T
    msgs = z @ params["l1.w_d"].value[0].T
    agg = np.zeros_like(z)
    for i in range(gt.adj.nnz):
        agg[gt.adj.dst[i]] += msgs[gt.adj.src[i]] / (g.degrees[gt.adj.dst[i]] + 1)
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


def _layer_params(l, roles, shape):
    return [(f"l{l}.{role}", shape) for role in roles]


@pytest.mark.parametrize("backbone, method, expect", [
    ("gcn", "canet",
     [("phi_in", (4, 5))] + _layer_params(1, ("w_d", "w_self"), (3, 4, 4))
     + _layer_params(2, ("w_d", "w_self"), (3, 4, 4))
     + [("l1.w_env", (3, 4)), ("l2.w_env", (3, 4)), ("phi_out", (2, 4))]),
    ("gat", "canet",
     [("phi_in", (4, 5))] + _layer_params(1, ("w_d", "w_self", "w_a"), (3, 4, 4))
     + [("l1.b", (3, 8, 1))] + _layer_params(2, ("w_d", "w_self", "w_a"), (3, 4, 4))
     + [("l2.b", (3, 8, 1)), ("l1.w_env", (3, 4)), ("l2.w_env", (3, 4)), ("phi_out", (2, 4))]),
    ("gcn", "erm",
     [("phi_in", (4, 5)), ("l1.w_d", (1, 4, 4)), ("l2.w_d", (1, 4, 4)), ("phi_out", (2, 4))]),
    ("gat", "erm",
     [("phi_in", (4, 5)), ("l1.w_d", (1, 4, 4)), ("l1.b", (1, 8, 1)), ("l2.w_d", (1, 4, 4)),
      ("l2.b", (1, 8, 1)), ("phi_out", (2, 4))]),
], ids=["gcn-canet", "gat-canet", "gcn-erm", "gat-erm"])
def test_init_params_names_and_shapes(backbone, method, expect):
    cfg = TrainConfig(backbone=backbone, method=method, hidden=4, num_branches=3, num_layers=2)
    params = make_params(cfg, in_dim=5, num_classes=2)
    assert [(name, t.shape) for name, t in params.tensors.items()] == expect


@pytest.mark.parametrize("method", ["canet", "erm"])
@pytest.mark.parametrize("backbone", ["gcn", "gat"])
def test_init_params_stacks_branch_major_draws(backbone, method):
    # branch j of a stacked tensor holds the draw a per-branch tensor of that
    # role got before the weights were stacked: draws go branch by branch
    # (w_d, w_self, w_a of branch 1, then of branch 2, ...), so a seed keeps
    # its initial weights
    cfg = TrainConfig(backbone=backbone, method=method, hidden=4, num_branches=3,
                      num_layers=2)
    params = make_params(cfg, in_dim=5, num_classes=2, seed=9)
    rng = Rng(9).substream(STREAM_INIT)
    canet = method == "canet"
    roles = ["w_d"] + (["w_self"] + (["w_a"] if backbone == "gat" else []) if canet else [])
    drawn = {("phi_in", None): rng.normal((4, 5), std=np.sqrt(2.0 / 5))}
    for l in (1, 2):
        for j in range(3 if canet else 1):
            for role in roles:
                drawn[f"l{l}.{role}", j] = rng.normal((4, 4), std=np.sqrt(2.0 / 4))
    for l in (1, 2) if canet else ():
        drawn[f"l{l}.w_env", None] = rng.normal((3, 4), std=np.sqrt(2.0 / 4))
    drawn["phi_out", None] = rng.normal((2, 4), std=np.sqrt(2.0 / 4))
    for (name, j), w in drawn.items():
        got = params[name].value if j is None else params[name].value[j]
        assert np.array_equal(got.view(np.int64), w.view(np.int64)), (name, j)
    biases = {name for name in params.tensors if name.endswith(".b")}
    assert {name for name, _ in drawn} == set(params.tensors) - biases
    assert not any(params[name].value.any() for name in biases)


def test_init_std_matches_fan_in():
    cfg = TrainConfig(hidden=512, num_layers=1, num_branches=1)
    params = make_params(cfg, in_dim=512, num_classes=2)
    std = params["l1.w_d"].value.std()
    target = np.sqrt(2.0 / 512)
    assert abs(std - target) <= 0.1 * target


def test_init_branches_not_tied():
    params = make_params(TrainConfig(hidden=8))
    assert not np.array_equal(params["l1.w_d"].value[0], params["l1.w_d"].value[1])


def test_init_gat_bias_zero():
    params = make_params(TrainConfig(hidden=8, backbone="gat"))
    assert np.array_equal(params["l1.b"].value, np.zeros((3, 16, 1)))


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
        assert np.array_equal(back, params["l2.w_d"].value[j - 1])


def test_export_rejects_bad_layer(tmp_path):
    params = make_params(TrainConfig(hidden=4))
    with pytest.raises(ValueError):
        export_branch_weights(params, 3, str(tmp_path))
