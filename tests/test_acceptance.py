"""Acceptance suite: ten end-to-end checks at frozen tolerances.

Each check records exactly one PASS/FAIL line and then asserts; the
terminal summary (``tests/conftest.py``) prints every recorded line, so the
verdicts are visible in any run log.
"""

import json
import os
import time

import numpy as np
import pytest

from envgnn import autodiff as ad
from envgnn.autodiff import constant, parameter
from envgnn.cli import main
from envgnn.config import TrainConfig
from envgnn.gradcheck import run_gradcheck
from envgnn.graphdata import Graph
from envgnn.metrics import accuracy, macro_f1, roc_auc
from envgnn.model import (
    LayerPosterior,
    forward,
    gumbel_sample,
    init_params,
    moe_preact,
    prepare_graph,
)
from envgnn.optim import AdamState, adam_step
from envgnn.rng import Rng, STREAM_DROPOUT, STREAM_GUMBEL, STREAM_INIT
from envgnn.shiftgen import PlantedConfig, gen_planted_dataset
from envgnn.trainer import disjoint_union, kl_exact_rows, regularizer, train

from tape_helpers import spmm


_node = None


@pytest.fixture(autouse=True)
def _grab_node(request):
    global _node
    _node = request.node


def report(num: int, passed: bool, detail: str):
    line = f"[ACCEPT-{num:02d}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    _node.user_properties.append(("accept", line))
    assert passed, line


def tv_distance(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


# ---------------------------------------------------------------------------
# 1. whole-model gradient check, both backbones
# ---------------------------------------------------------------------------


def test_accept_01_gradcheck_both_backbones():
    t0 = time.perf_counter()
    results = [run_gradcheck(backbone=b, num_branches=3, num_layers=2, seed=0)
               for b in ("gcn", "gat")]
    elapsed = time.perf_counter() - t0
    worst = max(r["max_relative_error"] for r in results)
    ok = all(r["passed"] for r in results) and worst <= 1e-4 and elapsed < 30.0
    report(1, ok, f"gradcheck gcn+gat max rel err {worst:.3e} (tol 1e-4), "
                  f"{elapsed:.1f}s (budget 30s)")


# ---------------------------------------------------------------------------
# 2. regularizer: nonnegativity, MC precision, uniform fixed point
# ---------------------------------------------------------------------------


def test_accept_02_regularizer_properties():
    rng = Rng(20)
    # nonnegativity of the closed form on 10^4 random distributions
    scores = 6.0 * rng.normal((10_000, 5))
    pi = np.exp(scores - scores.max(axis=1, keepdims=True))
    pi /= pi.sum(axis=1, keepdims=True)
    min_kl = float(kl_exact_rows(pi).min())

    # Monte-Carlo redraw precision on a fixed posterior
    k, rows = 4, 100
    raw = constant(rng.normal((rows, k)))
    pi_t = ad.row_softmax(raw)
    log_pi_t = ad.row_log_softmax(raw)
    idx = np.arange(rows)
    draw_rng = Rng(21).substream(STREAM_GUMBEL)
    vals = np.empty(10_000)
    for i in range(vals.size):
        e = gumbel_sample(log_pi_t, 1.0, draw_rng.gumbel((rows, k)))
        post = [LayerPosterior(pi_t, log_pi_t, e)]
        vals[i] = float(regularizer(post, idx, k, exact=False).value)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(vals.size))
    se_ok = se < max(0.01 * abs(mean), 1e-3)

    # uniform posterior is a fixed point of both forms
    zeros = constant(np.zeros((50, 3)))
    u_pi = ad.row_softmax(zeros)
    u_log = ad.row_log_softmax(zeros)
    e = gumbel_sample(u_log, 1.0, Rng(22).substream(STREAM_GUMBEL).gumbel((50, 3)))
    post = [LayerPosterior(u_pi, u_log, e)]
    mc_fix = abs(float(regularizer(post, np.arange(50), 3, exact=False).value))
    ex_fix = abs(float(regularizer(post, np.arange(50), 3, exact=True).value))

    ok = min_kl >= -1e-9 and se_ok and mc_fix <= 1e-9 and ex_fix <= 1e-9
    report(2, ok, f"KL min {min_kl:.2e} (>= -1e-9), MC mean {mean:.4f} SE {se:.2e}, "
                  f"uniform fixed points mc={mc_fix:.2e} exact={ex_fix:.2e}")


# ---------------------------------------------------------------------------
# 3. Gumbel-max: low-temperature argmax frequencies follow pi
# ---------------------------------------------------------------------------


def test_accept_03_gumbel_argmax_frequencies():
    target = np.array([0.5, 0.3, 0.2])
    n = 100_000
    pi_t = constant(np.tile(target, (n, 1)))
    log_pi_t = constant(np.tile(np.log(target), (n, 1)))
    e = gumbel_sample(log_pi_t, 0.05, Rng(30).substream(STREAM_GUMBEL).gumbel((n, 3)))
    counts = np.bincount(e.value.argmax(axis=1), minlength=3)
    freq = counts / n
    oracle = np.bincount(
        np.random.default_rng(2026).choice(3, size=n, p=target), minlength=3) / n
    tv_pi = tv_distance(freq, target)
    tv_oracle = tv_distance(freq, oracle)
    ok = tv_pi <= 0.02 and tv_oracle <= 0.02
    report(3, ok, f"gumbel argmax freq {np.round(freq, 4).tolist()} "
                  f"TV-to-pi {tv_pi:.4f}, TV-to-categorical {tv_oracle:.4f} (tol 0.02)")


# ---------------------------------------------------------------------------
# 4. K=1, no regularizer: collapse to a directly coded single-branch model
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_planted():
    return gen_planted_dataset(PlantedConfig(n_per_domain=60, seed=3,
                                             p_intra=0.1, p_inter=0.02))


def test_accept_04_single_branch_collapse(small_planted):
    ds = small_planted
    cfg = TrainConfig(method="canet", backbone="gcn", num_branches=1,
                      reg_weight=0.0, dropout=0.0, hidden=8, num_layers=2,
                      epochs=50, seed=5)
    res = train(ds, cfg)

    # the same architecture written out directly from tape primitives:
    # z <- z + relu(A_hat z W_d^T + z W_self^T), no gating, no estimator
    union = disjoint_union(ds.id_graphs)
    gt = prepare_graph(union, cfg)
    ref = init_params(cfg, union.num_features, ds.num_classes,
                      Rng(cfg.seed).substream(STREAM_INIT))
    names = ["phi_in", "l1.w_d", "l1.w_self", "l2.w_d", "l2.w_self", "phi_out"]
    # the one branch's (1, H, H) layer weights as plain (H, H) matrices
    hand = {n: parameter(ref[n].value.reshape(ref[n].shape[-2:])) for n in names}
    state = AdamState(hand)
    rows = ds.split.train
    hand_losses = []
    for _ in range(cfg.epochs):
        z = ad.matmul(gt.features, ad.transpose(hand["phi_in"]))
        for l in (1, 2):
            pre = ad.add(
                spmm(gt.adj, ad.matmul(z, ad.transpose(hand[f"l{l}.w_d"]))),
                ad.matmul(z, ad.transpose(hand[f"l{l}.w_self"])),
            )
            z = ad.add(ad.relu(pre), z)
        logits = ad.matmul(z, ad.transpose(hand["phi_out"]))
        loss = ad.cross_entropy(logits, union.labels, rows)
        hand_losses.append(float(loss.value))
        grads = ad.backward(loss, hand)
        adam_step(hand, grads, state, cfg.lr, cfg.weight_decay)

    gaps = [abs(rec["loss"] - hl) for rec, hl in zip(res.history, hand_losses)]
    worst = max(gaps)
    ok = len(gaps) == 50 and worst <= 1e-9
    report(4, ok, f"K=1 collapse: max per-epoch loss gap {worst:.2e} over "
                  f"{len(gaps)} epochs (tol 1e-9)")


# ---------------------------------------------------------------------------
# 5. vectorized propagation layers vs naive loops
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


def naive_moe_gat(zv, edges, n, ev, params, layer, k):
    out = np.zeros_like(zv)
    for j in range(1, k + 1):
        w_d, w_self, w_a, b = (params[f"l{layer}.{role}"].value[j - 1]
                               for role in ("w_d", "w_self", "w_a", "b"))
        att = naive_attention(zv, edges, n, w_a, b)
        msgs = zv @ w_d.T
        branch = zv @ w_self.T
        for (u, v), a in att.items():
            branch[u] += a * msgs[v]
        out += ev[:, j - 1:j] * branch
    return out


def test_accept_05_layers_match_naive_loops():
    worst = 0.0
    trials = 1000
    for trial in range(trials):
        rng = Rng(500 + trial)
        n = int(rng.integers(4, 17, ()))
        k = int(rng.integers(1, 4, ()))
        h = 4
        backbone = "gcn" if trial % 2 == 0 else "gat"
        cfg = TrainConfig(backbone=backbone, num_branches=k, hidden=h)
        u = rng.uniform((n, n))
        rows, cols = np.nonzero(np.triu(u < 0.3, k=1))
        g = Graph(n, rng.normal((n, h)), rng.integers(0, 2, n),
                  np.stack([rows, cols], axis=1), 2)
        gt = prepare_graph(g, cfg)
        params = init_params(cfg, h, 2, rng.substream(STREAM_INIT))
        zv = rng.normal((n, h))
        ev = ad.row_softmax(constant(rng.normal((n, k)))).value
        if backbone == "gcn":
            expect = np.maximum(naive_moe_gcn(zv, gt.adj.densify(), ev,
                                              params, 1, k), 0.0) + zv
        else:
            for j in range(1, k + 1):
                params["l1.b"].value[j - 1] = 0.4 * rng.normal((2 * h, 1))
            expect = np.maximum(naive_moe_gat(zv, g.edges, n, ev,
                                              params, 1, k), 0.0) + zv
        # one residual layer of the forward pass, dropout off
        out = ad.add(ad.relu(moe_preact(constant(zv), gt, constant(ev), params, 1)),
                     constant(zv))
        worst = max(worst, float(np.abs(out.value - expect).max()))
    ok = worst <= 1e-10
    report(5, ok, f"moe layers vs naive loops: max abs gap {worst:.2e} "
                  f"over {trials} instances (tol 1e-10)")


# ---------------------------------------------------------------------------
# 6 and 7. planted-shift generalization battery (shared runs)
# ---------------------------------------------------------------------------


ACCEPT_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def planted_battery():
    dataset = gen_planted_dataset(PlantedConfig(n_per_domain=1000, seed=7,
                                                stable_noise=0.5))
    base = dict(epochs=300, hidden=32, deterministic_eval=True)
    arms = {
        "canet": dict(base, method="canet", exact_kl=True, reg_weight=1.0),
        "erm": dict(base, method="erm"),
        "no_reg": dict(base, method="canet", reg_weight=0.0),
    }
    t0 = time.perf_counter()
    stats = {}
    for name, overrides in arms.items():
        oods, ids = [], []
        for seed in ACCEPT_SEEDS:
            res = train(dataset, TrainConfig(seed=seed, **overrides))
            oods.append(res.final["ood_mean"])
            ids.append(next(e["value"] for e in res.final["entries"]
                            if e["split"] == "test_id"))
        stats[name] = {"ood": float(np.mean(oods)), "id": float(np.mean(ids))}
    stats["elapsed"] = time.perf_counter() - t0
    return stats


def test_accept_06_ood_gain_over_erm(planted_battery):
    s = planted_battery
    gap = s["canet"]["ood"] - s["erm"]["ood"]
    id_gap = s["canet"]["id"] - s["erm"]["id"]
    ok = gap >= 0.05 and id_gap >= -0.05 and s["elapsed"] < 600.0
    report(6, ok, f"mixture OOD {s['canet']['ood']:.3f} vs plain {s['erm']['ood']:.3f} "
                  f"(gap {gap * 100:+.1f}pts, need >= +5), ID gap {id_gap * 100:+.1f}pts "
                  f"(need >= -5), battery {s['elapsed']:.0f}s (budget 600s)")


def test_accept_07_regularizer_helps(planted_battery):
    s = planted_battery
    gap = s["canet"]["ood"] - s["no_reg"]["ood"]
    # a tie within 1pt only counts if both arms clear the criterion-6 margin
    both_clear = (s["canet"]["ood"] >= s["erm"]["ood"] + 0.05
                  and s["no_reg"]["ood"] >= s["erm"]["ood"] + 0.05)
    ok = gap >= 0.0 or (gap >= -0.01 and both_clear)
    report(7, ok, f"regularized OOD {s['canet']['ood']:.3f} vs unregularized "
                  f"{s['no_reg']['ood']:.3f} (gap {gap * 100:+.1f}pts, need >= 0)")


# ---------------------------------------------------------------------------
# 8. cost scaling in branches and edges; exact edge-touch accounting
# ---------------------------------------------------------------------------


def _timing_instance(num_edges, num_branches, seed=80):
    rng = Rng(seed)
    n, h = 2000, 8
    u = rng.uniform((n, n))
    rows, cols = np.nonzero(np.triu(u < 0.12, k=1))
    order = rng.permutation(len(rows))[:num_edges]
    edges = np.stack([rows[order], cols[order]], axis=1)
    g = Graph(n, rng.normal((n, h)), rng.integers(0, 3, n), edges, 3)
    # the attention backbone is edge-dominated, so the cost scaling in |E|
    # is visible; the touch accounting is identical for both backbones
    cfg = TrainConfig(method="canet", backbone="gat", num_branches=num_branches,
                      hidden=h, num_layers=2, dropout=0.0, seed=seed)
    gt = prepare_graph(g, cfg)
    params = init_params(cfg, h, 3, Rng(seed).substream(STREAM_INIT))
    return g, gt, params, cfg


def _median_epoch_times(instances, labels, repeats=5):
    """Median seconds of one training step per instance. The instances take
    turns, one step each per repeat, so machine load that drifts during the
    measurement reaches all of them alike."""
    times = [[] for _ in instances]
    for _ in range(repeats):
        for ts, (gt, params, cfg) in zip(times, instances):
            root = Rng(cfg.seed)
            t0 = time.perf_counter()
            out = forward(gt, params, root.substream(STREAM_GUMBEL),
                          root.substream(STREAM_DROPOUT), training=True)
            loss = ad.cross_entropy(out.logits, labels, np.arange(gt.n))
            ad.backward(loss, params.tensors)
            ts.append(time.perf_counter() - t0)
    return [float(np.median(ts)) for ts in times]


def test_accept_08_cost_scaling_and_edge_accounting():
    e_base, k_base = 50_000, 3
    g1, gt1, p1, c1 = _timing_instance(e_base, k_base)
    _, gt2, p2, c2 = _timing_instance(e_base, 2 * k_base)
    _, gt3, p3, c3 = _timing_instance(2 * e_base, k_base)

    ad.edge_touches.count = 0
    root = Rng(c1.seed)
    forward(gt1, p1, root.substream(STREAM_GUMBEL),
            root.substream(STREAM_DROPOUT), training=True)
    touched = ad.edge_touches.count
    expected = c1.num_layers * k_base * gt1.stored_edges
    count_ok = touched == expected

    t1, t2, t3 = _median_epoch_times([(gt1, p1, c1), (gt2, p2, c2), (gt3, p3, c3)],
                                     g1.labels)
    f_branch = t2 / t1
    f_edges = t3 / t1
    ok = count_ok and 1.5 <= f_branch <= 2.8 and 1.5 <= f_edges <= 2.8
    report(8, ok, f"edge touches {touched} == L*K*stored {expected}; "
                  f"2x branches factor {f_branch:.2f}, 2x edges factor {f_edges:.2f} "
                  f"(range [1.5, 2.8])")


# ---------------------------------------------------------------------------
# 9. metrics vs brute-force oracles
# ---------------------------------------------------------------------------


def brute_accuracy(pred, true):
    return sum(int(p == t) for p, t in zip(pred, true)) / len(pred)


def brute_macro_f1(pred, true, c):
    scores = []
    for k in range(c):
        tp = sum(1 for p, t in zip(pred, true) if p == k and t == k)
        fp = sum(1 for p, t in zip(pred, true) if p == k and t != k)
        fn = sum(1 for p, t in zip(pred, true) if p != k and t == k)
        scores.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    return sum(scores) / c


def brute_roc_auc(scores, true):
    pos = [s for s, t in zip(scores, true) if t == 1]
    neg = [s for s, t in zip(scores, true) if t == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def test_accept_09_metrics_match_oracles():
    worst = 0.0
    rng = Rng(90)
    trials = 0
    while trials < 1000:
        c = int(rng.integers(2, 6, ()))
        n = int(rng.integers(2, 40, ()))
        pred = rng.integers(0, c, n)
        true = rng.integers(0, c, n)
        worst = max(worst, abs(accuracy(pred, true) - brute_accuracy(pred, true)))
        worst = max(worst, abs(macro_f1(pred, true, c) - brute_macro_f1(pred, true, c)))
        y = rng.integers(0, 2, n)
        if y.min() != y.max():
            s = np.round(rng.normal((n,)), 1)  # quantized scores exercise ties
            worst = max(worst, abs(roc_auc(s, y) - brute_roc_auc(s, y)))
        trials += 1
    fix_f1 = round(macro_f1([0, 1, 1, 1], [0, 0, 1, 1], 2), 5)
    fix_auc = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    ok = worst <= 1e-12 and fix_f1 == 0.73333 and fix_auc == 0.75
    report(9, ok, f"metric oracle gap {worst:.2e} over 1000 instances (tol 1e-12); "
                  f"fixtures macro-F1 {fix_f1}, AUC {fix_auc}")


# ---------------------------------------------------------------------------
# 10. bitwise run reproducibility through the command line
# ---------------------------------------------------------------------------


def test_accept_10_reproducible_runs(tmp_path):
    data = str(tmp_path / "data")
    rc = main(["gen-data", "--kind", "planted", "--out", data, "--seed", "4",
               "--n-per-domain", "80"])
    assert rc == 0
    flags = ["--data", data, "--epochs", "20", "--hidden", "16", "--seed", "11",
             "--reg-weight", "0.5", "--deterministic-eval"]
    dirs = [str(tmp_path / d) for d in ("run_a", "run_b")]
    for d in dirs:
        assert main(["train", "--out", d] + flags) == 0

    def metric_fields(path):
        payload = json.load(open(path))
        for row in payload["history"]:
            row.pop("seconds", None)  # wall-clock is the one permitted delta
        return json.dumps(payload, sort_keys=True).encode()

    runs_equal = (metric_fields(os.path.join(dirs[0], "run.json"))
                  == metric_fields(os.path.join(dirs[1], "run.json")))
    ck_equal = (open(os.path.join(dirs[0], "checkpoint.json"), "rb").read()
                == open(os.path.join(dirs[1], "checkpoint.json"), "rb").read())
    ok = runs_equal and ck_equal
    report(10, ok, f"rerun identical: run.json metric fields {runs_equal}, "
                   f"checkpoint bytes {ck_equal}")
