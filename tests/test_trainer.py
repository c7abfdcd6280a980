"""Objective terms, the training loop, evaluation reports, and sweeps."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from envgnn import autodiff as ad
from envgnn import trainer as trainer_mod
from envgnn.autodiff import Tensor, constant
from envgnn.config import TrainConfig
from envgnn.graphdata import Graph
from envgnn.model import LayerPosterior, _posterior, forward, init_params, prepare_graph
from envgnn.rng import Rng, STREAM_DROPOUT, STREAM_GUMBEL, STREAM_INIT
from envgnn.shiftgen import PlantedConfig, gen_planted_dataset
from envgnn.trainer import (
    TrainAbort,
    disjoint_union,
    eval_report,
    kl_exact_rows,
    regularizer,
    sweep,
    total_loss,
    train,
)


def posterior_from_probs(pi_rows, e_rows):
    pi = np.asarray(pi_rows, dtype=np.float64)
    e = np.asarray(e_rows, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
    # stand-in log that is finite where pi is 0 (matches the stable path's
    # large-negative values; the e weights there are 0 in these fixtures)
    log_pi = np.where(np.isfinite(log_pi), log_pi, -1e6)
    return [LayerPosterior(constant(pi), constant(log_pi), constant(e))]


def small_dataset(n=30, seed=0, **kw):
    cfg = PlantedConfig(n_per_domain=n, num_id_envs=1, num_ood_envs=1,
                        p_intra=0.15, p_inter=0.03, seed=seed,
                        id_spurious_scales=(1.0,), **kw)
    return gen_planted_dataset(cfg)


# ---------------------------------------------------------------------------
# regularizer terms
# ---------------------------------------------------------------------------


def test_mc_term_uniform_fixed_point_is_zero():
    k = 4
    post = posterior_from_probs(np.full((5, k), 1 / k), np.full((5, k), 1 / k))
    val = float(regularizer(post, np.arange(5), k, exact=False).value)
    assert abs(val) <= 1e-9


def test_mc_term_degenerate_mass_is_log_k():
    pi = np.zeros((3, 4))
    pi[:, 0] = 1.0
    post = posterior_from_probs(pi, pi)  # e = pi, 0*log0 handled by e=0
    val = float(regularizer(post, np.arange(3), 4, exact=False).value)
    assert abs(val - np.log(4.0)) <= 1e-9


def test_mc_term_mean_tracks_exact_kl():
    # fixed pi, many Gumbel redraws perturbing log pi: the sampled e stay in
    # the simplex, so the MC mean settles near a deterministic value; we pin
    # the standard error, not the limit itself
    rng = Rng(70).substream(STREAM_GUMBEL)
    rows = 100
    pi_row = np.array([0.6, 0.3, 0.1])
    pi = constant(np.tile(pi_row, (rows, 1)))
    log_pi = constant(np.log(pi.value))
    from envgnn.model import gumbel_sample

    vals = []
    for _ in range(2000):
        e = gumbel_sample(log_pi, 1.0, rng.gumbel((rows, 3)))
        post = [LayerPosterior(pi, log_pi, e)]
        vals.append(float(regularizer(post, np.arange(rows), 3, exact=False).value))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert se < max(0.01 * abs(vals.mean()), 1e-3)


def test_mc_term_under_the_model_gate_is_nonnegative_on_average():
    # the gate as the model draws it in training, at a fixed non-uniform
    # estimator: a relaxed draw from pi keeps the MC term's mean near the
    # KL it estimates, so >= 0; a gate that does not follow pi puts weight
    # on branches of small pi and drives the mean below 0
    cfg = TrainConfig()
    params = init_params(cfg, 4, 3, Rng(73).substream(STREAM_INIT))
    z = constant(Rng(74).normal((100, cfg.hidden)))
    rows = np.arange(100)
    gumbel_rng = Rng(75).substream(STREAM_GUMBEL)
    vals = np.array([float(regularizer([_posterior(z, params, 1, gumbel_rng, training=True)],
                                       rows, cfg.num_branches, exact=False).value)
                     for _ in range(2000)])
    exact = kl_exact_rows(_posterior(z, params, 1, gumbel_rng, training=True).pi.value)
    assert exact.mean() >= 0.05  # the fixture is far from uniform
    assert vals.mean() >= 0.0


def test_kl_exact_uniform_is_zero():
    k = 5
    post = posterior_from_probs(np.full((4, k), 1 / k), np.full((4, k), 1 / k))
    assert abs(float(regularizer(post, np.arange(4), k, exact=True).value)) <= 1e-12


def test_kl_exact_one_hot_is_log_k():
    assert abs(kl_exact_rows(np.array([1.0, 0.0, 0.0, 0.0]))[()] - np.log(4.0)) <= 1e-12


def test_kl_exact_matches_brute_force():
    rng = Rng(71)
    for _ in range(50):
        pi = ad.row_softmax(constant(rng.normal((6, 4)))).value
        post = posterior_from_probs(pi, pi * 0 + pi)  # e unused by the exact form
        post[0].log_pi = constant(np.log(pi))
        val = float(regularizer(post, np.arange(6), 4, exact=True).value)
        brute = np.mean([sum(p * np.log(p * 4) for p in row) for row in pi])
        assert abs(val - brute) <= 1e-12


def test_kl_exact_nonnegative_on_random_distributions():
    rng = Rng(72)
    pi = ad.row_softmax(constant(rng.normal((10000, 5)))).value
    assert kl_exact_rows(pi).min() >= -1e-9


def test_kl_exact_rows_zero_convention():
    assert kl_exact_rows(np.array([0.5, 0.5, 0.0, 0.0]))[()] == pytest.approx(
        np.log(4.0) - np.log(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------


def forward_small(cfg, seed=0):
    ds = small_dataset()
    g = ds.id_graphs[0]
    gt = prepare_graph(g, cfg)
    params = init_params(cfg, g.num_features, g.num_classes,
                         Rng(seed).substream(STREAM_INIT))
    root = Rng(seed)
    out = forward(gt, params, root.substream(STREAM_GUMBEL),
                  root.substream(STREAM_DROPOUT), training=True)
    return out, g


def test_total_loss_lambda_zero_is_pure_cross_entropy():
    cfg = TrainConfig(hidden=8, reg_weight=0.0, dropout=0.0)
    out, g = forward_small(cfg)
    loss, sup, reg = total_loss(out, g.labels, np.arange(g.n), cfg)
    ce = ad.cross_entropy(out.logits, g.labels, np.arange(g.n))
    assert float(loss.value) == float(ce.value)
    assert reg == 0.0


def test_total_loss_composes_terms():
    cfg = TrainConfig(hidden=8, reg_weight=0.7, dropout=0.0)
    out, g = forward_small(cfg)
    loss, sup, reg = total_loss(out, g.labels, np.arange(g.n), cfg)
    ce = float(ad.cross_entropy(out.logits, g.labels, np.arange(g.n)).value)
    mc = float(regularizer(out.posterior, np.arange(g.n), cfg.num_branches, exact=False).value)
    assert abs(float(loss.value) - (ce + 0.7 * mc)) <= 1e-12
    assert sup == pytest.approx(ce, abs=1e-15)
    assert reg == pytest.approx(mc, abs=1e-15)


def test_total_loss_erm_has_no_regularizer():
    cfg = TrainConfig(hidden=8, method="erm", dropout=0.0)
    out, g = forward_small(cfg)
    loss, sup, reg = total_loss(out, g.labels, np.arange(g.n), cfg)
    assert reg == 0.0
    assert float(loss.value) == sup


def test_total_loss_exact_kl_mode():
    cfg = TrainConfig(hidden=8, reg_weight=1.0, exact_kl=True, dropout=0.0)
    out, g = forward_small(cfg)
    loss, sup, reg = total_loss(out, g.labels, np.arange(g.n), cfg)
    direct = float(regularizer(out.posterior, np.arange(g.n), cfg.num_branches, exact=True).value)
    assert reg == pytest.approx(direct, abs=1e-15)


# ---------------------------------------------------------------------------
# disjoint union
# ---------------------------------------------------------------------------


def test_disjoint_union_offsets_edges():
    g1 = Graph(3, np.zeros((3, 2)), [0, 1, 0], [[0, 1]], 2)
    g2 = Graph(2, np.ones((2, 2)), [1, 0], [[0, 1]], 2)
    u = disjoint_union([g1, g2])
    assert u.n == 5
    assert np.array_equal(u.edges, [[0, 1], [3, 4]])
    assert np.array_equal(u.labels, [0, 1, 0, 1, 0])


def test_disjoint_union_single_graph_passthrough():
    g = Graph(2, np.zeros((2, 1)), [0, 0], [], 1)
    assert disjoint_union([g]) is g


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_overfit_smoke_small_planted():
    ds = small_dataset()
    cfg = TrainConfig(hidden=16, reg_weight=0.0, dropout=0.0, epochs=200,
                      weight_decay=0.0, seed=0)
    res = train(ds, cfg)
    assert res.history[-1]["train_metric"] == 1.0


def test_training_deterministic():
    ds = small_dataset()
    cfg = TrainConfig(hidden=8, epochs=10, seed=4)
    a = train(ds, cfg)
    b = train(ds, cfg)
    for ra, rb in zip(a.history, b.history):
        assert ra["loss"] == rb["loss"]
        assert ra["valid_metric"] == rb["valid_metric"]
    assert a.selected_epoch == b.selected_epoch
    for k, t in a.params.tensors.items():
        assert np.array_equal(t.value, b.params[k].value)


def test_default_canet_run_keeps_mc_regularizer_above_minus_log_k():
    # default flags train on the MC term; when the gate does not follow pi,
    # minimizing the term drives pi to 0 on the branches the gate picks and
    # the term falls without bound
    ds = gen_planted_dataset(PlantedConfig(n_per_domain=200, seed=3))
    for seed in (0, 1):
        cfg = TrainConfig(epochs=40, hidden=16, seed=seed)
        lowest = min(rec["regularizer"] for rec in train(ds, cfg).history)
        assert lowest >= -np.log(cfg.num_branches), (seed, lowest)


def test_erm_history_has_zero_regularizer():
    ds = small_dataset()
    res = train(ds, TrainConfig(hidden=8, epochs=5, method="erm", seed=1))
    assert all(rec["regularizer"] == 0.0 for rec in res.history)


def test_best_checkpoint_selection():
    ds = small_dataset()
    res = train(ds, TrainConfig(hidden=8, epochs=30, seed=2))
    best = max(rec["valid_metric"] for rec in res.history)
    assert res.best_valid == best
    assert res.history[res.selected_epoch - 1]["valid_metric"] == best


def test_numeric_blowup_raises_train_abort(monkeypatch):
    from envgnn.autodiff import NumericError

    calls = {"n": 0}
    real_forward = trainer_mod.forward

    def exploding_forward(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise NumericError("non-finite values produced by 'matmul'")
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, "forward", exploding_forward)
    ds = small_dataset()
    with pytest.raises(TrainAbort) as exc:
        train(ds, TrainConfig(hidden=8, epochs=10, seed=0))
    assert exc.value.epoch >= 1
    assert "non-finite" in str(exc.value)


def op_nodes(root):
    """Every node under ``root`` that a primitive made, each once."""
    seen, stack, out = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if node._backward is not None:
            out.append(node)
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return out


@pytest.mark.parametrize("backbone", ["gcn", "gat"])
@pytest.mark.parametrize("method", ["canet", "erm"])
def test_step_tape_is_freed_before_the_eval_forward(monkeypatch, backbone, method):
    # with cyclic gc off, a node of the step's tape is gone by the eval
    # forward only if nothing refers to it any more
    tape, checked = [], []
    real_backward, real_eval = ad.backward, trainer_mod._eval_forward

    def recording_backward(loss, params):
        tape[:] = [weakref.ref(t) for t in op_nodes(loss)]
        return real_backward(loss, params)

    def checking_eval(gt, params):
        checked.append(sum(ref() is not None for ref in tape))
        return real_eval(gt, params)

    monkeypatch.setattr(ad, "backward", recording_backward)
    monkeypatch.setattr(trainer_mod, "_eval_forward", checking_eval)
    cfg = TrainConfig(backbone=backbone, method=method, hidden=8, epochs=3, seed=0)
    gc.disable()
    try:
        train(small_dataset(), cfg)
    finally:
        gc.enable()
    assert tape and len(checked) >= cfg.epochs
    assert checked == [0] * len(checked)


def outputs_of(out):
    """The nodes a forward hands back: its logits and each layer's posterior."""
    return [out.logits] + [t for lp in out.posterior or [] for t in (lp.pi, lp.log_pi, lp.e)]


@pytest.mark.parametrize("backbone", ["gcn", "gat"])
@pytest.mark.parametrize("method", ["canet", "erm"])
def test_eval_forward_keeps_no_op_node_past_its_use(monkeypatch, backbone, method):
    # with cyclic gc off, a node is gone only once nothing refers to it: when
    # the eval forward returns, its outputs are the only op nodes alive, and
    # once _eval_forward has returned, none is
    made, extra = [], []
    real_init, real_forward = Tensor.__init__, trainer_mod.forward

    def live_ops():
        return {id(t): t for t in (ref() for ref in made)
                if t is not None and t.op not in ("const", "param")}

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    def checking_forward(*args, **kwargs):
        out = real_forward(*args, **kwargs)
        extra.append(set(live_ops()) - {id(t) for t in outputs_of(out)})
        return out

    cfg = TrainConfig(backbone=backbone, method=method, hidden=8, seed=0)
    ds = small_dataset()
    gt = prepare_graph(ds.id_graphs[0], cfg)
    params = init_params(cfg, ds.num_features, ds.num_classes, Rng(0).substream(STREAM_INIT))
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    monkeypatch.setattr(trainer_mod, "forward", checking_forward)
    gc.disable()
    try:
        logits = trainer_mod._eval_forward(gt, params)
        assert made and extra == [set()]
        assert live_ops() == {}
    finally:
        gc.enable()
    assert logits.shape == (gt.n, ds.num_classes)


@pytest.mark.parametrize("backbone", ["gcn", "gat"])
@pytest.mark.parametrize("method", ["canet", "erm"])
def test_eval_forward_holds_only_its_outputs(backbone, method):
    # memory guard: while the union's eval output lives, all that the forward
    # allocated and still holds is its logits and posterior arrays, plus the
    # small objects around them; a tape would hold several (N, K*H) blocks
    cfg = TrainConfig(backbone=backbone, method=method)
    ds = small_dataset(n=200)
    union = disjoint_union(ds.id_graphs)
    gt = prepare_graph(union, cfg)
    params = init_params(cfg, union.num_features, ds.num_classes, Rng(0).substream(STREAM_INIT))
    forward(gt, params, Rng(1), Rng(2), training=False)  # fills the operand's cached indices
    tracemalloc.start()
    try:
        out = forward(gt, params, Rng(1), Rng(2), training=False)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    arrays = sum(t.value.nbytes for t in outputs_of(out))
    assert held <= arrays + 8 * 1024, (held, arrays)


# ---------------------------------------------------------------------------
# evaluation report
# ---------------------------------------------------------------------------


def test_eval_report_entry_bookkeeping():
    cfg = PlantedConfig(n_per_domain=25, num_ood_envs=4, seed=1)
    ds = gen_planted_dataset(cfg)
    tc = TrainConfig(hidden=8, epochs=3, seed=0)
    res = train(ds, tc)
    assert len(res.final["entries"]) == 1 + 4
    splits = [e["split"] for e in res.final["entries"]]
    assert splits == ["test_id", "ood_1", "ood_2", "ood_3", "ood_4"]
    assert res.final["metric"] == "accuracy"


def test_eval_report_spurious_only_model_collapses_ood():
    # stable signal absent, uniform strong spurious cue: the trained model is
    # accurate ID but near or below chance on permuted OOD environments
    cfg = PlantedConfig(n_per_domain=250, stable_strength=0.0,
                        spurious_strength=3.0, spurious_noise=0.5,
                        id_spurious_scales=(1.0, 1.0, 1.0), seed=2)
    ds = gen_planted_dataset(cfg)
    res = train(ds, TrainConfig(hidden=16, epochs=60, method="erm", seed=0))
    report = res.final
    id_acc = report["entries"][0]["value"]
    assert id_acc > 0.8
    assert report["ood_mean"] < 1 / 3 + 0.1


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_singleton_grid():
    ds = small_dataset()
    base = TrainConfig(hidden=8, epochs=3)
    best, results = sweep(ds, {"lr": [0.01]}, [0], base)
    assert best.lr == 0.01
    assert len(results) == 1


def test_sweep_result_count():
    ds = small_dataset()
    base = TrainConfig(hidden=8, epochs=2)
    best, results = sweep(ds, {"lr": [0.01, 0.005], "hidden": [4, 8]}, [0, 1], base)
    assert len(results) == 2 * 2 * 2
    # each combination's last record carries its mean over seeds; the best
    # combination has the highest
    means = {}
    for first, last in zip(results[::2], results[1::2]):
        assert "mean_valid" not in first
        assert last["mean_valid"] == np.mean([first["best_valid"], last["best_valid"]])
        means[(last["overrides"]["hidden"], last["overrides"]["lr"])] = last["mean_valid"]
    assert means[(best.hidden, best.lr)] == max(means.values())


def test_sweep_selects_dominant_config():
    # rigged: every combination but one has a negligible learning rate (a zero
    # rate is refused), so it barely leaves its initialization
    ds = small_dataset()
    base = TrainConfig(hidden=8, reg_weight=0.0, dropout=0.0, weight_decay=0.0, epochs=40)
    best, results = sweep(ds, {"lr": [1e-9, 0.01]}, [0], base)
    assert best.lr == 0.01
    assert results[0]["best_valid"] < results[1]["best_valid"]


def test_sweep_rejects_seed_as_grid_key():
    with pytest.raises(ValueError, match="'seed' is not a grid key"):
        sweep(small_dataset(), {"seed": [1, 2]}, [0])


def test_sweep_rejects_empty_grid():
    ds = small_dataset()
    with pytest.raises(ValueError):
        sweep(ds, {}, [0])
    with pytest.raises(ValueError):
        sweep(ds, {"lr": []}, [0])
