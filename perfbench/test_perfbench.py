"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import bench  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
from envgnn import autodiff, model, trainer  # noqa: E402
from envgnn.config import TrainConfig  # noqa: E402
from envgnn.rng import Rng  # noqa: E402
from envgnn.shiftgen import PlantedConfig, gen_planted_dataset  # noqa: E402
from envgnn.sparse import SparseAdj  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, index, pct", [
    (21, 10, 1100 / 21),
    (40, 29, 75.0),
    (100, 89, 90.0),
    (1000, 989, 99.0),
])
def test_tail_keeps_ten_samples_beyond(n, index, pct):
    xs = list(np.random.default_rng(n).permutation(n) * 1.5)
    value, percentile, count = bench.tail(xs)
    assert value == sorted(xs)[index]
    assert sum(x > value for x in xs) == 10
    assert percentile == pytest.approx(pct)
    assert count == n


@pytest.mark.parametrize("n", [1, 11, 20])
def test_tail_falls_back_to_max_when_it_would_lie_below_the_median(n):
    xs = [float(i) for i in range(n)]
    assert bench.tail(xs) == (float(n - 1), 100.0, n)


def test_repeat_runs_the_minimum_then_stops_before_the_deadline():
    calls = []
    assert bench.repeat(lambda: calls.append(1), 0.0, 3) == 3
    assert len(calls) == 3
    assert bench.repeat(lambda: None, 0.05, 1) > 1


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.inner", 1.5, 3.5, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("other", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.0, 2.0, 4.0, 1.0])
    agg = tracing.aggregate(spans, ["x", "y"])
    assert agg[("x", "root")] == pytest.approx([1, 10.0, 3.0])
    assert agg[("y", "other")] == pytest.approx([1, 1.0, 1.0])


def test_tracer_records_parents_of_nested_calls():
    t = tracing.Tracer()
    t.begin_run("r")
    t.call("outer", lambda: t.call("inner", lambda: 7, (), {}), (), {})
    outer, inner = t.spans  # in order of entry
    assert (outer[0], outer[3], inner[0], inner[3]) == ("outer", -1, "inner", 0)
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_tracer_closes_the_span_of_a_call_that_raises():
    t = tracing.Tracer()
    t.begin_run("r")
    with pytest.raises(ZeroDivisionError):
        t.call("bad", lambda: 1 / 0, (), {})
    assert t.spans[0][0] == "bad" and t._stack == []


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


def test_instrument_wraps_then_restores_every_attribute():
    before = tracing.snapshot()
    original = autodiff.matmul
    with tracing.instrument(tracing.Tracer()):
        assert autodiff.matmul is not original
        # rebound in the module that imported it by name, too
        assert trainer.forward is model.forward
        assert trainer.forward is not before[("envgnn.model", "forward")]
        assert vars(SparseAdj)["from_coo"] is not before[("envgnn.sparse", "SparseAdj", "from_coo")]
        assert vars(Rng)["uniform"] is not before[("envgnn.rng", "Rng", "uniform")]
    assert tracing.snapshot() == before
    assert autodiff.matmul is original


def test_instrument_restores_after_an_exception():
    before = tracing.snapshot()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            raise RuntimeError("boom")
    assert tracing.snapshot() == before


@pytest.fixture(scope="module")
def tiny():
    return gen_planted_dataset(PlantedConfig(n_per_domain=40, seed=3))


@pytest.mark.parametrize("backbone", ["gcn", "gat"])
def test_traced_training_matches_untraced_and_counts_steps(tiny, backbone):
    cfg = TrainConfig(backbone=backbone, hidden=8, epochs=3, exact_kl=True,
                      deterministic_eval=True, seed=1)
    plain = trainer.train(tiny, cfg)
    t = tracing.Tracer()
    t.begin_run("canet")
    with tracing.instrument(t):
        traced = trainer.train(tiny, cfg)
    assert bench.run_fields(traced.to_dict()) == bench.run_fields(plain.to_dict())

    steps = t.steps[0]
    assert len(steps) == cfg.epochs and all(s == steps[0] for s in steps)
    stored = 2 * sum(len(g.edges) for g in tiny.id_graphs)
    n = sum(g.n for g in tiny.id_graphs)
    assert steps[0]["edge_touches"] == cfg.num_layers * cfg.num_branches * stored
    # gumbel noise (N x K) and a dropout mask (N x H) per layer
    assert steps[0]["draws"] == cfg.num_layers * n * (cfg.num_branches + cfg.hidden)
    assert steps[0]["nodes"] > 0

    names = {s[0] for s in t.spans}
    assert {"trainer.train", "model.forward", "model.forward_eval", "autodiff.backward",
            "autodiff.op.matmul", "autodiff.op.matmul.bwd", "optim.adam_step",
            "sparse.from_coo"} <= names
    for name, t0, t1, parent, _run in t.spans:
        if name.endswith(".bwd"):
            assert t.spans[parent][0] == "autodiff.backward"
        if parent >= 0:
            assert t.spans[parent][1] <= t0 <= t1 <= t.spans[parent][2]
    agg = tracing.aggregate(t.spans, t.arms)
    values = bench.layer_values(agg, {"canet"}, 1)
    assert values["autodiff.op.matmul.calls"] > 0 and values["optim.adam_ms"] > 0


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_current_and_within_limits():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as fh:
        text = fh.read()
    assert text == spec.render(), "regenerate with: python3 perfbench/spec.py --write"
    b = json.loads(text)
    assert list(b) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert 2 <= len(b["workloads"]) <= 8 and 1 <= len(b["end_to_end"]) <= 16
    assert 1 <= len(b["per_layer"]) <= 128 and 1 <= b["run_seconds"] <= 60
    names = [m["name"] for m in b["workloads"] + b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in b["workloads"])
    assert all(UNIT.match(m["unit"]) for m in b["end_to_end"] + b["per_layer"])
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    assert all(0 < v <= 0.25 for v in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
