"""Command-line interface tests: exit codes, artifacts, round trips."""

import ast
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from envgnn.cli import (
    EXIT_COMPAT,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    load_checkpoint,
    main,
    save_checkpoint,
)
import envgnn
from envgnn.config import TrainConfig
from envgnn.graphdata import load_dataset, save_graph

from branch_csv import import_branch_weights


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("data") / "planted")
    rc = main(["gen-data", "--kind", "planted", "--out", d, "--seed", "1",
               "--n-per-domain", "60", "--p-intra", "0.1", "--p-inter", "0.02"])
    assert rc == EXIT_OK
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    d = str(tmp_path_factory.mktemp("runs") / "r0")
    rc = main(["train", "--data", data_dir, "--out", d, "--epochs", "8",
               "--hidden", "8", "--seed", "0"])
    assert rc == EXIT_OK
    return d


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def test_gen_data_planted_loadable(data_dir):
    ds = load_dataset(data_dir)
    assert len(ds.id_graphs) == 3 and len(ds.ood_graphs) == 3
    assert ds.metadata["generator"]["kind"] == "planted"
    assert "stable_bayes_rate_estimate" in ds.metadata["generator"]
    assert os.path.exists(os.path.join(data_dir, "manifest.json"))


def test_gen_data_same_seed_same_hash(tmp_path, data_dir):
    d2 = str(tmp_path / "again")
    rc = main(["gen-data", "--kind", "planted", "--out", d2, "--seed", "1",
               "--n-per-domain", "60", "--p-intra", "0.1", "--p-inter", "0.02"])
    assert rc == EXIT_OK
    h1 = json.load(open(os.path.join(data_dir, "dataset.json")))["content_hash"]
    h2 = json.load(open(os.path.join(d2, "dataset.json")))["content_hash"]
    assert h1 == h2


def test_gen_data_citation_requires_base(tmp_path):
    rc = main(["gen-data", "--kind", "citation-spurious",
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_USAGE


def write_base_graph(path):
    """A 40-node, 3-feature, 2-class graph for citation-spurious generation."""
    from envgnn.graphdata import Graph
    from envgnn.rng import Rng

    rng = Rng(0)
    n = 40
    u = rng.uniform((n, n))
    rows, cols = np.nonzero(np.triu(u < 0.1, k=1))
    save_graph(path, Graph(n, rng.normal((n, 3)), rng.integers(0, 2, n),
                           np.stack([rows, cols], axis=1), 2))
    return path


def test_gen_data_citation_with_base(tmp_path):
    base = write_base_graph(str(tmp_path / "base"))
    out = str(tmp_path / "cite")
    rc = main(["gen-data", "--kind", "citation-spurious", "--base", base,
               "--out", out, "--seed", "3"])
    assert rc == EXIT_OK
    ds = load_dataset(out)
    assert ds.num_features == 6


@pytest.mark.parametrize("flag, value, field", [
    ("--stable-noise", "nan", "stable_noise"),
    ("--p-intra", "inf", "p_intra"),
    ("--spurious-strength", "-inf", "spurious_strength"),
])
def test_gen_data_non_finite_parameter_is_usage_error(tmp_path, capsys, flag, value, field):
    rc = main(["gen-data", "--kind", "planted", "--out", str(tmp_path / "x"),
               "--n-per-domain", "20", f"{flag}={value}"])
    assert rc == EXIT_USAGE
    assert f"{field} must be finite" in capsys.readouterr().err


def test_gen_data_planted_spurious_dim_zero_has_no_spurious_features(tmp_path):
    out = str(tmp_path / "x")
    rc = main(["gen-data", "--kind", "planted", "--out", out, "--n-per-domain", "20",
               "--stable-dim", "3", "--spurious-dim", "0"])
    assert rc == EXIT_OK
    ds = load_dataset(out)
    assert ds.num_features == 3
    assert ds.metadata["generator"]["config"]["spurious_dim"] == 0


def test_gen_data_flags_fill_the_generator_config(tmp_path):
    # every generator flag lands in its config field; absent flags keep the
    # config's defaults
    from envgnn.shiftgen import PlantedConfig, gen_planted_dataset

    out = str(tmp_path / "x")
    assert main(["gen-data", "--kind", "planted", "--out", out, "--seed", "4",
                 "--n-per-domain", "20", "--classes", "2", "--label-noise", "0.1"]) == EXIT_OK
    expect = gen_planted_dataset(PlantedConfig(n_per_domain=20, num_classes=2,
                                               label_noise=0.1, seed=4))
    got = load_dataset(out)
    assert got.metadata["generator"] == json.loads(json.dumps(expect.metadata["generator"]))
    for a, b in zip(got.id_graphs + got.ood_graphs, expect.id_graphs + expect.ood_graphs):
        assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("kind, extra, named", [
    ("planted", ["--gcn-layers", "3"], "--gcn-layers"),
    ("planted", ["--base", "somewhere"], "--base"),
    ("citation-spurious", ["--base", "somewhere", "--n-per-domain", "20", "--p-intra", "0.1"],
     "--n-per-domain, --p-intra"),
])
def test_gen_data_flag_of_the_other_kind_is_usage_error(tmp_path, capsys, kind, extra, named):
    out = str(tmp_path / "x")
    assert main(["gen-data", "--kind", kind, "--out", out, *extra]) == EXIT_USAGE
    assert f"--kind {kind} does not use {named}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_gen_data_too_small_to_split_is_usage_error(tmp_path, capsys):
    # 3 ID nodes split 50/25/25 leave no validation node: no later command
    # could load the dataset, so none is written
    out = str(tmp_path / "tiny")
    rc = main(["gen-data", "--kind", "planted", "--n-per-domain", "1", "--out", out])
    assert rc == EXIT_USAGE
    assert "a split of 3 ID nodes by ratios (0.5, 0.25, 0.25) leaves 'valid' empty" in \
        capsys.readouterr().err
    assert not os.path.exists(out)


def test_gen_data_refuses_overwrite(tmp_path):
    d = str(tmp_path / "dup")
    args = ["gen-data", "--kind", "planted", "--out", d, "--seed", "0",
            "--n-per-domain", "30"]
    assert main(args) == EXIT_OK
    assert main(args) == EXIT_IO
    assert main(args + ["--force"]) == EXIT_OK


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def test_train_artifacts(run_dir):
    for name in ("run.json", "checkpoint.json", "manifest.json"):
        assert os.path.exists(os.path.join(run_dir, name))
    run = json.load(open(os.path.join(run_dir, "run.json")))
    assert len(run["history"]) == 8
    assert run["prng"] == "numpy-pcg64"
    assert run["config"]["hidden"] == 8


def test_eval_reproduces_training_report(tmp_path, data_dir, run_dir):
    out = str(tmp_path / "eval")
    rc = main(["eval", "--data", data_dir,
               "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
               "--out", out])
    assert rc == EXIT_OK
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    run = json.load(open(os.path.join(run_dir, "run.json")))
    assert metrics["entries"] == run["final"]["entries"]
    assert len(metrics["entries"]) == 1 + 3


def test_eval_peak_memory_is_a_few_blocks(tmp_path):
    # memory guard: the eval forward builds no tape, so the traced peak of a
    # whole `envgnn eval` of a GCN canet checkpoint stays within four (N, K*H)
    # blocks and the (N, C) logits, N the node count of the largest graph it
    # scores, the ID union; a tape would keep about five blocks alive
    data, run = str(tmp_path / "data"), str(tmp_path / "run")
    assert main(["gen-data", "--kind", "planted", "--out", data, "--seed", "0",
                 "--n-per-domain", "200"]) == EXIT_OK
    assert main(["train", "--data", data, "--out", run, "--epochs", "2"]) == EXIT_OK
    ds, cfg = load_dataset(data), TrainConfig()
    n = sum(g.n for g in ds.id_graphs)
    assert n >= max(g.n for g in ds.ood_graphs)
    bound = 8 * n * (4 * cfg.num_branches * cfg.hidden + ds.num_classes)
    del ds
    tracemalloc.start()
    try:
        rc = main(["eval", "--data", data, "--checkpoint", os.path.join(run, "checkpoint.json"),
                   "--out", str(tmp_path / "eval")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    assert peak < bound, (peak, bound)


def test_eval_shape_mismatch_exits_compat(tmp_path, run_dir):
    other = str(tmp_path / "otherdims")
    rc = main(["gen-data", "--kind", "planted", "--out", other, "--seed", "2",
               "--n-per-domain", "30", "--stable-dim", "6"])
    assert rc == EXIT_OK
    rc = main(["eval", "--data", other,
               "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
               "--out", str(tmp_path / "evalbad")])
    assert rc == EXIT_COMPAT


def test_train_rerun_is_byte_identical(tmp_path, data_dir):
    outs = []
    for name in ("a", "b"):
        d = str(tmp_path / name)
        rc = main(["train", "--data", data_dir, "--out", d, "--epochs", "5",
                   "--hidden", "8", "--seed", "9"])
        assert rc == EXIT_OK
        outs.append(d)
    def strip_timing(payload):
        for row in payload.get("history", ()):
            row.pop("seconds", None)
        return payload

    for fname in ("run.json", "checkpoint.json"):
        a = strip_timing(json.load(open(os.path.join(outs[0], fname))))
        b = strip_timing(json.load(open(os.path.join(outs[1], fname))))
        assert a == b


def test_train_numeric_abort_exit_code(tmp_path, data_dir, monkeypatch):
    import envgnn.cli as cli_mod
    from envgnn.trainer import TrainAbort

    def aborting_train(ds, cfg):
        raise TrainAbort(2, "non-finite values produced by 'matmul'")

    monkeypatch.setattr(cli_mod, "train", aborting_train)
    rc = main(["train", "--data", data_dir, "--out", str(tmp_path / "x"),
               "--epochs", "3"])
    assert rc == 4


def test_train_config_file_with_flag_override(tmp_path, data_dir):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"hidden": 16, "epochs": 3, "dropout": 0.0}, fh)
    out = str(tmp_path / "run")
    rc = main(["train", "--data", data_dir, "--config", cfg_path,
               "--out", out, "--epochs", "4"])
    assert rc == EXIT_OK
    run = json.load(open(os.path.join(out, "run.json")))
    assert run["config"]["hidden"] == 16   # from file
    assert run["config"]["epochs"] == 4    # flag wins
    assert "config_file_hash" in run


def test_train_config_file_not_overridden_by_flag_defaults(tmp_path, data_dir):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"method": "erm", "backbone": "gat", "seed": 7, "epochs": 2,
                   "hidden": 8}, fh)
    out = str(tmp_path / "run")
    rc = main(["train", "--data", data_dir, "--config", cfg_path, "--out", out])
    assert rc == EXIT_OK
    run = json.load(open(os.path.join(out, "run.json")))
    assert (run["config"]["method"], run["config"]["backbone"], run["seed"]) == ("erm", "gat", 7)


def test_train_falsy_flags_override_config_file(tmp_path, data_dir):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"seed": 7, "dropout": 0.3, "epochs": 2, "hidden": 8}, fh)
    out = str(tmp_path / "run")
    rc = main(["train", "--data", data_dir, "--config", cfg_path, "--out", out,
               "--seed", "0", "--dropout", "0"])
    assert rc == EXIT_OK
    run = json.load(open(os.path.join(out, "run.json")))
    assert (run["seed"], run["config"]["seed"], run["config"]["dropout"]) == (0, 0, 0.0)


@pytest.mark.parametrize("text", ["[1, 2]", "3", "{oops"])
def test_train_config_file_not_an_object_is_usage_error(tmp_path, data_dir, capsys, text):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    rc = main(["train", "--data", data_dir, "--config", cfg_path,
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_USAGE
    assert f"--config {cfg_path}" in capsys.readouterr().err


@pytest.mark.parametrize("config, field", [
    ({"hidden": "x"}, "hidden"),
    ({"hidden": 2.5}, "hidden"),
    ({"epochs": True}, "epochs"),
    ({"lr": "0.1"}, "lr"),
    ({"dropout": False}, "dropout"),
    ({"exact_kl": 1}, "exact_kl"),
    ({"backbone": ["gcn"]}, "backbone"),
    ({"seed": None}, "seed"),
    ({"tau": math.nan}, "tau"),
    ({"lr_env": math.inf}, "lr_env"),
    ({"reg_weight": -math.inf}, "reg_weight"),
    ({"weight_decay": 10**400}, "weight_decay"),
    ({"epochs": 0}, "epochs"),
    ({"seed": -1}, "seed"),
])
def test_train_config_field_of_wrong_type_is_usage_error(tmp_path, data_dir, capsys,
                                                         config, field):
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    rc = main(["train", "--data", data_dir, "--config", cfg_path,
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{field} must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value, field", [
    ("--tau", "nan", "tau"), ("--lr", "inf", "lr"), ("--epochs", "0", "epochs"),
])
def test_train_non_finite_or_zero_epoch_flag_is_usage_error(tmp_path, data_dir, capsys,
                                                            flag, value, field):
    rc = main(["train", "--data", data_dir, "--out", str(tmp_path / "run"), flag, value])
    assert rc == EXIT_USAGE
    assert f"{field} must be" in capsys.readouterr().err


def test_train_subnormal_tau_is_usage_error(tmp_path, data_dir, capsys):
    # 1 / 1e-320 overflows: the gate would abort the run with a non-finite 'scale'
    out = str(tmp_path / "run")
    assert main(["train", "--data", data_dir, "--out", out, "--tau", "1e-320"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "tau must have a finite reciprocal" in err and "Traceback" not in err
    assert not os.path.exists(out)


# a learning rate, weight decay or patience out of range, and the message naming it
BAD_RATES = [("lr", -0.01, "lr must be positive"), ("lr", 0, "lr must be positive"),
             ("lr_env", -0.01, "lr_env must be nonnegative"),
             ("weight_decay", -1, "weight_decay must be nonnegative"),
             ("patience", -1, "patience must be >= 0")]


@pytest.mark.parametrize("source, field, value, named", [
    (source, *bad) for source in ("flag", "config", "grid") for bad in BAD_RATES
    if source != "flag" or bad[0] in ("lr", "weight_decay")  # the fields with a flag
])
def test_rate_or_patience_out_of_range_is_usage_error(tmp_path, data_dir, capsys, monkeypatch,
                                                      source, field, value, named):
    import envgnn.cli as cli_mod
    import envgnn.trainer as trainer_mod

    def no_training(*args, **kwargs):
        raise AssertionError("a run started before its config was validated")

    for module in (cli_mod, trainer_mod):  # train runs from cmd_train and from sweep
        monkeypatch.setattr(module, "train", no_training)
    path, out = str(tmp_path / "in.json"), str(tmp_path / "out")
    if source == "grid":
        with open(path, "w") as fh:
            json.dump({field: [1, value]}, fh)  # the valid value comes first
        argv = ["sweep", "--data", data_dir, "--grid", path, "--out", out]
    elif source == "config":
        with open(path, "w") as fh:
            json.dump({field: value}, fh)
        argv = ["train", "--data", data_dir, "--config", path, "--out", out]
    else:
        argv = ["train", "--data", data_dir, "--out", out,
                "--" + field.replace("_", "-"), str(value)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_train_without_ood_graphs_writes_null_ood_mean(tmp_path, data_dir):
    data = str(tmp_path / "data")
    shutil.copytree(data_dir, data)
    manifest = json.load(open(os.path.join(data, "dataset.json")))
    manifest["ood_graphs"] = []
    with open(os.path.join(data, "dataset.json"), "w") as fh:
        json.dump(manifest, fh)
    out = str(tmp_path / "run")
    assert main(["train", "--data", data, "--out", out, "--epochs", "1", "--hidden", "4"]) == EXIT_OK
    with open(os.path.join(out, "run.json")) as fh:
        run = json.loads(fh.read(), parse_constant=lambda token: pytest.fail(token))
    assert run["final"]["ood_mean"] is None


def test_every_json_write_in_the_package_is_strict():
    # json.dump/dumps write NaN and Infinity, which are not JSON, unless told not to
    src = os.path.dirname(envgnn.__file__)
    calls, loose = 0, []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                    and node.func.attr in ("dump", "dumps")):
                calls += 1
                if not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                           and k.value.value is False for k in node.keywords):
                    loose.append(f"{name}:{node.lineno}")
    assert calls and not loose


def test_package_exports_are_exactly_its_imports():
    # a name deleted from a module but left in __all__, or imported but not
    # exported, fails here rather than at a user's import
    with open(envgnn.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(envgnn.__all__) == sorted(imported)
    assert len(set(envgnn.__all__)) == len(envgnn.__all__)
    for name in envgnn.__all__:
        assert getattr(envgnn, name) is not None, name


@pytest.mark.parametrize("field", ["colour", "log_prob_gumbel", "no_reg_loss", "self_loops"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_unknown_config_field_is_usage_error(tmp_path, data_dir, capsys, command, field):
    # a --config file or a sweep grid naming a field TrainConfig does not
    # have (the retired ones included) is refused before any training
    path = str(tmp_path / "in.json")
    with open(path, "w") as fh:
        json.dump({field: True} if command == "train" else {field: [True]}, fh)
    flag = "--config" if command == "train" else "--grid"
    rc = main([command, "--data", data_dir, flag, path, "--out", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"unknown config fields: ['{field}']" in err
    assert "Traceback" not in err


def test_train_config_admits_int_for_float_and_null_for_optional():
    from envgnn.config import TrainConfig

    cfg = TrainConfig.from_dict({"lr": 1, "tau": 2, "lr_env": None, "patience": None})
    assert (cfg.lr, cfg.tau, cfg.lr_env, cfg.patience) == (1, 2, None, None)


def test_train_huge_learning_rate_exits_numeric(tmp_path, data_dir, capsys):
    rc = main(["train", "--data", data_dir, "--out", str(tmp_path / "blowup"),
               "--epochs", "3", "--hidden", "8", "--lr", "1e308"])
    assert rc == EXIT_NUMERIC
    assert "non-finite" in capsys.readouterr().err


def test_train_erm_warns_about_moe_flags(tmp_path, data_dir, capsys):
    out = str(tmp_path / "erm")
    rc = main(["train", "--data", data_dir, "--out", out, "--epochs", "2",
               "--method", "erm", "--branches", "7"])
    assert rc == EXIT_OK
    assert "--method erm ignores the canet-only settings num_branches" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config, named", [
    pytest.param(["--exact-kl"], {}, "exact_kl", id="exact-kl"),
    pytest.param(["--shared-env", "--mean-pool-env"], {}, "shared_env, mean_pool_env",
                 id="env-flags"),
    pytest.param(["--deterministic-eval", "--tau", "0.5"], {}, "tau, deterministic_eval",
                 id="eval-flag-and-tau"),
    pytest.param([], {"lr_env": 0.1, "reg_weight": 0.0}, "reg_weight, lr_env",
                 id="config-file"),
])
def test_train_erm_warns_naming_every_canet_only_field(tmp_path, data_dir, capsys, flags,
                                                        config, named):
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump({"method": "erm", **config}, fh)
    rc = main(["train", "--data", data_dir, "--out", str(tmp_path / "erm"), "--epochs", "1",
               "--config", path, *flags])
    assert rc == EXIT_OK
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert warnings == [f"warning: --method erm ignores the canet-only settings {named}"]


def test_train_erm_without_canet_fields_does_not_warn(tmp_path, data_dir, capsys):
    rc = main(["train", "--data", data_dir, "--out", str(tmp_path / "erm"), "--epochs", "1",
               "--method", "erm", "--hidden", "8"])
    assert rc == EXIT_OK
    assert "warning" not in capsys.readouterr().err


def test_missing_dataset_is_io_error(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "absent"),
               "--out", str(tmp_path / "r"), "--epochs", "1"])
    assert rc == EXIT_IO


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def test_gradcheck_both_backbones(capsys):
    rc = main(["gradcheck", "--seed", "0"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["backbone"] for r in records} == {"gcn", "gat"}
    for r in records:
        assert r["passed"]
        assert r["max_relative_error"] <= 1e-4
        # report lists every parameter group, one per branch of a stacked weight
        assert "phi_in" in r["errors"] and "phi_out" in r["errors"]
        assert "l1.w_env" in r["errors"] and "l1.w_d[2]" in r["errors"]
        assert len(r["errors"]) == {"gcn": 16, "gat": 28}[r["backbone"]]
    gat = next(r for r in records if r["backbone"] == "gat")
    assert "l2.b[0]" in gat["errors"] and "l2.w_a[1]" in gat["errors"]


def test_gradcheck_detects_corrupted_gradient(monkeypatch, capsys):
    # mutation check: break one backward rule and the check must fail
    import envgnn.autodiff as ad_mod

    real_relu = ad_mod.relu

    def corrupted_relu(a):
        out = real_relu(a)
        inner = out._backward
        out._backward = lambda g: inner(1.01 * g)
        return out

    monkeypatch.setattr(ad_mod, "relu", corrupted_relu)
    rc = main(["gradcheck", "--backbone", "gcn", "--seed", "0"])
    assert rc == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_bookkeeping(tmp_path, data_dir):
    grid_path = str(tmp_path / "grid.json")
    with open(grid_path, "w") as fh:
        json.dump({"lr": [0.01, 0.005]}, fh)
    cfg_path = str(tmp_path / "base.json")
    with open(cfg_path, "w") as fh:
        json.dump({"epochs": 2, "hidden": 8}, fh)
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--data", data_dir, "--grid", grid_path,
               "--seeds", "0,1", "--config", cfg_path, "--out", out])
    assert rc == EXIT_OK
    payload = json.load(open(os.path.join(out, "sweep.json")))
    assert len(payload["results"]) == 4
    assert payload["best_config"]["lr"] in (0.01, 0.005)


def test_sweep_grid_mixing_null_and_numbers(tmp_path, data_dir):
    # erm has no estimator, so both lr_env values tie and null wins the tie
    grid = str(tmp_path / "grid.json")
    write_file(grid, json.dumps({"lr_env": [0.01, None]}))
    base = str(tmp_path / "base.json")
    write_file(base, json.dumps({"method": "erm", "epochs": 1, "hidden": 4}))
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--data", data_dir, "--grid", grid, "--config", base,
                 "--out", out]) == EXIT_OK
    payload = json.load(open(os.path.join(out, "sweep.json")))
    assert [r["overrides"]["lr_env"] for r in payload["results"]] == [0.01, None]
    assert payload["results"][0]["mean_valid"] == payload["results"][1]["mean_valid"]
    assert payload["best_config"]["lr_env"] is None


@pytest.mark.parametrize("flag, text, named", [
    ("--grid", "[1, 2]", "expected a JSON object"),
    ("--grid", '{"lr": 0.01}', "['lr'] must be lists"),
    ("--config", '["epochs", 2]', "expected a JSON object"),
    ("--grid", '{"seed": [1, 2]}', "'seed' is not a grid key"),
])
def test_sweep_malformed_grid_or_config_is_usage_error(tmp_path, data_dir, capsys,
                                                       flag, text, named):
    paths = {"--grid": str(tmp_path / "grid.json"), "--config": str(tmp_path / "base.json")}
    with open(paths["--grid"], "w") as fh:
        json.dump({"lr": [0.01]}, fh)
    with open(paths["--config"], "w") as fh:
        json.dump({"epochs": 1, "hidden": 4}, fh)
    with open(paths[flag], "w") as fh:
        fh.write(text)
    rc = main(["sweep", "--data", data_dir, "--grid", paths["--grid"],
               "--config", paths["--config"], "--out", str(tmp_path / "sweep")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{flag} {paths[flag]}" in err and named in err


@pytest.mark.parametrize("seeds", ["a", "0,,1", "-1", "", "1.5"])
def test_sweep_bad_seeds_is_usage_error(tmp_path, data_dir, capsys, seeds):
    grid = str(tmp_path / "grid.json")
    with open(grid, "w") as fh:
        json.dump({"lr": [0.01]}, fh)
    rc = main(["sweep", "--data", data_dir, "--grid", grid, f"--seeds={seeds}",
               "--out", str(tmp_path / "sweep")])
    assert rc == EXIT_USAGE
    assert "--seeds must list nonnegative integers" in capsys.readouterr().err


@pytest.mark.parametrize("name, edit, named", [
    ("splits.json", lambda s: s.__setitem__("valid", []), "'valid' is empty"),
    ("splits.json", lambda s: s["train"].append(s["train"][0]), "'train' repeats index"),
    ("dataset.json", lambda m: m.__setitem__("metric", "f1"), "field 'metric'"),
    ("dataset.json", lambda m: m.__setitem__("metric", "roc_auc"), "metric 'roc_auc' needs C == 2"),
])
def test_train_bad_split_or_metric_fails_at_load(tmp_path, data_dir, capsys, monkeypatch,
                                                 name, edit, named):
    import envgnn.cli as cli_mod

    d = str(tmp_path / "data")
    shutil.copytree(data_dir, d)
    path = os.path.join(d, name)
    payload = json.load(open(path))
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    monkeypatch.setattr(cli_mod, "train", lambda *a: pytest.fail("training started"))
    rc = main(["train", "--data", d, "--out", str(tmp_path / "r"), "--epochs", "1"])
    assert rc == EXIT_USAGE
    assert f"{name}: {named}" in capsys.readouterr().err


def test_eval_manifest_without_classes_is_usage_error(tmp_path, data_dir, run_dir, capsys):
    d = str(tmp_path / "data")
    shutil.copytree(data_dir, d)
    mpath = os.path.join(d, "dataset.json")
    manifest = json.load(open(mpath))
    del manifest["C"]
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    rc = main(["eval", "--data", d, "--checkpoint", os.path.join(run_dir, "checkpoint.json"),
               "--out", str(tmp_path / "e")])
    assert rc == EXIT_USAGE
    assert "dataset.json: missing field 'C'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a failed command leaves --out as it was
# ---------------------------------------------------------------------------


def dir_bytes(path):
    out = {}
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def write_file(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


@pytest.fixture
def kept_run(tmp_path, run_dir):
    keep = str(tmp_path / "keep")
    shutil.copytree(run_dir, keep)
    return keep, dir_bytes(keep)


@pytest.mark.parametrize("case", [
    "train-bad-config", "train-missing-data", "train-numeric", "eval-missing-data",
    "eval-incompatible", "eval-bad-checkpoint", "sweep-bad-grid", "sweep-numeric",
    "gen-data-bad-value",
])
def test_failed_command_with_force_leaves_out_unchanged(tmp_path, data_dir, kept_run, case):
    keep, before = kept_run
    ckpt = os.path.join(keep, "checkpoint.json")
    absent = str(tmp_path / "absent")
    small = ["--epochs", "2", "--hidden", "4"]
    if case == "eval-incompatible":
        other = str(tmp_path / "otherdims")
        assert main(["gen-data", "--kind", "planted", "--out", other, "--seed", "2",
                     "--n-per-domain", "20", "--stable-dim", "6"]) == EXIT_OK
    argv, code = {
        "train-bad-config": (["train", "--data", data_dir, "--config",
                              write_file(str(tmp_path / "nan.json"), '{"tau": NaN}')], EXIT_USAGE),
        "train-missing-data": (["train", "--data", absent] + small, EXIT_IO),
        "train-numeric": (["train", "--data", data_dir, "--lr", "1e308"] + small, EXIT_NUMERIC),
        "eval-missing-data": (["eval", "--data", absent, "--checkpoint", ckpt], EXIT_IO),
        "eval-incompatible": (["eval", "--data", str(tmp_path / "otherdims"),
                               "--checkpoint", ckpt], EXIT_COMPAT),
        "eval-bad-checkpoint": (["eval", "--data", data_dir, "--checkpoint",
                                 write_file(str(tmp_path / "list.json"), "[]")], EXIT_COMPAT),
        "sweep-bad-grid": (["sweep", "--data", data_dir, "--grid",
                            write_file(str(tmp_path / "scalar.json"), '{"lr": 0.1}')],
                           EXIT_USAGE),
        "sweep-numeric": (["sweep", "--data", data_dir, "--grid",
                           write_file(str(tmp_path / "huge.json"), '{"lr": [1e308]}'),
                           "--config", write_file(str(tmp_path / "small.json"),
                                                  '{"epochs": 2, "hidden": 4}')], EXIT_NUMERIC),
        "gen-data-bad-value": (["gen-data", "--kind", "planted", "--n-per-domain", "20",
                                "--stable-noise", "nan"], EXIT_USAGE),
    }[case]
    assert main(argv + ["--out", keep, "--force"]) == code
    assert dir_bytes(keep) == before


@pytest.mark.parametrize("command", ["train", "eval", "sweep", "gen-data"])
def test_existing_out_without_force_is_refused_before_any_work(tmp_path, kept_run, command,
                                                               capsys):
    # every other input is missing or invalid: the --out refusal comes first
    keep, before = kept_run
    absent = str(tmp_path / "absent")
    argv = {
        "train": ["train", "--data", absent, "--tau", "nan"],
        "eval": ["eval", "--data", absent, "--checkpoint", absent],
        "sweep": ["sweep", "--data", absent, "--grid", absent],
        "gen-data": ["gen-data", "--kind", "planted", "--stable-noise", "nan"],
    }[command]
    assert main(argv + ["--out", keep]) == EXIT_IO
    assert "output directory exists" in capsys.readouterr().err
    assert dir_bytes(keep) == before


@pytest.mark.parametrize("inside", [True, False], ids=["ancestor", "same"])
@pytest.mark.parametrize("command", ["train", "eval", "sweep", "gen-data",
                                     "train-config", "sweep-grid", "sweep-config"])
def test_out_holding_the_input_is_refused_before_any_work(tmp_path, data_dir, run_dir, command,
                                                           inside, capsys):
    # emptying --out for the results would delete the dataset, base graph,
    # config or grid it holds: --force does not allow that
    out = str(tmp_path / "out")
    given = os.path.join(out, "input") if inside else out
    grid = '{"epochs": [1], "hidden": [4]}'
    if command == "gen-data":
        write_base_graph(given)
    elif command in ("train", "eval", "sweep"):
        shutil.copytree(data_dir, given)
    else:
        os.makedirs(os.path.dirname(given), exist_ok=True)
        write_file(given, grid if command == "sweep-grid" else '{"epochs": 1, "hidden": 4}')

    def contents():
        return dir_bytes(given) if os.path.isdir(given) else open(given, "rb").read()

    before = contents()
    grid_file = write_file(str(tmp_path / "grid.json"), grid)
    argv = {
        "train": ["train", "--data", given, "--epochs", "1", "--hidden", "4"],
        "eval": ["eval", "--data", given, "--checkpoint", os.path.join(run_dir, "checkpoint.json")],
        "sweep": ["sweep", "--data", given, "--grid", grid_file],
        "gen-data": ["gen-data", "--kind", "citation-spurious", "--base", given],
        "train-config": ["train", "--data", data_dir, "--config", given],
        "sweep-grid": ["sweep", "--data", data_dir, "--grid", given],
        "sweep-config": ["sweep", "--data", data_dir, "--grid", grid_file, "--config", given],
    }[command]
    assert main(argv + ["--out", out, "--force"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--out {out} is or contains" in err and given in err
    assert contents() == before


@pytest.mark.parametrize("force", [[], ["--force"]])
def test_out_that_is_a_file_is_io_error(tmp_path, data_dir, force):
    path = write_file(str(tmp_path / "file"), "kept")
    rc = main(["train", "--data", data_dir, "--out", path, "--epochs", "1"] + force)
    assert rc == EXIT_IO
    assert open(path).read() == "kept"


def test_eval_force_into_the_checkpoint_directory(tmp_path, data_dir, kept_run):
    keep, before = kept_run
    ckpt = os.path.join(keep, "checkpoint.json")
    rc = main(["eval", "--data", data_dir, "--checkpoint", ckpt, "--out", keep, "--force"])
    assert rc == EXIT_OK
    assert sorted(os.listdir(keep)) == ["manifest.json", "metrics.json"]
    manifest = json.load(open(os.path.join(keep, "manifest.json")))
    assert manifest["checkpoint_hash"] == hashlib.sha256(before["checkpoint.json"]).hexdigest()


# ---------------------------------------------------------------------------
# export-weights
# ---------------------------------------------------------------------------


def test_export_weights_roundtrip(tmp_path, run_dir):
    out = str(tmp_path / "w")
    rc = main(["export-weights", "--checkpoint",
               os.path.join(run_dir, "checkpoint.json"),
               "--layer", "1", "--out", out])
    assert rc == EXIT_OK
    files = sorted(os.listdir(out))
    assert files == ["layer1_branch1.csv", "layer1_branch2.csv", "layer1_branch3.csv"]
    params, _ = load_checkpoint(os.path.join(run_dir, "checkpoint.json"))
    for j, f in enumerate(files, start=1):
        back = import_branch_weights(os.path.join(out, f))
        assert np.array_equal(back, params["l1.w_d"].value[j - 1])


def test_export_weights_trained_branches_differ(tmp_path, run_dir):
    out = str(tmp_path / "w2")
    main(["export-weights", "--checkpoint",
          os.path.join(run_dir, "checkpoint.json"), "--layer", "1", "--out", out])
    mats = [import_branch_weights(os.path.join(out, f))
            for f in sorted(os.listdir(out))]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert np.linalg.norm(mats[i] - mats[j]) > 0.0


def test_export_weights_bad_layer_is_usage_error(tmp_path, run_dir):
    rc = main(["export-weights", "--checkpoint",
               os.path.join(run_dir, "checkpoint.json"),
               "--layer", "9", "--out", str(tmp_path / "w3")])
    assert rc == EXIT_USAGE


def test_export_weights_erm_checkpoint_is_incompatible(tmp_path, data_dir):
    run = str(tmp_path / "ermrun")
    rc = main(["train", "--data", data_dir, "--out", run, "--epochs", "2",
               "--method", "erm"])
    assert rc == EXIT_OK
    rc = main(["export-weights", "--checkpoint",
               os.path.join(run, "checkpoint.json"),
               "--layer", "1", "--out", str(tmp_path / "w4")])
    assert rc == EXIT_COMPAT


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_save_load_roundtrip(tmp_path):
    from envgnn.config import TrainConfig
    from envgnn.model import init_params
    from envgnn.rng import Rng, STREAM_INIT

    cfg = TrainConfig(hidden=8, seed=2)
    params = init_params(cfg, 5, 3, Rng(2).substream(STREAM_INIT))
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, params)
    back, back_cfg = load_checkpoint(path)
    assert back_cfg == cfg
    for name, t in params.tensors.items():
        assert np.array_equal(back[name].value, t.value)


def _edit_checkpoint(src, dst, edit):
    payload = json.load(open(src))
    edit(payload)
    with open(dst, "w") as fh:
        json.dump(payload, fh)


def _per_branch_layout(payload):
    """Store each stacked (K, ...) branch weight ``l{l}.<role>`` as K records
    ``l{l}.k{j}.<role>``, the layout of checkpoints of earlier versions."""
    params = payload["params"]
    for name in [n for n, rec in params.items() if len(rec["shape"]) == 3]:
        rec = params.pop(name)
        layer, role = name.split(".")
        k, *shape = rec["shape"]
        size = len(rec["values"]) // k
        for j in range(k):
            params[f"{layer}.k{j + 1}.{role}"] = {
                "shape": shape, "values": rec["values"][j * size:(j + 1) * size]}


@pytest.mark.parametrize("edit, named", [
    pytest.param(lambda p: p.pop("num_classes"), "num_classes", id="missing-field"),
    pytest.param(lambda p: p["params"].pop("l1.w_self"), "l1.w_self",
                 id="missing-param"),
    pytest.param(_per_branch_layout, "missing parameters ['l1.w_d', 'l1.w_self', 'l2.w_d'",
                 id="per-branch-layout"),
    pytest.param(lambda p: p["params"].__setitem__("l9.w", p["params"]["phi_in"]), "l9.w",
                 id="extra-param"),
    pytest.param(lambda p: p["params"]["phi_out"].__setitem__("shape", [1, 1]), "phi_out",
                 id="wrong-shape"),
    pytest.param(lambda p: p["config"].__setitem__("colour", "red"), "colour",
                 id="unknown-config-field"),
    # retired fields: a checkpoint trained under them would evaluate differently
    *[pytest.param(lambda p, f=field: p["config"].__setitem__(f, True), field,
                   id=f"unknown-config-field-{field}")
      for field in ("log_prob_gumbel", "no_reg_loss", "self_loops")],
    pytest.param(lambda p: p["config"].__setitem__("hidden", "x"), "hidden must be int",
                 id="config-field-str"),
    pytest.param(lambda p: p["config"].__setitem__("hidden", 2.5), "hidden must be int",
                 id="config-field-float"),
    pytest.param(lambda p: p["config"].__setitem__("tau", math.inf), "tau must be finite",
                 id="config-field-non-finite"),
    pytest.param(lambda p: p["config"].__setitem__("epochs", 0), "epochs must be >= 1",
                 id="config-zero-epochs"),
    pytest.param(lambda p: p["config"].__setitem__("tau", 1e-320),
                 "tau must have a finite reciprocal", id="config-subnormal-tau"),
    *[pytest.param(lambda p, f=field, v=value: p["config"].__setitem__(f, v), named,
                   id=f"config-{field}-{value}") for field, value, named in BAD_RATES],
    pytest.param(lambda p: p["params"]["phi_out"]["values"].__setitem__(1, math.nan),
                 "parameter 'phi_out' holds non-finite", id="param-nan"),
    pytest.param(lambda p: p["params"]["phi_in"]["values"].__setitem__(0, -math.inf),
                 "parameter 'phi_in' holds non-finite", id="param-inf"),
    pytest.param(lambda p: p["params"]["phi_in"]["values"].__setitem__(0, 10**400),
                 "malformed parameter 'phi_in'", id="param-int-beyond-float"),
])
def test_malformed_checkpoint_exits_compat(tmp_path, data_dir, run_dir, capsys, edit, named):
    ckpt = str(tmp_path / "bad.json")
    _edit_checkpoint(os.path.join(run_dir, "checkpoint.json"), ckpt, edit)
    rc = main(["eval", "--data", data_dir, "--checkpoint", ckpt,
               "--out", str(tmp_path / "e")])
    assert rc == EXIT_COMPAT
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "export-weights"])
def test_checkpoint_not_text_exits_compat(tmp_path, data_dir, capsys, command):
    ckpt = str(tmp_path / "bytes.json")
    with open(ckpt, "wb") as fh:
        fh.write(b"\xff\xfe{\x00}\x00")  # UTF-16 with a byte-order mark
    extra = ["--data", data_dir] if command == "eval" else ["--layer", "1"]
    rc = main([command, *extra, "--checkpoint", ckpt, "--out", str(tmp_path / "out")])
    assert rc == EXIT_COMPAT
    assert f"incompatible checkpoint: {ckpt}: not valid JSON" in capsys.readouterr().err


def overflowing_checkpoint(tmp_path, run_dir) -> str:
    """A copy of ``run_dir``'s checkpoint whose input projection overflows."""
    def blow_up(payload):
        rec = payload["params"]["phi_in"]
        rec["values"] = [1e308] * len(rec["values"])

    ckpt = str(tmp_path / "huge.json")
    _edit_checkpoint(os.path.join(run_dir, "checkpoint.json"), ckpt, blow_up)
    return ckpt


def test_eval_overflowing_checkpoint_exits_numeric(tmp_path, data_dir, run_dir):
    ckpt = overflowing_checkpoint(tmp_path, run_dir)
    rc = main(["eval", "--data", data_dir, "--checkpoint", ckpt, "--out", str(tmp_path / "e")])
    assert rc == EXIT_NUMERIC


def run_python(args, timeout=120):
    """This interpreter in a fresh process, importing the ``envgnn`` under test."""
    src = os.path.dirname(os.path.dirname(envgnn.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable] + args, env=env, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("case", ["train-huge-lr", "eval-overflowing-checkpoint"])
def test_numeric_abort_prints_one_line(tmp_path, data_dir, run_dir, case):
    # in a fresh process, stderr is what a user sees: the reason, and no numpy
    # RuntimeWarning (message and source line) ahead of it
    if case == "train-huge-lr":
        argv = ["train", "--data", data_dir, "--epochs", "3", "--hidden", "8", "--lr", "1e300"]
        reason = "numerical abort: "
    else:
        ckpt = overflowing_checkpoint(tmp_path, run_dir)
        argv = ["eval", "--data", data_dir, "--checkpoint", ckpt]
        reason = "numerical failure: "
    out = run_python(["-m", "envgnn.cli"] + argv + ["--out", str(tmp_path / "out")])
    assert out.returncode == EXIT_NUMERIC
    assert out.stderr.count("\n") == 1 and out.stderr.startswith(reason), out.stderr


def test_main_pins_malloc_so_freed_blocks_are_reused(tmp_path):
    """After ``main`` a freed 8 MiB block is reused without page faults; under
    glibc's default thresholds each reallocation is mapped afresh and faults."""
    import ctypes
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("C library has no mallopt")
    code = f"""
import resource, numpy as np
from envgnn.cli import main
assert main(["train", "--data", {str(tmp_path / "missing")!r},
             "--out", {str(tmp_path / "out")!r}]) == {EXIT_IO}
np.ones(1 << 20).sum()
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    np.ones(1 << 20).sum()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
"""
    out = run_python(["-c", code], timeout=60)
    out.check_returncode()
    assert int(out.stdout.split()[-1]) < 50
