"""Command-line entry point for data generation, training, evaluation,
gradient checking, sweeps, and branch-weight export.

Exit codes: 0 success, 1 a gradient check failed (gradcheck only), 2 usage,
3 I/O failure, 4 numerical abort, 5 checkpoint/dataset incompatibility.

Machine-readable progress goes to stdout as line-delimited JSON; the human
summary goes to stderr. All randomness flows from --seed (default 0, never
wall-clock).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import time

import numpy as np

from . import __version__
from .autodiff import NumericError
from .config import TrainConfig
from .gradcheck import run_gradcheck
from .graphdata import (ParseError, _field, dataset_manifest_hash, load_dataset, load_graph,
                        read_json_object, save_dataset, write_json)
from .model import export_branch_weights, init_params, ParamSet
from .rng import ALGORITHM, STREAM_INIT, Rng
from .shiftgen import PlantedConfig, SpuriousGenConfig, gen_planted_dataset, gen_spurious_dataset
from .trainer import TrainAbort, eval_report, sweep, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_COMPAT = 5


def _pin_malloc():
    """Fix glibc's malloc thresholds for the rest of the process.

    By default glibc raises its mmap threshold to the largest block freed so
    far and trims the heap top after frees, so whether an epoch's temporaries
    are reused or mapped afresh and faulted in (~2,000 page faults per epoch)
    depends on what the process allocated before. Pinned, blocks up to
    32 MiB (glibc's ceiling) come from the heap and freed pages stay mapped.
    A no-op where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def _emit(record: dict):
    sys.stdout.write(json.dumps(record, allow_nan=False) + "\n")
    sys.stdout.flush()


def _say(msg: str):
    sys.stderr.write(msg + "\n")


def _check_out(path: str, force: bool, **inputs: str | None):
    """Refuse, before any work, an ``--out`` that is or contains one of the
    ``inputs`` (flag name to path), which emptying it would delete, and a
    non-empty ``--out`` without ``--force``."""
    out = os.path.realpath(path)
    for flag, given in inputs.items():
        if given is not None and os.path.commonpath([out, os.path.realpath(given)]) == out:
            raise UsageError(f"--out {path} is or contains --{flag} {given}, "
                             "which writing the output would delete")
    if os.path.exists(path) and os.listdir(path) and not force:
        raise FileExistsError(f"output directory exists (use --force): {path}")


def _prepare_out(path: str):
    """Empty and create ``--out``; called only once the results are in hand,
    so a command that fails leaves an existing directory as it was."""
    if os.path.exists(path) and os.listdir(path):
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_manifest(out_dir: str, command: str, extra: dict):
    manifest = {
        "command": command,
        "tool_version": __version__,
        "prng": ALGORITHM,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    manifest.update(extra)
    write_json(os.path.join(out_dir, "manifest.json"), manifest, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class CheckpointError(ValueError):
    """A checkpoint file does not describe a model this version can load."""


def save_checkpoint(path: str, params: ParamSet):
    payload = {
        "config": params.cfg.to_dict(),
        "in_dim": params.in_dim,
        "num_classes": params.num_classes,
        "params": {
            name: {"shape": list(t.value.shape), "values": t.value.reshape(-1).tolist()}
            for name, t in params.tensors.items()
        },
    }
    write_json(path, payload)


def load_checkpoint(path: str) -> tuple[ParamSet, TrainConfig]:
    """Read a checkpoint written by ``save_checkpoint``.

    The parameter names and shapes ``init_params`` gives the stored config are
    the schema: a missing field, a missing or unexpected parameter, a shape
    that differs, or a parameter holding NaN or an infinity raises
    ``CheckpointError`` naming it.
    """
    try:
        payload = read_json_object(path)
        config = _field(payload, "config", path, lambda v: isinstance(v, dict), "a JSON object")
        in_dim, num_classes = (
            _field(payload, key, path, lambda v: type(v) is int and v >= 1, "a positive integer")
            for key in ("in_dim", "num_classes"))
        stored = _field(payload, "params", path, lambda v: isinstance(v, dict), "a JSON object")
    except ParseError as exc:
        raise CheckpointError(str(exc)) from None
    try:
        cfg = TrainConfig.from_dict(config)
        params = init_params(cfg, in_dim, num_classes, Rng(cfg.seed).substream(STREAM_INIT))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad config: {exc}") from None
    missing = sorted(set(params.tensors) - set(stored))
    extra = sorted(set(stored) - set(params.tensors))
    if missing or extra:
        raise CheckpointError(f"{path}: missing parameters {missing}, unexpected {extra}")
    values = {}
    for name in params.tensors:
        try:
            rec = stored[name]
            values[name] = np.asarray(rec["values"], dtype=np.float64).reshape(rec["shape"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"{path}: malformed parameter '{name}' "
                                  f"({type(exc).__name__}: {exc})") from None
        if not np.isfinite(values[name]).all():
            raise CheckpointError(f"{path}: parameter '{name}' holds non-finite values")
    try:
        params.load_values(values)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return params, cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _flag_values(cls, args) -> dict:
    """The fields of dataclass ``cls`` given on the command line: each flag's
    dest is its field, and an absent flag is None, so ``cls`` supplies the
    defaults."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if getattr(args, f.name, None) is not None}


# gen-data's generator flags: (flag, generator config field, type); an absent
# flag is None, so the config supplies the default
GEN_FLAGS = [
    ("--seed", "seed", int),
    ("--spurious-dim", "spurious_dim", int),
    ("--gcn-layers", "gcn_layers", int),
    ("--n-per-domain", "n_per_domain", int),
    ("--classes", "num_classes", int),
    ("--stable-dim", "stable_dim", int),
    ("--p-intra", "p_intra", float),
    ("--p-inter", "p_inter", float),
    ("--stable-strength", "stable_strength", float),
    ("--spurious-strength", "spurious_strength", float),
    ("--stable-noise", "stable_noise", float),
    ("--spurious-noise", "spurious_noise", float),
    ("--label-noise", "label_noise", float),
]


def cmd_gen_data(args) -> int:
    _check_out(args.out, args.force, base=args.base)
    planted = args.kind == "planted"
    cls = PlantedConfig if planted else SpuriousGenConfig
    fields = {f.name for f in dataclasses.fields(cls)}
    ignored = (["--base"] if planted and args.base else []) + [
        flag for flag, field, _ in GEN_FLAGS
        if field not in fields and getattr(args, field) is not None]
    if ignored:
        raise UsageError(f"--kind {args.kind} does not use {', '.join(ignored)}")
    if not planted and not args.base:
        raise UsageError("--base is required for kind=citation-spurious")
    cfg = cls(**_flag_values(cls, args))
    ds = gen_planted_dataset(cfg) if planted else gen_spurious_dataset(load_graph(args.base), cfg)
    _prepare_out(args.out)
    save_dataset(args.out, ds)
    mhash = dataset_manifest_hash(args.out)
    _write_manifest(args.out, "gen-data", {"seed": cfg.seed, "dataset_manifest_hash": mhash})
    _emit({"event": "gen-data", "out": args.out, "manifest_hash": mhash})
    _say(f"dataset written to {args.out} (manifest hash {mhash[:12]})")
    return EXIT_OK


def _load_json_object(path: str, flag: str) -> dict:
    """The JSON object in a file named on the command line by ``flag``."""
    try:
        return read_json_object(path)
    except ParseError as exc:
        raise UsageError(f"{flag} {exc}") from None


# the TrainConfig fields only the mixture model (canet) reads
CANET_ONLY = ("num_branches", "tau", "reg_weight", "mean_pool_env", "deterministic_eval",
              "exact_kl")


def _load_train_config(args) -> TrainConfig:
    base = _load_json_object(args.config, "--config") if args.config else {}
    # only flags given on the command line override the file
    merged = {**base, **_flag_values(TrainConfig, args)}
    cfg = TrainConfig.from_dict(merged)
    ignored = [k for k in CANET_ONLY if k in merged]
    if cfg.method == "erm" and ignored:
        _say(f"warning: --method erm ignores the canet-only settings {', '.join(ignored)}")
    return cfg


def cmd_train(args) -> int:
    _check_out(args.out, args.force, data=args.data, config=args.config)
    cfg = _load_train_config(args)
    ds = load_dataset(args.data)
    result = train(ds, cfg)

    run = result.to_dict()
    run["prng"] = ALGORITHM
    run["dataset_manifest_hash"] = dataset_manifest_hash(args.data)
    if args.config:
        run["config_file_hash"] = _sha256_file(args.config)
    _prepare_out(args.out)
    run_path = os.path.join(args.out, "run.json")
    write_json(run_path, run, indent=1, sort_keys=True)
    save_checkpoint(os.path.join(args.out, "checkpoint.json"), result.params)
    _write_manifest(args.out, "train", {
        "seed": cfg.seed,
        "dataset_manifest_hash": run["dataset_manifest_hash"],
    })
    _emit({"event": "train-done", "selected_epoch": result.selected_epoch,
           "best_valid": result.best_valid, "final": result.final})
    _say(f"training done: best valid {result.best_valid:.4f} at epoch "
         f"{result.selected_epoch}; run written to {run_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_out(args.out, args.force, data=args.data)  # the checkpoint may lie in --out
    params, cfg = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.data)
    if params.in_dim != ds.num_features or params.num_classes != ds.num_classes:
        _say(f"checkpoint incompatible with dataset: model (D={params.in_dim}, "
             f"C={params.num_classes}) vs data (D={ds.num_features}, C={ds.num_classes})")
        return EXIT_COMPAT
    report = eval_report(params, ds, cfg)
    # hashed before --out is emptied, which may hold the checkpoint
    provenance = {"seed": cfg.seed, "checkpoint_hash": _sha256_file(args.checkpoint),
                  "dataset_manifest_hash": dataset_manifest_hash(args.data)}
    _prepare_out(args.out)
    out_path = os.path.join(args.out, "metrics.json")
    write_json(out_path, report.to_dict(), indent=1, sort_keys=True)
    _write_manifest(args.out, "eval", provenance)
    _emit({"event": "eval", "report": report.to_dict()})
    _say(f"metrics written to {out_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    worst = 0.0
    ok = True
    for backbone in ([args.backbone] if args.backbone else ["gcn", "gat"]):
        rep = run_gradcheck(backbone=backbone, num_branches=args.branches,
                            num_layers=args.layers, seed=args.seed)
        _emit({"event": "gradcheck", "backbone": backbone,
               "max_relative_error": rep["max_relative_error"],
               "errors": rep["errors"], "passed": rep["passed"]})
        for name, err in sorted(rep["errors"].items()):
            _say(f"  {backbone:4s} {name:20s} rel err {err:.3e}")
        worst = max(worst, rep["max_relative_error"])
        ok = ok and rep["passed"]
    _say(f"gradcheck {'PASS' if ok else 'FAIL'} (max relative error {worst:.3e})")
    return EXIT_OK if ok else 1


def cmd_sweep(args) -> int:
    _check_out(args.out, args.force, data=args.data, grid=args.grid, config=args.config)
    grid = _load_json_object(args.grid, "--grid")
    not_lists = sorted(k for k, v in grid.items() if not isinstance(v, list))
    if not_lists:
        raise UsageError(f"--grid {args.grid}: the values of {not_lists} must be lists")
    if "seed" in grid:
        raise UsageError(f"--grid {args.grid}: 'seed' is not a grid key; list seeds in --seeds")
    seeds = [s.strip() for s in args.seeds.split(",")]
    if not all(s.isdecimal() for s in seeds):
        raise UsageError(f"--seeds must list nonnegative integers, got {args.seeds!r}")
    seeds = [int(s) for s in seeds]
    ds = load_dataset(args.data)
    base = TrainConfig()
    if args.config:
        base = TrainConfig.from_dict(_load_json_object(args.config, "--config"))
    best_cfg, results = sweep(ds, grid, seeds, base)
    payload = {"best_config": best_cfg.to_dict(), "results": results,
               "grid": grid, "seeds": seeds}
    _prepare_out(args.out)
    out_path = os.path.join(args.out, "sweep.json")
    write_json(out_path, payload, indent=1, sort_keys=True)
    _emit({"event": "sweep-done", "best_config": best_cfg.to_dict(),
           "runs": len(results)})
    _say(f"sweep done: {len(results)} runs, results in {out_path}")
    return EXIT_OK


def cmd_export_weights(args) -> int:
    params, cfg = load_checkpoint(args.checkpoint)
    if cfg.method != "canet":
        _say("checkpoint has no branch weights (baseline model)")
        return EXIT_COMPAT
    try:
        paths = export_branch_weights(params, args.layer, args.out)
    except ValueError as exc:
        _say(str(exc))
        return EXIT_USAGE
    _emit({"event": "export-weights", "files": paths})
    _say(f"wrote {len(paths)} branch weight file(s) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="envgnn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic shift dataset")
    g.add_argument("--kind", choices=["citation-spurious", "planted"], required=True)
    g.add_argument("--base", help="base graph directory (citation-spurious only)")
    g.add_argument("--out", required=True)
    g.add_argument("--force", action="store_true")
    for flag, field, cast in GEN_FLAGS:
        g.add_argument(flag, dest=field, type=cast)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model and write run.json + checkpoint")
    t.add_argument("--data", required=True)
    t.add_argument("--config", help="JSON file with TrainConfig fields")
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int)
    t.add_argument("--force", action="store_true")
    t.add_argument("--method", choices=["canet", "erm"])
    t.add_argument("--backbone", choices=["gcn", "gat"])
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--weight-decay", dest="weight_decay", type=float)
    t.add_argument("--dropout", type=float)
    t.add_argument("--hidden", type=int)
    t.add_argument("--layers", dest="num_layers", type=int)
    t.add_argument("--branches", dest="num_branches", type=int)
    t.add_argument("--tau", type=float)
    t.add_argument("--reg-weight", dest="reg_weight", type=float)
    for flag in ("mean-pool-env", "deterministic-eval", "exact-kl"):
        t.add_argument(f"--{flag}", dest=flag.replace("-", "_"), action="store_true",
                       default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--force", action="store_true")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("gradcheck", help="verify gradients on a small instance")
    c.add_argument("--backbone", choices=["gcn", "gat"])
    c.add_argument("--branches", type=int, default=3)
    c.add_argument("--layers", type=int, default=2)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_gradcheck)

    s = sub.add_parser("sweep", help="grid search over hyperparameters")
    s.add_argument("--data", required=True)
    s.add_argument("--grid", required=True, help="JSON file: {field: [values...]}")
    s.add_argument("--seeds", default="0")
    s.add_argument("--config", help="base config JSON")
    s.add_argument("--out", required=True)
    s.add_argument("--force", action="store_true")
    s.set_defaults(func=cmd_sweep)

    w = sub.add_parser("export-weights", help="export per-branch weight CSVs")
    w.add_argument("--checkpoint", required=True)
    w.add_argument("--layer", type=int, required=True)
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_export_weights)
    return p


def main(argv=None) -> int:
    _pin_malloc()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every non-finite value becomes a NumericError in the tape's own
        # check, so numpy's overflow warnings would only repeat the reason
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        _say(f"usage error: {exc}")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except TrainAbort as exc:
        _emit({"event": "abort", "epoch": exc.epoch, "error": str(exc)})
        _say(f"numerical abort: {exc}")
        return EXIT_NUMERIC
    except (FileNotFoundError, FileExistsError, PermissionError, IsADirectoryError,
            NotADirectoryError) as exc:
        _say(f"I/O error: {exc}")
        return EXIT_IO
    except CheckpointError as exc:
        _say(f"incompatible checkpoint: {exc}")
        return EXIT_COMPAT
    except NumericError as exc:
        _say(f"numerical failure: {exc}")
        return EXIT_NUMERIC
    except ValueError as exc:
        _say(f"invalid input: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
