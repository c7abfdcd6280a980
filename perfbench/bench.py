"""Workloads, output checks and statistics of the envgnn benchmark.

Every command goes through ``envgnn.cli.main`` in this process, as the
README workflow runs it, and is timed from outside. Set-up that is not
measured (generating the dataset; for eval-ood, training the checkpoint it
serves) runs in a child process so that it leaves no trace in this process's
peak memory.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import scipy

import spec
import tracing
from envgnn import cli
from envgnn.config import TrainConfig
from envgnn.graphdata import load_dataset
from envgnn.model import prepare_graph
from envgnn.trainer import disjoint_union, eval_report

TAIL_BEYOND = 10  # a tail percentile needs this many samples above it
SETUP_REPEATS = 10
MIN_EVAL_REQUESTS = 2 * TAIL_BEYOND + 1
MIN_TRAIN_PAIRS = 3
COVERAGE_FLOOR = 0.9  # share of a traced train command that layer spans must explain


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that has at least ``beyond`` samples above it.

    Returns (value, percentile, sample count). With ``2 * beyond`` samples or
    fewer that percentile would lie below the median, and the maximum (p100)
    stands in.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 2 * beyond:
        return xs[-1], 100.0, n
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


def repeat(unit, seconds: float, min_units: int) -> int:
    """Run ``unit`` at least ``min_units`` times, and again while the next
    run is expected to end within ``seconds``. Returns the number run."""
    t0 = time.perf_counter()
    n = 0
    while True:
        unit()
        n += 1
        elapsed = time.perf_counter() - t0
        if n >= min_units and elapsed * (n + 1) / n > seconds:
            return n


# ---------------------------------------------------------------------------
# a session: the commands of one benchmark run and their checks
# ---------------------------------------------------------------------------


class Samples:
    def __init__(self):
        self.train_s = {arm: [] for arm in spec.ARM_FLAGS}
        self.epoch_ms = {arm: [] for arm in spec.ARM_FLAGS}
        self.eval_ms = []

    def merge(self, other: dict):
        for arm in spec.ARM_FLAGS:
            self.train_s[arm] += other["train_s"][arm]
            self.epoch_ms[arm] += other["epoch_ms"][arm]
        self.eval_ms += other["eval_ms"]

    def to_dict(self) -> dict:
        return {"train_s": self.train_s, "epoch_ms": self.epoch_ms, "eval_ms": self.eval_ms}


class Session:
    """Runs the workload's commands, checks their outputs and keeps samples."""

    def __init__(self, workload: dict, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.data = os.path.join(work, "data")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples = Samples()
        self.reference: dict = {}  # arm -> (run.json metric fields, checkpoint bytes)
        self.ood: dict = {}
        self.tracer: tracing.Tracer | None = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def cli(self, label: str, argv: list[str]):
        """One in-process ``envgnn`` command: (exit code or error, wall seconds)."""
        if self.tracer is not None:
            self.tracer.begin_run(label)
        # Start each command without the previous one's cyclic garbage (tape
        # closures form cycles), as a fresh process would: otherwise peak
        # memory and GC pauses depend on how many commands ran before.
        gc.collect()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash fails the command, not the run
                rc = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        if rc != 0:
            rc = f"{rc} ({buf.getvalue().strip()[-300:]})"
        return rc, wall

    def train(self, arm: str) -> dict | None:
        """``envgnn train`` for one arm; returns its run.json."""
        w = self.workload
        out = os.path.join(self.work, arm)
        argv = (["train", "--data", self.data, "--out", out, "--force",
                 "--seed", str(self.seed), "--backbone", w["backbone"],
                 "--epochs", str(w["epochs"])] + spec.MODEL_FLAGS + spec.ARM_FLAGS[arm])
        rc, wall = self.cli(arm, argv)
        if not self.check(rc == 0, f"{arm}: envgnn train exited {rc}"):
            return None
        with open(os.path.join(out, "run.json")) as fh:
            run = json.load(fh)
        with open(os.path.join(out, "checkpoint.json"), "rb") as fh:
            ckpt = fh.read()
        history = run["history"]
        seconds = [row["seconds"] for row in history]
        self.check(len(history) == w["epochs"] and all(
            math.isfinite(row[k]) for row in history for k in ("loss", "supervised", "regularizer")),
            f"{arm}: {len(history)} epochs or a non-finite loss in run.json")
        self.check(sum(seconds) <= wall,
                   f"{arm}: epoch seconds sum {sum(seconds):.4f} > wall {wall:.4f}")
        fields = run_fields(run)
        if arm in self.reference:
            self.check(self.reference[arm] == (fields, ckpt),
                       f"{arm}: run.json metric fields or checkpoint bytes differ between runs")
        else:
            self.reference[arm] = (fields, ckpt)
        self.samples.train_s[arm].append(wall)
        self.samples.epoch_ms[arm] += [1000.0 * x for x in seconds]
        self.ood[arm] = run["final"]["ood_mean"]
        return run

    def eval(self, checkpoint: str, expected: dict):
        """One ``envgnn eval`` request; its metrics.json must equal ``expected``."""
        out = os.path.join(self.work, "eval")
        rc, wall = self.cli("eval", ["eval", "--data", self.data, "--checkpoint", checkpoint,
                                     "--out", out, "--force"])
        if not self.check(rc == 0, f"eval: envgnn eval exited {rc}"):
            return
        self.samples.eval_ms.append(1000.0 * wall)
        with open(os.path.join(out, "metrics.json")) as fh:
            got = json.load(fh)
        self.check(got == expected, "eval: metrics.json differs from the in-memory eval_report")

    def train_pair(self):
        """The unit of a train workload: both arms back to back, then eval
        requests on the canet checkpoint just written."""
        run = self.train("canet")
        self.train("erm")
        if run is not None:
            ckpt = os.path.join(self.work, "canet", "checkpoint.json")
            for _ in range(self.workload["evals_per_pair"]):
                self.eval(ckpt, run["final"])


def run_fields(run: dict) -> str:
    """run.json without wall-clock fields, as ACCEPT-10 compares it."""
    run = json.loads(json.dumps(run))
    for row in run["history"]:
        row.pop("seconds", None)
    return json.dumps(run, sort_keys=True)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_child(workload: dict, seed: int, work: str) -> int:
    """Child-process set-up: generate the dataset and, for eval-ood, train the
    checkpoint pair it serves. Writes ``setup.json`` into ``work``."""
    s = Session(workload, seed, work)
    rc, _ = s.cli("gen-data", ["gen-data", "--out", s.data, "--seed", str(seed)]
                  + spec.DATA_FLAGS)
    if s.check(rc == 0, f"gen-data exited {rc}") and workload["kind"] == "eval":
        for arm in spec.ARM_FLAGS:
            s.train(arm)
    with open(os.path.join(work, "setup.json"), "w") as fh:
        json.dump({"attempted": s.attempted, "failed": s.failed, "failures": s.failures,
                   "samples": s.samples.to_dict(), "ood": s.ood}, fh)
    return 0


def run_setup_child(session: Session, run_py: str):
    w = session.workload
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", w["name"], "--seed", str(session.seed),
         "--setup-child", session.work],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=170)
    path = os.path.join(session.work, "setup.json")
    if proc.returncode != 0 or not os.path.exists(path):
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stdout[-2000:]}")
    with open(path) as fh:
        done = json.load(fh)
    session.attempted += done["attempted"]
    session.failed += done["failed"]
    session.failures += done["failures"]
    session.samples.merge(done["samples"])
    session.ood.update(done["ood"])
    if done["failed"]:
        raise RuntimeError(f"set-up failed: {done['failures']}")


def time_setup(session: Session) -> tuple[list[float], dict]:
    """``setup_s`` samples: load the dataset and prepare the ID union, as the
    first thing a train or eval command does. Also returns the union's size."""
    cfg = TrainConfig(backbone=session.workload["backbone"], hidden=spec.HIDDEN,
                      num_branches=spec.BRANCHES, num_layers=spec.LAYERS, exact_kl=True,
                      deterministic_eval=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ds = load_dataset(session.data)
        gt = prepare_graph(disjoint_union(ds.id_graphs), cfg)
        times.append(time.perf_counter() - t0)
    return times, {"nodes": gt.n, "stored_edges": gt.stored_edges}


# ---------------------------------------------------------------------------
# the measured part
# ---------------------------------------------------------------------------


def measured_unit(session: Session):
    """The workload's unit of measured work and the fewest units a run makes."""
    if session.workload["kind"] == "train":
        return session.train_pair, MIN_TRAIN_PAIRS
    ckpt = os.path.join(session.work, "canet", "checkpoint.json")
    params, cfg = cli.load_checkpoint(ckpt)
    expected = json.loads(json.dumps(eval_report(params, load_dataset(session.data),
                                                 cfg).to_dict()))
    return (lambda: session.eval(ckpt, expected)), MIN_EVAL_REQUESTS


def end_to_end(samples: Samples, setup: list[float], rss_mb: float) -> tuple[dict, dict]:
    """Metric values, and per metric its sample count and tail percentile."""
    values, detail = {"setup_s": statistics.median(setup)}, {"setup_s": {"n": len(setup)}}

    def timing(prefix, xs):
        if not xs:
            return
        values[f"{prefix}_p50"] = statistics.median(xs)
        values[f"{prefix}_tail"], pct, n = tail(xs)
        detail[f"{prefix}_p50"] = {"n": n}
        detail[f"{prefix}_tail"] = {"n": n, "percentile": round(pct, 2)}

    for arm in spec.ARM_FLAGS:
        if samples.train_s[arm]:
            values[f"{arm}_train_s"] = statistics.median(samples.train_s[arm])
            detail[f"{arm}_train_s"] = {"n": len(samples.train_s[arm])}
        timing(f"{arm}_epoch_ms", samples.epoch_ms[arm])
    timing("eval_ms", samples.eval_ms)
    values["peak_rss_mb"] = rss_mb
    return values, detail


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def layer_values(agg: dict, arms: set, per: float) -> dict:
    """Per-layer values of the spans of ``arms``, divided by ``per``."""
    def total(names, field):
        return sum(rec[field] for (arm, name), rec in agg.items() if arm in arms and name in names)

    ops = sorted(set(spec.OPS) | {name[len("autodiff.op."):] for _arm, name in agg
                                  if name.startswith("autodiff.op.") and not name.endswith(".bwd")})
    out = {}
    for op in ops:
        span = f"autodiff.op.{op}"
        out[f"{span}.fwd_ms"] = 1000.0 * total({span}, 1) / per
        out[f"{span}.bwd_ms"] = 1000.0 * total({span + ".bwd"}, 1) / per
        out[f"{span}.calls"] = total({span}, 0) / per
    for metric, names in spec.SPAN_METRICS.items():
        out[metric] = 1000.0 * total(set(names), 1) / per
    return out


def step_counts(session: Session, tracer: tracing.Tracer, graph: dict) -> dict:
    """Per-step counts of each arm; each must repeat exactly across steps and
    commands, and edge touches must equal L*K*stored edges."""
    stored = graph["stored_edges"]
    expected_edges = {
        "canet": spec.LAYERS * spec.BRANCHES * stored,
        # erm: one propagation per layer; the GCN operand carries self loops
        "erm": spec.LAYERS * (stored + graph["nodes"] if session.workload["backbone"] == "gcn"
                              else stored),
    }
    out = {}
    for arm in spec.ARM_FLAGS:
        steps = [step for run, label in enumerate(tracer.arms) if label == arm
                 for step in tracer.steps[run]]
        if not steps:
            continue
        distinct = {json.dumps(step, sort_keys=True) for step in steps}
        session.check(len(distinct) == 1, f"{arm}: per-step counts differ between steps: {distinct}")
        first = steps[0]
        session.check(first["edge_touches"] == expected_edges[arm],
                      f"{arm}: {first['edge_touches']} edge touches per step, "
                      f"L*K*stored is {expected_edges[arm]}")
        out[arm] = {"autodiff.nodes_per_step": first.get("nodes", 0),
                    "autodiff.edge_touches_per_step": first["edge_touches"],
                    "rng.draws_per_step": first["draws"]}
    return out


def traced_run(session: Session, seconds: float, graph: dict, trace_path: str) -> tuple[dict, dict]:
    """Alternate untraced and traced units after a warm-up unit, so that the
    tracing overhead is measured under the same machine load; per-layer
    numbers come from the traced units only."""
    work_unit, min_units = measured_unit(session)
    if session.workload["kind"] == "train":
        min_units = 1
    work_unit()
    tracer = tracing.Tracer()
    plain, traced = Samples(), Samples()

    def both():
        session.samples = plain
        work_unit()
        before = tracing.snapshot()
        session.samples, session.tracer = traced, tracer
        try:
            with tracing.instrument(tracer):
                work_unit()
        finally:
            session.tracer = None
        session.check(tracing.snapshot() == before, "trace: a wrapped attribute was not restored")

    units = repeat(both, seconds, min_units)
    session.samples = plain
    tracer.write(trace_path)

    agg = tracing.aggregate(tracer.spans, tracer.arms)
    counts = step_counts(session, tracer, graph)
    metrics = layer_values(agg, set(tracer.arms), units)
    metrics.update({name: counts.get("canet", {}).get(name, 0) for name in spec.COUNT_METRICS})

    commands = Counter(tracer.arms)
    units_of = dict(spec.per_layer())
    labelled = []
    for arm, n in sorted(commands.items()):
        values = layer_values(agg, {arm}, n)
        values.update(counts.get(arm, {}))
        labelled += [{"name": k, "arm": arm, "value": v,
                      "unit": units_of.get(k, "count" if k.endswith(".calls") else "ms")}
                     for k, v in sorted(values.items())]
    self_ms = {}
    for (arm, name), (_calls, _incl, own) in agg.items():
        if arm not in commands:
            continue
        layer = name.split(".")[0]
        by_arm = self_ms.setdefault(arm, {})
        by_arm[layer] = by_arm.get(layer, 0.0) + 1000.0 * own / commands[arm]

    shares = {arm: {layer: ms / sum(by_arm.values()) for layer, ms in by_arm.items()}
              for arm, by_arm in self_ms.items()}
    detail = {"units": units, "commands": dict(commands), "spans": len(tracer.spans),
              "layer_self_ms_per_command": self_ms, "layer_self_share": shares,
              "labelled": labelled,
              "overhead": overhead(plain, traced), "trace_file": trace_path}
    train_spans = [(incl, own) for (arm, name), (_c, incl, own) in agg.items()
                   if name == "trainer.train"]
    if train_spans:
        covered = 1.0 - sum(o for _i, o in train_spans) / sum(i for i, _o in train_spans)
        detail["train_coverage"] = covered
        session.check(covered >= COVERAGE_FLOOR,
                      f"trace: layer spans cover {covered:.3f} of traced train commands")
    return metrics, detail


def overhead(plain: Samples, traced: Samples) -> dict:
    """Traced median over untraced median, minus one, per timed quantity."""
    pairs = {f"{arm}_epoch_ms_p50": (plain.epoch_ms[arm], traced.epoch_ms[arm])
             for arm in spec.ARM_FLAGS}
    pairs["eval_ms_p50"] = (plain.eval_ms, traced.eval_ms)
    return {k: statistics.median(t) / statistics.median(p) - 1.0
            for k, (p, t) in pairs.items() if p and t}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None if unknown."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def source_hash(src: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "envgnn", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
        "source_sha256": source_hash(os.path.join(root, "src")),
    }


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def main(args, root: str, run_py: str) -> int:
    w = spec.workload(args.workload)
    out_dir = os.path.join(root, ".perfbench")
    if args.setup_child:
        return setup_child(w, args.seed, args.setup_child)

    work = os.path.join(out_dir, f"work-{w['name']}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        session = Session(w, args.seed, work)
        run_setup_child(session, run_py)
        setup, graph = time_setup(session)
        detail = {"workload": w["name"], "seed": args.seed, "trace": args.trace,
                  "environment": environment(root)}
        if args.trace:
            trace_path = os.path.join(out_dir, f"trace-{w['name']}-seed{args.seed}.json")
            metrics, detail["traced"] = traced_run(session, args.seconds, graph, trace_path)
            metric_units = dict(spec.per_layer())
        else:
            work_unit, min_units = measured_unit(session)
            detail["units"] = repeat(work_unit, args.seconds, min_units)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, detail["samples"] = end_to_end(session.samples, setup, rss_mb)
            metric_units = {name: unit for name, unit, _bound in spec.END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(metric_units) - set(metrics))
    session.check(not missing, f"metrics not measured: {missing}")
    # End-to-end figures kept out of BENCHMARK.json: fail_ratio is 0 when all
    # is well, and OOD accuracy swings far beyond any bound from seed to seed.
    unbounded = {f"{arm}_ood_acc": {"value": acc, "unit": "accuracy"}
                 for arm, acc in session.ood.items()}
    unbounded["fail_ratio"] = {"value": session.failed / session.attempted, "unit": "ratio"}
    detail.update({"unbounded": unbounded, "failures": session.failures})
    print(json.dumps({"perfbench": "detail", **detail}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in metric_units.items()},
    }))
    return 0
