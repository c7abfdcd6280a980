"""What the envgnn benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` at the repository root.
Regenerate that file after editing anything here:

    python3 perfbench/spec.py --write

and check that it is current with ``python3 perfbench/spec.py --check``.
"""

from __future__ import annotations

import json
import os
import sys

RUN_SECONDS = 30

# Shared by every workload: the planted-shift shape of ACCEPT-06 and the model
# shape of the README workflow. The epoch budget is fixed; there is no patience.
DATA_FLAGS = ["--kind", "planted", "--n-per-domain", "1000", "--stable-noise", "0.5"]
HIDDEN, BRANCHES, LAYERS = 32, 3, 2
MODEL_FLAGS = ["--hidden", str(HIDDEN), "--branches", str(BRANCHES), "--layers", str(LAYERS)]
ARM_FLAGS = {
    "canet": ["--exact-kl", "--deterministic-eval"],
    "erm": ["--method", "erm"],
}

# A train workload repeats a unit of one canet and one erm train command with
# ``epochs`` epochs, then ``evals_per_pair`` eval requests on the canet
# checkpoint; a run makes at least three units, so that every timing has over
# 20 samples and its tail lies above its median. The eval workload trains its
# canet and erm checkpoints once, in the set-up process, then only serves
# eval requests.
WORKLOADS = [
    {
        "name": "train-gcn",
        "kind": "train",
        "backbone": "gcn",
        "epochs": 40,
        "evals_per_pair": 7,
        "why": "GCN canet+erm pairs: canet is small dense ops and tape overhead (~178 vs "
               "~35 primitive calls/epoch), so branch vectorization shows; no edge ops. "
               "Tails: epoch p95/~220, eval p71/~35",
    },
    {
        "name": "train-gat",
        "kind": "train",
        "backbone": "gat",
        "epochs": 7,
        "evals_per_pair": 7,
        "why": "GAT canet+erm pairs: edge_combine and other np.add.at scatters dominate, "
               "so CSR/reduceat edge-op work shows; erm has edge ops without the branch "
               "loop. Tails: epoch p64/28, eval p64/28",
    },
    {
        "name": "eval-ood",
        "kind": "eval",
        "backbone": "gcn",
        "epochs": 40,
        "why": "closed loop, 1 client: envgnn eval of a GCN canet checkpoint on ID test "
               "+ 3 OOD graphs; TSV parsing, checkpoint load, prepare_graph, forward "
               "without backward. Tail: p94/~165",
    },
]

END_TO_END = [
    # name, unit, bound: the share of the parent's median a metric may worsen
    # by. All get the widest bound allowed. On a shared 2-vCPU VM a fixed
    # numpy kernel's speed drifted by up to ~80% between 3 s windows, and
    # whole-run medians spread by up to ~40% (see perfbench/README.md).
    # Peak memory of GAT runs is bimodal across seeds (~660 or ~718 MB),
    # depending on when the cyclic garbage collector frees old tapes.
    ("setup_s", "s", 0.25),
    ("canet_train_s", "s", 0.25),
    ("erm_train_s", "s", 0.25),
    ("canet_epoch_ms_p50", "ms", 0.25),
    ("canet_epoch_ms_tail", "ms", 0.25),
    ("erm_epoch_ms_p50", "ms", 0.25),
    ("erm_epoch_ms_tail", "ms", 0.25),
    ("eval_ms_p50", "ms", 0.25),
    ("eval_ms_tail", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.25),
]

# Tape primitives timed per op: forward self time, backward-closure time and
# forward calls. Primitives outside this list are still traced and appear in
# the labelled per-arm records.
OPS = (
    "matmul", "spmm", "add", "mul", "column", "transpose",
    "edge_combine", "gather_rows", "segment_sum", "leaky_relu", "exp", "div",
    "row_softmax", "row_log_softmax", "relu", "dropout", "cross_entropy",
    "masked_row_mean",
)

# per-layer metric -> traced spans whose inclusive time it sums
SPAN_METRICS = {
    "autodiff.backward_ms": ("autodiff.backward",),
    "model.forward_ms": ("model.forward",),
    "model.estimator_ms": ("model.env_probs",),
    "model.gate_ms": ("model.gumbel_sample",),
    "model.branch_ms": ("model.moe_gcn_preact", "model.moe_gat_preact"),
    "model.prepare_graph_ms": ("model.prepare_graph",),
    "model.init_params_ms": ("model.init_params",),
    "trainer.eval_forward_ms": ("trainer._eval_forward",),
    "trainer.loss_ms": ("trainer.total_loss",),
    "trainer.eval_report_ms": ("trainer.eval_report",),
    "optim.adam_ms": ("optim.adam_step",),
    "metrics.score_ms": ("metrics.score_split",),
    "graphdata.load_dataset_ms": ("graphdata.load_dataset",),
    "graphdata.build_norm_adj_ms": ("graphdata.build_norm_adj",),
    "graphdata.manifest_hash_ms": ("graphdata.dataset_manifest_hash",),
    "sparse.from_coo_ms": ("sparse.from_coo",),
    "cli.load_checkpoint_ms": ("cli.load_checkpoint",),
    "cli.save_checkpoint_ms": ("cli.save_checkpoint",),
}

# counts per training step of the canet arm; they repeat exactly at a seed
COUNT_METRICS = (
    "autodiff.nodes_per_step",
    "autodiff.edge_touches_per_step",
    "rng.draws_per_step",
)


def per_layer() -> list[tuple[str, str]]:
    out = []
    for op in OPS:
        out += [(f"autodiff.op.{op}.fwd_ms", "ms"), (f"autodiff.op.{op}.bwd_ms", "ms"),
                (f"autodiff.op.{op}.calls", "count")]
    out += [(name, "ms") for name in SPAN_METRICS]
    out += [(name, "count") for name in COUNT_METRICS]
    return out


def workload(name: str) -> dict:
    for w in WORKLOADS:
        if w["name"] == name:
            return w
    raise KeyError(name)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in per_layer()],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def main(argv: list[str]) -> int:
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    if argv == ["--write"]:
        with open(path, "w") as fh:
            fh.write(render())
        return 0
    if argv == ["--check"]:
        with open(path) as fh:
            current = fh.read()
        if current != render():
            print(f"{path} is stale; run: python3 perfbench/spec.py --write", file=sys.stderr)
            return 1
        return 0
    sys.stdout.write(render())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
