"""Training loop: supervised loss plus the pseudo-environment regularizer.

One optimizer step per epoch on the full (disjoint-union) ID graph, best
checkpoint selected by the validation metric within a fixed epoch budget,
final metrics on the ID test split and every OOD group. ``regularizer`` is
the KL of the layer posteriors to the uniform prior, in closed form or as its
Monte-Carlo estimate; ``total_loss`` adds it unless the run has no learned
posterior or turns the term off.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, Tensor, constant
from .config import TrainConfig
from .graphdata import Dataset, Graph
from .metrics import MetricsReport, score_split
from .model import ForwardOutput, GraphTensors, ParamSet, forward, init_params, prepare_graph
from .optim import AdamState, adam_step
from .rng import STREAM_DROPOUT, STREAM_EVAL, STREAM_GUMBEL, STREAM_INIT, Rng


class TrainAbort(RuntimeError):
    """Training hit a non-finite loss; diagnostics attached."""

    def __init__(self, epoch: int, detail: str):
        super().__init__(f"non-finite loss at epoch {epoch}: {detail}")
        self.epoch = epoch


# ---------------------------------------------------------------------------
# objective terms
# ---------------------------------------------------------------------------


def regularizer(posterior, rows, num_branches: int, exact: bool) -> Tensor:
    """KL of each layer's posterior to the uniform prior, averaged over layers.

    ``exact`` takes the closed form, the mean over rows of
    sum_k pi log pi + log K. Otherwise it is the Monte-Carlo form, the mean
    over rows of sum_k (e log pi + e log K), differentiable through both e
    and pi.
    """
    log_k = float(np.log(num_branches))
    total = None
    for layer in posterior:
        if exact:
            contrib = ad.add(ad.masked_row_mean(ad.mul(layer.pi, layer.log_pi), rows),
                             constant(log_k))
        else:
            term = ad.add(ad.mul(layer.e, layer.log_pi), ad.scale(layer.e, log_k))
            contrib = ad.masked_row_mean(term, rows)
        total = contrib if total is None else ad.add(total, contrib)
    return ad.scale(total, 1.0 / len(posterior))


def kl_exact_rows(pi: np.ndarray) -> np.ndarray:
    """Per-row KL(pi || uniform) for plain arrays (diagnostics and tests)."""
    pi = np.asarray(pi, dtype=np.float64)
    k = pi.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(pi > 0, pi * np.log(pi), 0.0)
    return term.sum(axis=-1) + np.log(k)


def total_loss(output: ForwardOutput, labels, rows, cfg: TrainConfig
               ) -> tuple[Tensor, float, float]:
    """Supervised term plus weighted regularizer; returns term values too."""
    sup = ad.cross_entropy(output.logits, labels, rows)
    if output.posterior is None or cfg.reg_weight == 0.0 or cfg.mean_pool_env:
        return sup, float(sup.value), 0.0
    reg = regularizer(output.posterior, rows, cfg.num_branches, cfg.exact_kl)
    loss = ad.add(sup, ad.scale(reg, cfg.reg_weight))
    return loss, float(sup.value), float(reg.value)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def disjoint_union(graphs: list[Graph]) -> Graph:
    """Pool ID graphs into one block-diagonal graph (no cross edges)."""
    if len(graphs) == 1:
        return graphs[0]
    offsets, total = [], 0
    for g in graphs:
        offsets.append(total)
        total += g.n
    feats = np.vstack([g.features for g in graphs])
    labels = np.concatenate([g.labels for g in graphs])
    edges = np.vstack([g.edges + off for g, off in zip(graphs, offsets)])
    return Graph(total, feats, labels, edges, graphs[0].num_classes)


@dataclass
class TrainResult:
    config: dict
    seed: int
    history: list = field(default_factory=list)
    selected_epoch: int = -1
    best_valid: float = float("-inf")
    params: ParamSet = None  # holds the selected epoch's values
    final: dict = None

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "selected_epoch": self.selected_epoch,
            "best_valid": self.best_valid,
            "history": self.history,
            "final": self.final,
        }


def _eval_forward(gt: GraphTensors, params: ParamSet) -> np.ndarray:
    """Deterministic evaluation pass: the eval sub-stream of the model's
    seed, dropout off. The forward builds no tape, so once it returns only
    the logits array it hands back stays resident."""
    root = Rng(params.cfg.seed)
    out = forward(gt, params,
                  gumbel_rng=root.substream(STREAM_EVAL),
                  dropout_rng=root.substream(STREAM_EVAL).substream(1),
                  training=False)
    return out.logits.value


def train(dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train on the union of the ID graphs and keep the best validation epoch.

    Each epoch is one full-graph optimizer step followed by an eval forward
    that scores it. The step's output, loss and gradients are released
    before the eval forward, which builds no tape, so the step's tape is the
    only one ever resident.
    """
    union = disjoint_union(dataset.id_graphs)
    gt = prepare_graph(union, cfg)
    labels = union.labels
    split = dataset.split
    metric = dataset.metric
    c = dataset.num_classes

    root = Rng(cfg.seed)
    params = init_params(cfg, union.num_features, c, root.substream(STREAM_INIT))
    gumbel_rng = root.substream(STREAM_GUMBEL)
    dropout_rng = root.substream(STREAM_DROPOUT)

    state = AdamState(params.tensors)

    result = TrainResult(config=cfg.to_dict(), seed=cfg.seed)
    best_values = params.values()
    result.selected_epoch = 0

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        try:
            out = forward(gt, params, gumbel_rng, dropout_rng, training=True)
            loss, sup_val, reg_val = total_loss(out, labels, split.train, cfg)
            grads = ad.backward(loss, params.tensors)
            adam_step(params.tensors, grads, state, cfg.lr, cfg.weight_decay)
            loss_val = float(loss.value)
            # the step's tape is released before the eval forward runs
            del out, loss, grads
            logits = _eval_forward(gt, params)
        except NumericError as exc:
            raise TrainAbort(epoch, str(exc)) from exc
        rec = {
            "epoch": epoch,
            "loss": loss_val,
            "supervised": sup_val,
            "regularizer": reg_val,
            "train_metric": score_split(logits, labels, split.train, metric, c),
            "valid_metric": score_split(logits, labels, split.valid, metric, c),
            "test_id_metric": score_split(logits, labels, split.test_id, metric, c),
            "seconds": time.perf_counter() - t0,
        }
        result.history.append(rec)
        if rec["valid_metric"] > result.best_valid:
            result.best_valid = rec["valid_metric"]
            result.selected_epoch = epoch
            best_values = params.values()

    params.load_values(best_values)
    result.params = params
    report = eval_report(params, dataset, cfg)
    result.final = report.to_dict()
    return result


def eval_report(params: ParamSet, dataset: Dataset, cfg: TrainConfig) -> MetricsReport:
    """Metric on the ID test split and each OOD group with the given params."""
    metric = dataset.metric
    c = dataset.num_classes
    report = MetricsReport(metric=metric)

    union = disjoint_union(dataset.id_graphs)
    gt = prepare_graph(union, cfg)
    logits = _eval_forward(gt, params)
    report.add("test_id", score_split(logits, union.labels, dataset.split.test_id, metric, c),
               len(dataset.split.test_id))

    for i, g in enumerate(dataset.ood_graphs, start=1):
        ogt = prepare_graph(g, cfg)
        ologits = _eval_forward(ogt, params)
        report.add(f"ood_{i}", score_split(ologits, g.labels, np.arange(g.n), metric, c), g.n)
    return report


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def sweep(dataset: Dataset, grid: dict[str, list], seeds: list[int],
          base: TrainConfig | None = None) -> tuple[TrainConfig, list[dict]]:
    """Exhaustive grid evaluation; best = highest mean validation metric.

    Runs are independent; results are merged in sorted-key order so the
    outcome does not depend on execution order.
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ValueError("grid must be nonempty")
    if "seed" in grid:
        raise ValueError("'seed' is not a grid key: the seeds argument lists the seeds")
    base = base or TrainConfig()
    keys = sorted(grid)
    combos = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    # every configuration is built, and so validated, before the first one trains
    cfgs = [[TrainConfig.from_dict({**base.to_dict(), **overrides, "seed": seed})
             for seed in seeds] for overrides in combos]
    results, means = [], {}
    for overrides, runs in zip(combos, cfgs):
        valid_scores = []
        for cfg in runs:
            res = train(dataset, cfg)
            valid_scores.append(res.best_valid)
            results.append({
                "overrides": overrides,
                "seed": cfg.seed,
                "best_valid": res.best_valid,
                "selected_epoch": res.selected_epoch,
                "final": res.final,
            })
        means[tuple(overrides.items())] = results[-1]["mean_valid"] = float(np.mean(valid_scores))
    # pick by mean validation metric across seeds; a tie goes to the first
    # combination in value order
    best_key = max(sorted(means), key=means.get)
    best_cfg = TrainConfig.from_dict({**base.to_dict(), **dict(best_key)})
    return best_cfg, results
