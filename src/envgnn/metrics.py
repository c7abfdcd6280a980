"""Evaluation metrics: accuracy, macro F1, binary ROC-AUC, and report assembly."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np


METRICS = ("accuracy", "macro_f1", "roc_auc")


class UndefinedMetricError(ValueError):
    """The metric is not defined for this input (e.g. single-class AUC)."""


def accuracy(pred, true) -> float:
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape or pred.size == 0:
        raise ValueError("accuracy needs equal-length, nonempty inputs")
    return float((pred == true).mean())


def macro_f1(pred, true, num_classes: int) -> float:
    """Unweighted mean of per-class F1.

    A class absent from both predictions and truth contributes F1 = 0; this
    convention keeps the score conservative on splits missing a class.
    """
    pred = np.asarray(pred, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    if pred.size == 0 or pred.shape != true.shape:
        raise ValueError("macro_f1 needs equal-length, nonempty inputs")
    if min(pred.min(), true.min()) < 0 or max(pred.max(), true.max()) >= num_classes:
        raise ValueError("labels out of range")
    scores = []
    for c in range(num_classes):
        tp = int(((pred == c) & (true == c)).sum())
        fp = int(((pred == c) & (true != c)).sum())
        fn = int(((pred != c) & (true == c)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def roc_auc(scores, true) -> float:
    """P(random positive outranks random negative), ties credited 1/2.

    Mann-Whitney form via average ranks; binary labels only.
    """
    scores = np.asarray(scores, dtype=np.float64)
    true = np.asarray(true, dtype=np.int64)
    if scores.shape != true.shape or scores.size == 0:
        raise ValueError("roc_auc needs equal-length, nonempty inputs")
    n_pos = int((true == 1).sum())
    n_neg = int((true == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes present")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # a run of equal sorted scores spans [bounds[g], bounds[g + 1]), 0-based;
    # its members share the average 1-based rank of that span
    starts = np.r_[True, sorted_scores[1:] != sorted_scores[:-1]]
    bounds = np.r_[np.flatnonzero(starts), len(scores)]
    run = np.cumsum(starts) - 1
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = 0.5 * (bounds[run] + bounds[run + 1] + 1)
    rank_sum_pos = ranks[true == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def score_split(logits: np.ndarray, labels: np.ndarray, idx, metric: str,
                num_classes: int) -> float:
    """Apply the dataset's declared metric, one of ``METRICS``, to one node subset."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    idx = np.asarray(idx, dtype=np.int64)
    pred = logits[idx].argmax(axis=1)
    true = labels[idx]
    if metric == "accuracy":
        return accuracy(pred, true)
    if metric == "macro_f1":
        return macro_f1(pred, true, num_classes)
    if num_classes != 2:
        raise UndefinedMetricError("roc_auc supports binary tasks only")
    z = logits[idx] - logits[idx].max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return roc_auc(p[:, 1], true)


@dataclass
class MetricsReport:
    metric: str
    entries: list = field(default_factory=list)  # {"split", "value", "count"}

    def add(self, split: str, value: float, count: int):
        self.entries.append({"split": split, "value": float(value), "count": int(count)})

    @property
    def ood_mean(self) -> float | None:
        """Mean over the OOD entries; ``None`` (JSON null) when there is none."""
        vals = [e["value"] for e in self.entries if e["split"].startswith("ood")]
        return float(np.mean(vals)) if vals else None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ood_mean"] = self.ood_mean
        return d
