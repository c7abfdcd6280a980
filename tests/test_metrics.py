"""Metric tests: hand-counted fixtures, brute-force oracles, invariances."""

import json

import numpy as np
import pytest

from envgnn.metrics import (
    MetricsReport,
    UndefinedMetricError,
    accuracy,
    macro_f1,
    roc_auc,
    score_split,
)
from envgnn.rng import Rng


# ---------------------------------------------------------------------------
# brute-force oracles
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


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------


def test_accuracy_all_correct():
    assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0


def test_accuracy_all_wrong():
    assert accuracy([0, 0], [1, 1]) == 0.0


def test_accuracy_hand_count():
    assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75


def test_accuracy_rejects_empty_or_mismatched():
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([0, 1], [0])


# ---------------------------------------------------------------------------
# macro F1
# ---------------------------------------------------------------------------


def test_macro_f1_perfect():
    assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0


def test_macro_f1_hand_fixture():
    # class 0: tp=1 fp=0 fn=1 -> 2/3; class 1: tp=2 fp=1 fn=0 -> 4/5
    val = macro_f1([0, 1, 1, 1], [0, 0, 1, 1], 2)
    assert abs(val - (2 / 3 + 4 / 5) / 2) <= 1e-12
    assert round(val, 5) == 0.73333


def test_macro_f1_absent_class_scores_zero():
    # class 2 never appears: contributes 0 to the mean
    assert macro_f1([0, 1], [0, 1], 3) == pytest.approx(2 / 3, abs=1e-12)


def test_macro_f1_label_range_check():
    with pytest.raises(ValueError):
        macro_f1([0, 3], [0, 1], 3)


# ---------------------------------------------------------------------------
# ROC-AUC
# ---------------------------------------------------------------------------


def test_roc_auc_perfect_separation():
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_roc_auc_hand_fixture():
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_roc_auc_all_ties_half():
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_roc_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.1, 0.9], [1, 1])


def test_roc_auc_monotone_invariance():
    rng = Rng(80)
    s = rng.normal((200,))
    y = rng.integers(0, 2, 200)
    base = roc_auc(s, y)
    for f in (lambda x: 3 * x + 7, np.tanh, lambda x: np.exp(x / 4)):
        assert roc_auc(f(s), y) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# randomized agreement with the brute-force oracles
# ---------------------------------------------------------------------------


def test_metrics_match_brute_force_on_random_instances():
    rng = Rng(81)
    for trial in range(200):
        c = int(rng.integers(2, 6, ()))
        n = int(rng.integers(2, 51, ()))
        pred = rng.integers(0, c, n)
        true = rng.integers(0, c, n)
        assert abs(accuracy(pred, true) - brute_accuracy(pred, true)) <= 1e-12
        assert abs(macro_f1(pred, true, c) - brute_macro_f1(pred, true, c)) <= 1e-12


def test_roc_auc_matches_pairwise_oracle():
    rng = Rng(82)
    trials = 0
    while trials < 100:
        n = int(rng.integers(4, 40, ()))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            continue
        # quantized scores force tie handling through the rank path
        s = np.round(rng.normal((n,)), 1)
        assert abs(roc_auc(s, y) - brute_roc_auc(s, y)) <= 1e-12
        trials += 1


# ---------------------------------------------------------------------------
# score_split and reports
# ---------------------------------------------------------------------------


def test_score_split_accuracy_argmax():
    logits = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 0.0]])
    assert score_split(logits, np.array([0, 1, 1]), [0, 1, 2], "accuracy", 2) == pytest.approx(2 / 3)


def test_score_split_roc_auc_binary_only():
    logits = Rng(83).normal((6, 3))
    with pytest.raises(UndefinedMetricError):
        score_split(logits, np.array([0, 1, 2, 0, 1, 2]), np.arange(6), "roc_auc", 3)


def test_score_split_unknown_metric():
    with pytest.raises(ValueError):
        score_split(np.zeros((2, 2)), np.zeros(2, dtype=int), [0, 1], "rmse", 2)


def test_metrics_report():
    rep = MetricsReport(metric="accuracy")
    rep.add("test_id", 0.9, 100)
    rep.add("ood_1", 0.5, 40)
    rep.add("ood_2", 0.7, 40)
    assert [(e["split"], e["value"]) for e in rep.entries] == [
        ("test_id", 0.9), ("ood_1", 0.5), ("ood_2", 0.7)]
    assert rep.ood_mean == pytest.approx(0.6)
    d = rep.to_dict()
    assert d["ood_mean"] == pytest.approx(0.6)
    assert len(d["entries"]) == 3


def test_metrics_report_without_ood_entries_has_null_mean():
    rep = MetricsReport(metric="accuracy")
    rep.add("test_id", 0.9, 100)
    assert rep.ood_mean is None
    assert json.loads(json.dumps(rep.to_dict(), allow_nan=False))["ood_mean"] is None


def test_metric_values_in_unit_interval():
    rng = Rng(84)
    for _ in range(50):
        n = int(rng.integers(2, 30, ()))
        c = int(rng.integers(2, 5, ()))
        pred = rng.integers(0, c, n)
        true = rng.integers(0, c, n)
        assert 0.0 <= accuracy(pred, true) <= 1.0
        assert 0.0 <= macro_f1(pred, true, c) <= 1.0
