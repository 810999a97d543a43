"""Anomaly scoring and evaluation: confusion counts, FE, ME, AUROC, AUPR.

Scores are "higher = more anomalous"; labels are binary with 1 = anomaly.
FE(%) = FP/(TP+FP) * 100 and ME(%) = FN/(TP+FN) * 100. AUROC uses the
rank-based estimator with half credit for ties; AUPR is the step-wise
average-precision sum over distinct score thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractError, DegenerateInputError, UndefinedMetricError


@dataclass(frozen=True)
class ScoredSet:
    """Anomaly scores with ground-truth binary labels (1 = anomaly)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if scores.ndim != 1 or scores.shape != labels.shape:
            raise ContractError(
                f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors"
            )
        if scores.size == 0:
            raise DegenerateInputError("empty scored set")
        if not np.all((labels == 0) | (labels == 1)):
            raise ContractError("labels must be binary (1 = anomaly)")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    @property
    def n_anomalies(self) -> int:
        return int(self.labels.sum())

    @property
    def n_normals(self) -> int:
        return int(self.labels.size - self.labels.sum())


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be non-negative")


def max_prob_scores(class_probs: np.ndarray) -> np.ndarray:
    """1 - max class probability, rowwise for a (B, C) probability matrix:
    low confidence in every class = anomalous."""
    return 1.0 - np.asarray(class_probs, dtype=np.float64).max(axis=-1)


def centroid_distance_scores(class_probs: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Euclidean distance of each probability row from a reference centroid."""
    diff = np.asarray(class_probs, dtype=np.float64) - np.asarray(centroid, dtype=np.float64)
    return np.linalg.norm(diff, axis=-1)


def confusion(scored: ScoredSet, threshold: float) -> ConfusionCounts:
    """Counts under the rule: score >= threshold predicts anomaly."""
    predicted = scored.scores >= threshold
    actual = scored.labels == 1
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    tn = int(np.sum(~predicted & ~actual))
    return ConfusionCounts(tp, fp, fn, tn)


def fe(counts: ConfusionCounts) -> float:
    """False error: FP / (TP + FP) * 100."""
    denom = counts.tp + counts.fp
    if denom == 0:
        raise UndefinedMetricError("FE undefined: no predicted anomalies (TP + FP = 0)")
    return 100.0 * counts.fp / denom


def me(counts: ConfusionCounts) -> float:
    """Missing error: FN / (TP + FN) * 100."""
    denom = counts.tp + counts.fn
    if denom == 0:
        raise UndefinedMetricError("ME undefined: no actual anomalies (TP + FN = 0)")
    return 100.0 * counts.fn / denom


def _require_both_classes(scored: ScoredSet, metric: str) -> None:
    if scored.n_anomalies == 0 or scored.n_normals == 0:
        raise UndefinedMetricError(f"{metric} needs at least one normal and one anomaly")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their group's mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    below = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return (below + (counts + 1) / 2.0)[inverse]


def auroc(scored: ScoredSet) -> float:
    """Probability a random anomaly outscores a random normal (ties half)."""
    _require_both_classes(scored, "AUROC")
    ranks = _average_ranks(scored.scores)
    n_pos = scored.n_anomalies
    n_neg = scored.n_normals
    rank_sum = float(ranks[scored.labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def aupr(scored: ScoredSet) -> float:
    """Average precision: sum of precision * recall-increment over the
    distinct-score thresholds, swept from the highest score down."""
    _require_both_classes(scored, "AUPR")
    # group identical scores so a tie moves in as one threshold step
    _, inverse, counts = np.unique(-scored.scores, return_inverse=True, return_counts=True)
    tp_per_group = np.bincount(inverse, weights=scored.labels, minlength=counts.size)
    tp_cum = np.cumsum(tp_per_group)
    seen_cum = np.cumsum(counts)
    precision = tp_cum / seen_cum
    recall = tp_cum / scored.n_anomalies
    recall_step = np.diff(np.concatenate([[0.0], recall]))
    # accumulate in sweep order; the result is pinned to the sequential sum
    total = 0.0
    for term in precision * recall_step:
        total += float(term)
    return total


def youden_threshold(scored: ScoredSet) -> float:
    """The smallest distinct score maximizing TP - FP under score >= t."""
    _require_both_classes(scored, "threshold selection")
    thresholds = np.unique(scored.scores)  # ascending
    # samples at or above thresholds[i]: suffix sums over the sorted groups
    _, inverse, counts = np.unique(scored.scores, return_inverse=True, return_counts=True)
    pos_per_group = np.bincount(inverse, weights=scored.labels, minlength=counts.size)
    tp_at = np.cumsum(pos_per_group[::-1])[::-1]
    total_at = np.cumsum(counts[::-1])[::-1]
    utility = tp_at - (total_at - tp_at)
    return float(thresholds[int(np.argmax(utility))])
