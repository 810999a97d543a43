"""Anomaly scoring and evaluation: confusion counts, FE, ME, AUROC, AUPR.

Scores are "higher = more anomalous"; labels are binary with 1 = anomaly.
FE(%) = FP/(TP+FP) * 100 and ME(%) = FN/(TP+FN) * 100. AUROC uses the
rank-based estimator with half credit for ties; AUPR is the step-wise
average-precision sum over distinct score thresholds.

A ScoredSet is ranked once, when it is built: its distinct scores in
ascending order with the number of samples and of anomalies at each. Every
metric reads that one ranking. A NaN score is refused, because no threshold
rule `score >= t` could ever select it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ContractError, DegenerateInputError, UndefinedMetricError


@dataclass(frozen=True)
class ScoredSet:
    """Anomaly scores with ground-truth binary labels (1 = anomaly), ranked:
    `distinct` holds the distinct scores ascending, `counts` and `anomalies`
    the samples and the anomalies at each of them."""

    scores: np.ndarray
    labels: np.ndarray
    distinct: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)
    anomalies: np.ndarray = field(init=False, repr=False)

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
        if np.isnan(scores).any():
            raise ContractError("scores must not be NaN")
        distinct, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "distinct", distinct)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(
            self, "anomalies", np.bincount(inverse, weights=labels, minlength=distinct.size)
        )

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
    first = int(np.searchsorted(scored.distinct, threshold, side="left"))
    predicted = int(scored.counts[first:].sum())
    tp = int(scored.anomalies[first:].sum())
    fn = scored.n_anomalies - tp
    return ConfusionCounts(tp, predicted - tp, fn, scored.scores.size - predicted - fn)


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


def auroc(scored: ScoredSet) -> float:
    """Probability a random anomaly outscores a random normal (ties half)."""
    _require_both_classes(scored, "AUROC")
    # 1-based ranks, each tie group sharing its mean rank; half-integers, so
    # the anomalies' rank sum is exact
    mean_rank = np.cumsum(scored.counts) - (scored.counts - 1) / 2.0
    rank_sum = float(scored.anomalies @ mean_rank)
    n_pos = scored.n_anomalies
    n_neg = scored.n_normals
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def aupr(scored: ScoredSet) -> float:
    """Average precision: sum of precision * recall-increment over the
    distinct-score thresholds, swept from the highest score down."""
    _require_both_classes(scored, "AUPR")
    tp_cum = np.cumsum(scored.anomalies[::-1])
    precision = tp_cum / np.cumsum(scored.counts[::-1])
    recall = tp_cum / scored.n_anomalies
    recall_step = np.diff(recall, prepend=0.0)
    # cumsum adds in sweep order, so the result is pinned to the sequential sum
    return float(np.cumsum(precision * recall_step)[-1])


def youden_threshold(scored: ScoredSet) -> float:
    """The smallest distinct score maximizing TP - FP under score >= t."""
    _require_both_classes(scored, "threshold selection")
    # samples at or above each distinct score: suffix sums over the ranking
    tp_at = np.cumsum(scored.anomalies[::-1])[::-1]
    utility = tp_at - (np.cumsum(scored.counts[::-1])[::-1] - tp_at)
    return float(scored.distinct[int(np.argmax(utility))])
