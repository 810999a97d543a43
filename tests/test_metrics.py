"""Scoring and evaluation metrics against brute-force oracles."""

import numpy as np
import pytest

import oracles
from qfedsim.exceptions import ContractError, DegenerateInputError, UndefinedMetricError
from qfedsim.metrics import (
    ConfusionCounts,
    ScoredSet,
    aupr,
    auroc,
    centroid_distance_scores,
    confusion,
    fe,
    max_prob_scores,
    me,
    youden_threshold,
)


def random_scored_set(rng, n_max=200, quantize=False):
    n = int(rng.integers(2, n_max + 1))
    scores = rng.normal(size=n)
    if quantize:
        scores = np.round(scores, 1)  # heavy ties
    labels = rng.integers(0, 2, size=n)
    # ensure both classes appear
    labels[0], labels[1] = 0, 1
    return ScoredSet(scores, labels)


def edge_scored_sets(rng):
    """Signed zeros, a single distinct score and heavy ties, each set holding
    both classes."""

    def labels(n):
        return np.concatenate([[0, 1], rng.integers(0, 2, size=n - 2)])

    return [
        ScoredSet(np.array([0.0, -0.0, -0.0, 0.0, 1.0, -1.0]), np.array([1, 0, 1, 0, 1, 0])),
        ScoredSet(rng.choice([0.0, -0.0, 0.5, -0.5], size=40), labels(40)),
        ScoredSet(np.full(9, 0.25), labels(9)),
        ScoredSet(np.full(5, -0.0), labels(5)),
        ScoredSet(rng.integers(0, 3, size=150).astype(np.float64), labels(150)),
    ]


def oracle_scored_sets(rng, trials, n_max=200):
    """Random sets, every other one heavily tied, then the edge sets."""
    random_sets = [
        random_scored_set(rng, n_max=n_max, quantize=trial % 2 == 0) for trial in range(trials)
    ]
    return random_sets + edge_scored_sets(rng)


def direct_counts(scored, threshold):
    """(tp, fp, fn, tn) counted straight from `score >= threshold`."""
    predicted = scored.scores >= threshold
    actual = scored.labels == 1
    return (int(np.sum(predicted & actual)), int(np.sum(predicted & ~actual)),
            int(np.sum(~predicted & actual)), int(np.sum(~predicted & ~actual)))


class TestScoredSet:
    def test_class_counts(self):
        s = ScoredSet(np.array([0.1, 0.2, 0.3]), np.array([0, 1, 1]))
        assert s.n_anomalies == 2
        assert s.n_normals == 1

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            ScoredSet(np.array([0.1, 0.2]), np.array([0]))

    def test_matrix_scores_rejected(self):
        with pytest.raises(ContractError):
            ScoredSet(np.zeros((2, 2)), np.zeros((2, 2), dtype=int))

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            ScoredSet(np.array([]), np.array([], dtype=int))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ContractError):
            ScoredSet(np.array([0.1, 0.2]), np.array([0, 2]))

    def test_nan_score_rejected(self):
        # no threshold rule `score >= t` selects a NaN, so it has no rank
        with pytest.raises(ContractError, match="NaN"):
            ScoredSet(np.array([0.1, np.nan, 0.2]), np.array([0, 1, 1]))


class TestAnomalyScore:
    def test_confident_prediction_scores_low(self):
        assert max_prob_scores(np.array([[0.9, 0.05, 0.05]]))[0] == pytest.approx(0.1, abs=1e-12)

    def test_uniform_prediction_scores_high(self):
        assert max_prob_scores(np.array([[0.25, 0.25, 0.25, 0.25]]))[0] == pytest.approx(
            0.75, abs=1e-12
        )

    def test_batch_version_matches_rowwise(self):
        rng = np.random.default_rng(0)
        raw = rng.random((8, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        batch = max_prob_scores(probs)
        for i in range(8):
            assert batch[i] == pytest.approx(max_prob_scores(probs[i]), abs=1e-12)

    def test_centroid_distance(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        centroid = np.array([0.5, 0.5])
        out = centroid_distance_scores(probs, centroid)
        assert out[0] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert out[1] == pytest.approx(0.0, abs=1e-12)


class TestConfusion:
    def test_all_correct(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
        c = confusion(s, 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 0, 0, 2)

    def test_threshold_is_inclusive(self):
        s = ScoredSet(np.array([0.5, 0.4]), np.array([1, 0]))
        c = confusion(s, 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 0, 0, 1)

    def test_mixed_outcomes(self):
        s = ScoredSet(np.array([0.9, 0.3, 0.7, 0.1]), np.array([1, 1, 0, 0]))
        c = confusion(s, 0.5)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)

    def test_matches_direct_counts(self):
        rng = np.random.default_rng(37)
        for s in oracle_scored_sets(rng, 20):
            distinct = np.unique(s.scores)
            between = (distinct[:-1] + distinct[1:]) / 2.0
            outside = [distinct[0] - 1.0, distinct[-1] + 1.0, -np.inf, np.inf]
            for t in [*distinct, -0.0, *between, *outside]:
                c = confusion(s, t)
                assert (c.tp, c.fp, c.fn, c.tn) == direct_counts(s, t), t

    def test_negative_counts_rejected(self):
        with pytest.raises(ContractError):
            ConfusionCounts(-1, 0, 0, 0)


class TestErrorRates:
    def test_fe_example(self):
        assert fe(ConfusionCounts(8, 2, 0, 0)) == pytest.approx(20.0, abs=1e-12)

    def test_me_example(self):
        assert me(ConfusionCounts(6, 0, 2, 0)) == pytest.approx(25.0, abs=1e-12)

    def test_perfect_detector(self):
        c = ConfusionCounts(5, 0, 0, 5)
        assert fe(c) == 0.0
        assert me(c) == 0.0

    def test_exhaustive_small_counts(self):
        for tp in range(4):
            for fp in range(4):
                for fn in range(4):
                    c = ConfusionCounts(tp, fp, fn, 1)
                    if tp + fp == 0:
                        with pytest.raises(UndefinedMetricError):
                            fe(c)
                    else:
                        assert fe(c) == pytest.approx(100.0 * fp / (tp + fp))
                    if tp + fn == 0:
                        with pytest.raises(UndefinedMetricError):
                            me(c)
                    else:
                        assert me(c) == pytest.approx(100.0 * fn / (tp + fn))


class TestAuroc:
    def test_perfect_separation(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
        assert auroc(s) == pytest.approx(1.0, abs=1e-12)

    def test_perfectly_inverted(self):
        s = ScoredSet(np.array([0.1, 0.2, 0.9, 0.8]), np.array([1, 1, 0, 0]))
        assert auroc(s) == pytest.approx(0.0, abs=1e-12)

    def test_three_quarters_example(self):
        s = ScoredSet(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
        assert auroc(s) == pytest.approx(0.75, abs=1e-12)

    def test_all_tied_is_half(self):
        s = ScoredSet(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0]))
        assert auroc(s) == pytest.approx(0.5, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(17)
        for s in oracle_scored_sets(rng, 50):
            expected = oracles.pairwise_auroc(s.scores, s.labels)
            assert auroc(s) == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(19)
        s = random_scored_set(rng)
        transformed = ScoredSet(3.0 * s.scores + 7.0, s.labels)
        assert auroc(transformed) == pytest.approx(auroc(s), abs=1e-12)

    def test_negation_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            s = random_scored_set(rng, quantize=True)
            flipped = ScoredSet(-s.scores, 1 - s.labels)
            assert auroc(flipped) == pytest.approx(auroc(s), abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc(ScoredSet(np.array([0.1, 0.2]), np.array([1, 1])))
        with pytest.raises(UndefinedMetricError):
            auroc(ScoredSet(np.array([0.1, 0.2]), np.array([0, 0])))


class TestAupr:
    def test_perfect_separation(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
        assert aupr(s) == pytest.approx(1.0, abs=1e-12)

    def test_all_tied_equals_prevalence(self):
        s = ScoredSet(np.full(8, 0.3), np.array([1, 1, 0, 0, 0, 0, 0, 0]))
        assert aupr(s) == pytest.approx(0.25, abs=1e-12)

    def test_four_point_example(self):
        # sweep: P=1 at R=1/2, then P=2/3 at R=1
        s = ScoredSet(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1]))
        assert aupr(s) == pytest.approx(0.5 + (2.0 / 3.0) * 0.5, abs=1e-12)

    def test_six_point_hand_sweep(self):
        scores = np.array([0.9, 0.7, 0.6, 0.55, 0.3, 0.1])
        labels = np.array([1, 0, 1, 0, 1, 0])
        # sweep: P=1 R=1/3; P=1/2; P=2/3 R=2/3; P=1/2; P=3/5 R=1; P=1/2
        expected = 1.0 / 3.0 + (2.0 / 3.0) * (1.0 / 3.0) + (3.0 / 5.0) * (1.0 / 3.0)
        assert aupr(ScoredSet(scores, labels)) == pytest.approx(expected, abs=1e-12)

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(29)
        for s in oracle_scored_sets(rng, 50):
            expected = oracles.sweep_aupr(s.scores, s.labels)
            assert aupr(s) == pytest.approx(expected, abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            aupr(ScoredSet(np.array([0.1, 0.2]), np.array([0, 0])))


class TestYoudenThreshold:
    def brute_force(self, scored):
        best_value, best_t = None, None
        for t in np.unique(scored.scores):  # ascending, so first max is smallest
            tp, fp, _, _ = direct_counts(scored, t)
            value = tp - fp
            if best_value is None or value > best_value:
                best_value, best_t = value, t
        return best_t

    def test_clean_split(self):
        s = ScoredSet(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
        assert youden_threshold(s) == pytest.approx(0.8)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for s in oracle_scored_sets(rng, 100, n_max=60):
            assert youden_threshold(s) == pytest.approx(self.brute_force(s), abs=0)

    def test_prefers_smallest_maximizer(self):
        # thresholds 0.2 and 0.4 both give TP - FP = 1; pick 0.2
        s = ScoredSet(np.array([0.4, 0.3, 0.2, 0.1]), np.array([1, 0, 1, 0]))
        c_low = confusion(s, 0.2)
        c_high = confusion(s, 0.4)
        assert c_low.tp - c_low.fp == c_high.tp - c_high.fp == 1
        assert youden_threshold(s) == pytest.approx(0.2)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            youden_threshold(ScoredSet(np.array([0.5, 0.6]), np.array([1, 1])))
