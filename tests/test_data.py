"""Dataset loading, synthesis, projection, partitioning, heterogeneity."""

import math

import numpy as np
import oracles
import pytest

from qfedsim.data import (
    SCHEME_DIRICHLET,
    SCHEME_IID,
    SCHEME_STEP,
    LabeledDataset,
    PartitionedDataset,
    PartitionScheme,
    heterogeneity,
    load_features,
    partition,
    reduce_features,
    synth_anomaly_dataset,
    with_anomaly_classes,
)
from qfedsim.exceptions import (
    ConfigError,
    DataError,
    DegenerateInputError,
    LabelError,
    ParseError,
    PartitionError,
    SchemaError,
    ShapeError,
)


def tiny_dataset(labels, dim=2):
    features = np.repeat(np.arange(len(labels), dtype=np.float64)[:, None], dim, axis=1)
    return LabeledDataset(features, labels, frozenset(int(c) for c in labels), frozenset())


class TestLabeledDataset:
    def test_unknown_label_rejected(self):
        with pytest.raises(LabelError):
            LabeledDataset([[1.0, 0.0]], [7], frozenset({0}), frozenset({1}))

    def test_overlapping_class_sets_rejected(self):
        with pytest.raises(LabelError):
            LabeledDataset(np.empty((0, 2)), [], frozenset({0, 1}), frozenset({1}))

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(SchemaError):
            LabeledDataset([[1.0, 2.0], [1.0, 2.0, 3.0]], [0, 0], frozenset({0}), frozenset())

    def test_class_ids_sorted_and_label_map_contiguous(self):
        ds = LabeledDataset([[1.0], [2.0], [3.0]], [5, 2, 9], frozenset({2, 5}), frozenset({9}))
        assert ds.class_ids == (2, 5, 9)
        assert ds.logit_indices().tolist() == [1, 0, -1]

    def test_subset_preserves_class_sets(self):
        ds = tiny_dataset([0, 1, 0, 1])
        sub = ds.subset([1, 3])
        assert len(sub) == 2
        assert sub.normal_classes == ds.normal_classes
        assert sub.features[0, 0] == 1.0
        assert sub.labels.tolist() == [1, 1]

    def test_arrays_are_read_only_float64_and_int64(self):
        ds = tiny_dataset([0, 1, 0])
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1

    def test_shapes_must_agree(self):
        with pytest.raises(ShapeError):
            LabeledDataset(np.ones(3), [0, 0, 0], frozenset({0}), frozenset())
        with pytest.raises(ShapeError):
            LabeledDataset(np.ones((3, 2)), [0, 0], frozenset({0}), frozenset())


class TestLoadFeatures:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_two_rows(self, tmp_path):
        ds = load_features(self.write(tmp_path, "1.0,2.0,0\n3.0,4.0,1\n"))
        assert len(ds) == 2
        assert ds.feature_dim == 2
        assert ds.labels.tolist() == [0, 1]
        assert ds.normal_classes == {0, 1}
        assert ds.anomaly_classes == frozenset()

    def test_header_row_skipped(self, tmp_path):
        ds = load_features(self.write(tmp_path, "f1,f2,label\n1.0,2.0,0\n"))
        assert len(ds) == 1

    def test_non_numeric_body_names_line(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0,0\nbad,2.0,1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_features(path)

    def test_width_mismatch_names_line(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0,0\n1.0,2.0,3.0,1\n")
        with pytest.raises(SchemaError, match="line 2"):
            load_features(path)

    def test_single_field_row_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            load_features(self.write(tmp_path, "1.0\n"))

    def test_fractional_label_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="label"):
            load_features(self.write(tmp_path, "1.0,2.0,0.5\n"))

    @pytest.mark.filterwarnings("error")
    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_features(self.write(tmp_path, "\n\n"))

    def test_blank_lines_ignored(self, tmp_path):
        ds = load_features(self.write(tmp_path, "1.0,2.0,0\n\n3.0,4.0,1\n"))
        assert len(ds) == 2

    @pytest.mark.filterwarnings("error")
    def test_header_only_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_features(self.write(tmp_path, "f1,f2,label\n"))

    def test_line_one_with_numeric_first_field_is_data(self, tmp_path):
        path = self.write(tmp_path, "1.0,abc,0\n2.0,3.0,1\n4.0,5.0,1\n")
        with pytest.raises(ParseError, match="^line 1:"):
            load_features(path)

    @pytest.mark.parametrize("row", ["nan,2.0,1", "1.0,inf,1", "-inf,2.0,1",
                                     "1.0,2.0,nan", "1.0,2.0,inf", "1.0,2.0,1e300",
                                     "1.0,2.0,-9223372036854775808"])
    def test_non_finite_value_or_huge_label_names_line(self, tmp_path, row):
        with pytest.raises(ParseError, match="^line 3:"):
            load_features(self.write(tmp_path, f"1.0,2.0,0\n\n{row}\n"))

    def test_largest_int64_labels_load(self, tmp_path):
        ds = load_features(self.write(tmp_path, "1.0,-9.2e18\n2.0,9.2e18\n"))
        assert ds.labels.tolist() == [-9_200_000_000_000_000_000, 9_200_000_000_000_000_000]

    def test_single_class_file_loads(self, tmp_path):
        ds = load_features(self.write(tmp_path, "1.0,2.0,3\n4.0,5.0,3\n"))
        assert ds.labels.tolist() == [3, 3]
        assert ds.normal_classes == {3}
        assert ds.anomaly_classes == frozenset()

    def test_repr_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(21)
        features = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-8, 9, size=(40, 6))
        labels = rng.integers(-2, 4, size=40)
        lines = ["a,b,c,d,e,f,label"] + [
            ",".join(repr(v) for v in row) + f",{label}"
            for row, label in zip(features.tolist(), labels.tolist())
        ]
        ds = load_features(self.write(tmp_path, "\n".join(lines) + "\n"))
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tolist() == labels.tolist()


def random_csv(rng):
    """A seeded random feature file: (lines, features, labels, line number of
    each data row). Random width, an optional header, blank and
    whitespace-only lines, negative zeros, exponents from 1e-12 to 1e12
    written in several exact float formats, and labels as integers or as
    integral floats."""
    rows, width = int(rng.integers(1, 25)), int(rng.integers(1, 7))
    features = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-12, 13, size=(rows, width))
    features[rng.random(features.shape) < 0.05] = -0.0
    labels = rng.integers(-3, 10, size=rows)
    formats = (repr, "{:.17e}".format, "{:.17E}".format, lambda v: f" {v!r} ")
    lines = []
    if rng.random() < 0.5:
        lines.append(",".join([f"f{i}" for i in range(width)] + ["label"]))
    numbers = []
    for row, label in zip(features.tolist(), labels.tolist()):
        while rng.random() < 0.3:
            lines.append(" " * int(rng.integers(3)))
        fields = [formats[int(rng.integers(len(formats)))](v) for v in row]
        fields.append(str(label) if rng.random() < 0.7 else f"{label}.0")
        lines.append(",".join(fields))
        numbers.append(len(lines))
    return lines, features, labels, numbers


def faulty_csv(rng, fault):
    """A seeded random feature file with one `fault` on a random data line:
    (lines, that line's number), or None when no line can carry the fault."""
    lines, _, labels, numbers = random_csv(rng)
    # The first data row fixes the width, so it cannot be ragged.
    candidates = numbers[1:] if fault == "ragged" else numbers
    if not candidates:
        return None
    lineno = candidates[int(rng.integers(len(candidates)))]
    fields = lines[lineno - 1].split(",")
    if fault == "ragged":
        fields = fields[:-1] if rng.random() < 0.5 else fields + ["1.0"]
    elif fault in ("non_numeric", "non_finite"):
        bad = {"non_numeric": ("abc", "1.0.0", "", "--2", "1e"),
               "non_finite": ("nan", "inf", "-inf", " NaN", "-1e400")}[fault]
        # A line 1 whose first field is not a number is a header.
        first = 1 if fault == "non_numeric" and lineno == 1 else 0
        fields[int(rng.integers(first, len(fields)))] = bad[int(rng.integers(len(bad)))]
    elif fault == "fractional_label":
        fields[-1] = f"{labels[numbers.index(lineno)]}.5"
    else:
        fields[-1] = ("1e300", "-1e19", "9223372036854775808")[int(rng.integers(3))]
    lines[lineno - 1] = ",".join(fields)
    return lines, lineno


FAULTS = [("ragged", SchemaError),
          ("non_numeric", ParseError),
          ("fractional_label", ParseError),
          ("non_finite", ParseError),
          ("huge_label", ParseError)]


class TestLoadFeaturesProperties:
    """Seeded random files, checked against how they were made and against
    the line-by-line reference loader in `oracles`."""

    def write(self, tmp_path, lines, trailing=1):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n" * trailing, encoding="utf-8")
        return path

    def test_random_files_load_bit_for_bit(self, tmp_path):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            lines, features, labels, _ = random_csv(rng)
            path = self.write(tmp_path, lines, int(rng.integers(1, 3)))
            ds = load_features(path)
            reference_features, reference_labels = oracles.load_csv_rows(path)
            assert ds.features.tobytes() == features.tobytes(), seed
            assert reference_features.tobytes() == features.tobytes(), seed
            assert ds.labels.tolist() == labels.tolist() == reference_labels, seed

    @pytest.mark.parametrize("fault, error", FAULTS)
    def test_bad_row_names_its_line(self, tmp_path, fault, error):
        checked = 0
        for seed in range(100):
            made = faulty_csv(np.random.default_rng(seed), fault)
            if made is None:
                continue
            lines, lineno = made
            path = self.write(tmp_path, lines)
            with pytest.raises(error, match=rf"^line {lineno}:"):
                load_features(path)
            with pytest.raises(oracles.CSVFault) as reference:
                oracles.load_csv_rows(path)
            assert (reference.value.kind, reference.value.lineno) == (error.__name__, lineno)
            checked += 1
        assert checked >= 80

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("last, error", [("1.0,nan,0", "non-finite"),
                                             ("1.0,2.0,0.5", "label"),
                                             ("1.0,2.0,1e300", "label")])
    def test_bad_value_is_located_without_rereading_each_line(self, tmp_path, monkeypatch,
                                                              last, error):
        # Blank lines and a header between the rows shift physical lines
        # away from row numbers.
        lines = ["f1,f2,label"] + [f"{i}.0,1.0,{i % 3}" for i in range(200)]
        lines[50:50] = ["", "   "]
        path = self.write(tmp_path, lines + [last])
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        with pytest.raises(ParseError, match=rf"^line {len(lines) + 1}: {error}"):
            load_features(path)
        assert len(calls) == 1

    def test_python_only_number_spellings_are_rejected(self, tmp_path):
        # The one declared difference from the reference: Python's float
        # reads digit-group underscores and non-ASCII digits, numpy's text
        # reader does not.
        for spelling in ("1_0", "\u0661", "\u0968.5"):
            path = self.write(tmp_path, ["1.0,2.0,0", f"{spelling},2.0,1"])
            assert oracles.load_csv_rows(path)[1] == [0, 1]
            with pytest.raises(ParseError, match="^line 2:"):
                load_features(path)


class TestWithAnomalyClasses:
    def test_resplit(self, tmp_path):
        ds = tiny_dataset([0, 1, 2])
        out = with_anomaly_classes(ds, [2])
        assert out.normal_classes == {0, 1}
        assert out.anomaly_classes == {2}

    def test_missing_class_rejected(self):
        with pytest.raises(LabelError, match=r"\[9\]"):
            with_anomaly_classes(tiny_dataset([0, 1]), [9])

    def test_all_anomalous_rejected(self):
        with pytest.raises(LabelError):
            with_anomaly_classes(tiny_dataset([0, 1]), [0, 1])


class TestSynthAnomalyDataset:
    def test_deterministic_under_seed(self):
        a = synth_anomaly_dataset(3, 10, 5, 8, 4.0, np.random.default_rng(7))
        b = synth_anomaly_dataset(3, 10, 5, 8, 4.0, np.random.default_rng(7))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_counts_and_class_sets(self):
        ds = synth_anomaly_dataset(3, 10, 5, 8, 4.0, np.random.default_rng(0))
        assert len(ds) == 35
        assert ds.normal_classes == {0, 1, 2}
        assert ds.anomaly_classes == {3}

    def test_no_anomalies_requested(self):
        ds = synth_anomaly_dataset(2, 10, 0, 4, 4.0, np.random.default_rng(0))
        assert len(ds) == 20
        assert ds.anomaly_classes == frozenset()

    def test_wide_separation_classifies_by_nearest_centroid(self):
        sep = 10.0
        ds = synth_anomaly_dataset(4, 50, 0, 8, sep, np.random.default_rng(1))
        centers = sep * np.eye(4, 8)
        features = ds.features
        labels = ds.labels
        assigned = np.argmin(
            np.linalg.norm(features[:, None, :] - centers[None, :, :], axis=2), axis=1
        )
        assert np.mean(assigned == labels) >= 0.99

    def test_anomalies_point_away_from_normal_classes(self):
        ds = synth_anomaly_dataset(3, 30, 30, 8, 6.0, np.random.default_rng(2))
        features = ds.features
        labels = ds.labels
        anomaly_mean = features[labels == 3].mean(axis=0)
        assert np.all(anomaly_mean[:3] < 0)
        for c in range(3):
            center = np.zeros(8)
            center[c] = 6.0
            assert np.dot(anomaly_mean, center) < 0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DegenerateInputError):
            synth_anomaly_dataset(1, 5, 0, 1, 4.0, rng)
        with pytest.raises(ConfigError):
            synth_anomaly_dataset(5, 5, 0, 4, 4.0, rng)
        with pytest.raises(ConfigError):
            synth_anomaly_dataset(2, 0, 0, 4, 4.0, rng)
        with pytest.raises(ConfigError):
            synth_anomaly_dataset(2, 5, 0, 4, 0.0, rng)


class TestReduceFeatures:
    def test_equal_dim_is_identity(self):
        ds = tiny_dataset([0, 1], dim=4)
        assert reduce_features(ds, 4, np.random.default_rng(0)) is ds

    def test_deterministic_under_seed(self):
        ds = synth_anomaly_dataset(2, 10, 0, 16, 4.0, np.random.default_rng(3))
        a = reduce_features(ds, 4, np.random.default_rng(5))
        b = reduce_features(ds, 4, np.random.default_rng(5))
        assert np.array_equal(a.features, b.features)

    def test_pairwise_distances_roughly_preserved(self):
        rng = np.random.default_rng(11)
        ds = LabeledDataset(rng.normal(size=(40, 128)), np.zeros(40), frozenset({0}), frozenset())
        out = reduce_features(ds, 32, np.random.default_rng(12))
        x, y = ds.features, out.features
        ratios = []
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                ratios.append(
                    np.linalg.norm(y[i] - y[j]) / np.linalg.norm(x[i] - x[j])
                )
        assert abs(np.median(ratios) - 1.0) < 0.2

    def test_target_wider_than_input_rejected(self):
        ds = tiny_dataset([0, 1], dim=4)
        with pytest.raises(ShapeError):
            reduce_features(ds, 8, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            reduce_features(ds, 0, np.random.default_rng(0))


class TestPartition:
    def test_iid_even_split(self):
        ds = tiny_dataset([0, 1] * 50)
        out = partition(ds, SCHEME_IID, 2, np.random.default_rng(0))
        assert sorted(out.shard_sizes()) == [50, 50]

    def test_iid_uneven_split(self):
        ds = tiny_dataset([0] * 101)
        out = partition(ds, SCHEME_IID, 2, np.random.default_rng(0))
        assert sorted(out.shard_sizes()) == [50, 51]

    def test_shards_are_disjoint_and_complete(self):
        ds = tiny_dataset(list(range(5)) * 8)
        for scheme in (
            PartitionScheme(SCHEME_IID),
            PartitionScheme(SCHEME_DIRICHLET, alpha=1.0),
            PartitionScheme(SCHEME_STEP),
        ):
            out = partition(ds, scheme, 3, np.random.default_rng(4))
            seen = sorted(i for shard in out.shards for i in shard)
            assert seen == list(range(len(ds)))

    def test_step_blocks_without_remainder(self):
        ds = tiny_dataset([c for c in range(6) for _ in range(4)])
        scheme = PartitionScheme(SCHEME_STEP, step_remainder=0.0)
        out = partition(ds, scheme, 3, np.random.default_rng(0))
        labels = ds.labels
        owned = [sorted({int(labels[i]) for i in shard}) for shard in out.shards]
        assert owned == [[0, 1], [2, 3], [4, 5]]

    def test_dirichlet_small_alpha_concentrates_classes(self):
        # at alpha = 0.01 one client should hold a strict majority of nearly
        # every class; at alpha = 100 that should essentially never happen
        n_classes, per_class, n_clients = 40, 20, 10
        ds = tiny_dataset([c for c in range(n_classes) for _ in range(per_class)])
        labels = ds.labels

        def majority_fraction(alpha, draws, seed):
            scheme = PartitionScheme(SCHEME_DIRICHLET, alpha=alpha)
            rng = np.random.default_rng(seed)
            hits = total = 0
            for _ in range(draws):
                out = partition(ds, scheme, n_clients, rng)
                for c in range(n_classes):
                    counts = [
                        sum(1 for i in shard if labels[i] == c) for shard in out.shards
                    ]
                    total += 1
                    hits += max(counts) >= 0.5 * per_class
            return hits / total

        assert majority_fraction(0.01, 100, seed=101) >= 0.95
        assert majority_fraction(100.0, 20, seed=101) <= 0.05

    def test_deterministic_under_seed(self):
        ds = tiny_dataset(list(range(8)) * 10)
        scheme = PartitionScheme(SCHEME_DIRICHLET, alpha=0.5)
        a = partition(ds, scheme, 4, np.random.default_rng(9))
        b = partition(ds, scheme, 4, np.random.default_rng(9))
        assert a.shards == b.shards

    def test_too_few_samples_rejected(self):
        ds = tiny_dataset([0, 0, 0])
        with pytest.raises(PartitionError):
            partition(ds, SCHEME_IID, 4, np.random.default_rng(0))

    def test_hopeless_dirichlet_geometry_exhausts_retries(self):
        # 2 classes almost surely cannot fill 10 shards at alpha = 0.01
        ds = tiny_dataset([0, 1] * 30)
        scheme = PartitionScheme(SCHEME_DIRICHLET, alpha=0.01)
        with pytest.raises(PartitionError, match="retries"):
            partition(ds, scheme, 10, np.random.default_rng(0))

    def test_invalid_client_count(self):
        with pytest.raises(ConfigError):
            partition(tiny_dataset([0, 1]), SCHEME_IID, 0, np.random.default_rng(0))

    def test_scheme_validation(self):
        with pytest.raises(ConfigError):
            PartitionScheme("quantile")
        with pytest.raises(ConfigError):
            PartitionScheme(SCHEME_DIRICHLET)  # alpha required
        with pytest.raises(ConfigError):
            PartitionScheme(SCHEME_STEP, step_remainder=1.0)

    def test_shard_invariants_enforced(self):
        ds = tiny_dataset([0, 1, 0, 1])
        with pytest.raises(PartitionError):
            PartitionedDataset(ds, ((0, 1), ()), "iid")
        with pytest.raises(PartitionError):
            PartitionedDataset(ds, ((0, 1), (1, 2, 3)), "iid")
        with pytest.raises(PartitionError):
            PartitionedDataset(ds, ((0, 1), (2,)), "iid")


class TestHeterogeneity:
    def test_identical_distributions_give_zero(self):
        ds = tiny_dataset([0, 1] * 10)
        shards = (tuple(range(0, 10)), tuple(range(10, 20)))
        part = PartitionedDataset(ds, shards, "manual")
        stats = heterogeneity(part, ds)
        assert stats.avg_pairwise_kl == pytest.approx(0.0, abs=1e-9)
        assert stats.class_histograms.tolist() == [[5, 5], [5, 5]]

    def test_disjoint_supports_match_hand_value(self):
        # two clients, one class each, 3 samples per class, smoothing 1e-6
        ds = tiny_dataset([0, 0, 0, 1, 1, 1])
        part = PartitionedDataset(ds, ((0, 1, 2), (3, 4, 5)), "manual")
        eps = 1e-6
        p0 = (3 + eps) / (3 + 2 * eps)
        p1 = eps / (3 + 2 * eps)
        expected = (p0 - p1) * math.log(p0 / p1)
        assert heterogeneity(part, ds).avg_pairwise_kl == pytest.approx(
            expected, rel=1e-12
        )

    def test_single_client_is_zero(self):
        ds = tiny_dataset([0, 1, 0, 1])
        part = PartitionedDataset(ds, ((0, 1, 2, 3),), "manual")
        assert heterogeneity(part, ds).avg_pairwise_kl == 0.0

    def test_smaller_alpha_is_more_heterogeneous(self):
        ds = tiny_dataset([c for c in range(10) for _ in range(30)])

        def median_kl(alpha):
            values = []
            for seed in range(20):
                part = partition(
                    ds,
                    PartitionScheme(SCHEME_DIRICHLET, alpha=alpha),
                    5,
                    np.random.default_rng(seed),
                )
                values.append(heterogeneity(part, ds).avg_pairwise_kl)
            return float(np.median(values))

        assert median_kl(0.01) > median_kl(1.0)

    def test_histogram_columns_follow_sorted_class_ids(self):
        ds = LabeledDataset([[1.0], [2.0]], [9, 2], frozenset({2, 9}), frozenset())
        part = PartitionedDataset(ds, ((0,), (1,)), "manual")
        stats = heterogeneity(part, ds)
        assert stats.class_histograms.tolist() == [[0, 1], [1, 0]]
