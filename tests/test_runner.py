"""End-to-end runs: artifacts, reruns, sweeps, comparisons."""

import json
import os
import re

import numpy as np
import pytest

from qfedsim import federation, runner
from qfedsim.config import config_from_mapping
from qfedsim.exceptions import ConfigError, DataError, DegenerateInputError, NumericError
from qfedsim.model import load_params
from qfedsim.runner import (
    CONFIG_NAME,
    HISTORY_NAME,
    PARAMS_NAME,
    PARTITION_NAME,
    SUMMARY_NAME,
    build_dataset,
    compare,
    run,
    split_dataset,
    sweep,
)

ARTIFACTS = (CONFIG_NAME, PARTITION_NAME, HISTORY_NAME, SUMMARY_NAME, PARAMS_NAME)


def base_mapping(**extra):
    data = {
        "mode": "pqfl",
        "dataset": {
            "kind": "synthetic",
            "n_normal_classes": 2,
            "per_class": 12,
            "n_anomaly": 6,
            "dim": 4,
            "separation": 6.0,
        },
        "n_qubits": 2,
        "n_layers": 1,
        "global_rounds": 2,
        "local_epochs": 1,
        "eta": 0.05,
        "lam": 0.1,
        "shots": None,
        "batch_size": 8,
        "n_clients": 2,
        "val_fraction": 0.25,
        "master_seed": 11,
    }
    data.update(extra)
    return data


def make_config(output_dir=None, **extra):
    mapping = base_mapping(**extra)
    if output_dir is not None:
        mapping["output_dir"] = str(output_dir)
    return config_from_mapping(mapping)


def read_bytes(run_dir, name):
    with open(os.path.join(run_dir, name), "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("base") / "run"
    return run(make_config(output_dir=out, target_loss=100.0))


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare") / "long"
    config = make_config(
        output_dir=out,
        n_qubits=4,
        n_layers=3,
        global_rounds=50,
        batch_size=32,
        target_loss=0.05,
    )
    return run(config)


class TestBuildDataset:
    def test_synthetic_counts(self):
        ds = build_dataset(make_config())
        assert len(ds) == 2 * 12 + 6
        assert ds.normal_classes == {0, 1}
        assert ds.anomaly_classes == {2}

    def test_deterministic(self):
        a = build_dataset(make_config())
        b = build_dataset(make_config())
        assert np.array_equal(a.features, b.features)

    def test_wide_csv_features_projected_to_capacity(self, tmp_path):
        rows = ["1.0,2.0,3.0,4.0,5.0,6.0,0", "2.0,1.0,0.5,0.2,0.1,3.0,1"]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(rows * 3) + "\n")
        config = make_config(
            dataset={"kind": "csv", "path": str(path), "anomaly_classes": [1]}
        )
        ds = build_dataset(config)
        assert ds.feature_dim == 4  # 2 qubits hold 4 amplitudes

    def test_narrow_features_left_alone(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("1.0,2.0,0\n2.0,1.0,1\n")
        config = make_config(
            dataset={"kind": "csv", "path": str(path), "anomaly_classes": [1]}
        )
        assert build_dataset(config).feature_dim == 2


class TestSplitDataset:
    def test_all_anomalies_validate(self):
        ds = build_dataset(make_config())
        train, val = split_dataset(ds, 0.25, 1.0, 11)
        assert np.sum(np.isin(train.labels, [2])) == 0
        assert np.sum(np.isin(val.labels, [2])) == 6

    def test_sizes_follow_val_fraction(self):
        ds = build_dataset(make_config())
        train, val = split_dataset(ds, 0.25, 1.0, 11)
        assert len(val) == 6 + 6  # round(0.25 * 24) normals + all anomalies
        assert len(train) == 18

    def test_deterministic(self):
        ds = build_dataset(make_config())
        a_train, a_val = split_dataset(ds, 0.25, 1.0, 11)
        b_train, b_val = split_dataset(ds, 0.25, 1.0, 11)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_val.features, b_val.features)

    def test_data_fraction_nests_and_keeps_validation(self):
        ds = build_dataset(make_config())
        full_train, full_val = split_dataset(ds, 0.25, 1.0, 11)
        half_train, half_val = split_dataset(ds, 0.25, 0.5, 11)
        assert np.array_equal(full_val.features, half_val.features)
        full_rows = {tuple(row) for row in full_train.features}
        half_rows = {tuple(row) for row in half_train.features}
        assert half_rows < full_rows
        assert len(half_train) == round(0.5 * len(full_train))

    def test_no_anomalies_rejected(self):
        config = make_config()
        ds = build_dataset(config)
        from qfedsim.data import LabeledDataset

        keep = ds.labels != 2
        normals_only = LabeledDataset(
            ds.features[keep], ds.labels[keep], ds.normal_classes, frozenset()
        )
        with pytest.raises(DataError):
            split_dataset(normals_only, 0.25, 1.0, 11)

    def test_degenerate_fraction_rejected(self):
        ds = build_dataset(make_config())
        with pytest.raises(DataError):
            split_dataset(ds, 0.001, 1.0, 11)
        with pytest.raises(DataError):
            split_dataset(ds, 0.999, 1.0, 11)


class TestRun:
    def test_writes_all_artifacts(self, base_run):
        for name in ARTIFACTS:
            assert os.path.exists(os.path.join(base_run.output_dir, name))

    def test_history_has_one_row_per_round(self, base_run):
        text = read_bytes(base_run.output_dir, HISTORY_NAME).decode()
        lines = [l for l in text.strip().split("\n") if l]
        assert len(lines) == 1 + 2

    def test_summary_contents(self, base_run):
        summary = json.loads(read_bytes(base_run.output_dir, SUMMARY_NAME))
        assert summary["mode"] == "pqfl"
        assert summary["lam"] == 0.1
        assert summary["n_train"] == 18
        assert summary["n_validation"] == 12
        assert summary["global_rounds"] == 2
        assert set(summary["final"]) == {"val_loss", "fe_pct", "me_pct", "auroc", "aupr"}
        assert summary["rounds_to_target"] == 1  # target_loss = 100 is instant
        # 2 rounds of the whole 12-value model (2 angles, 2 x 4 head
        # weights, 2 biases) at 32 bits, up and down
        assert summary["total_payload_bits"] == 2 * (2 * 12 * 32)
        assert "head weights" in summary["payload_counts"]

    def test_checkpoint_round_trips(self, base_run):
        layers, qubits, classes, vec = load_params(
            os.path.join(base_run.output_dir, PARAMS_NAME)
        )
        assert (layers, qubits, classes) == (1, 2, 2)
        assert np.array_equal(vec, base_run.history.final_params.vector)

    def test_partition_manifest_indexes_training_set(self, base_run):
        manifest = json.loads(read_bytes(base_run.output_dir, PARTITION_NAME))
        assert manifest["n_clients"] == 2
        seen = sorted(i for shard in manifest["shards"] for i in shard)
        assert seen == list(range(18))
        assert np.array(manifest["class_histograms"]).sum() == 18

    def test_rerun_is_byte_identical(self, base_run, tmp_path):
        again = run(make_config(output_dir=tmp_path / "again", target_loss=100.0))
        for name in ARTIFACTS:
            assert read_bytes(base_run.output_dir, name) == read_bytes(
                again.output_dir, name
            ), name

    def test_unreachable_target_reports_none(self, tmp_path):
        result = run(make_config(output_dir=tmp_path / "r", target_loss=1e-12))
        assert result.summary["rounds_to_target"] is None
        summary = json.loads(read_bytes(result.output_dir, SUMMARY_NAME))
        assert summary["rounds_to_target"] is None

    def test_divergence_names_client_and_round_and_writes_nothing(self, tmp_path):
        out = tmp_path / "diverged"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError,
                               match="^client 0, round 0: angles contains non-finite entries$"):
                run(make_config(output_dir=out, eta=1e308))
        assert not out.exists()

    @pytest.mark.parametrize("csv_row, set_name", [(9, "training"), (13, "validation")])
    def test_zero_feature_row_names_its_set_and_row(self, tmp_path, csv_row, set_name):
        labels = np.arange(30) % 3
        features = np.random.default_rng(5).uniform(0.5, 1.5, size=(30, 4))
        features[csv_row] = 0.0
        path = tmp_path / "zero.csv"
        path.write_text("".join(
            ",".join(map(str, [*row, label])) + "\n" for row, label in zip(features, labels)
        ))
        out = tmp_path / "out"
        config = make_config(
            output_dir=out, dataset={"kind": "csv", "path": str(path), "anomaly_classes": [2]}
        )
        sets = split_dataset(build_dataset(config), config.val_fraction,
                             config.data_fraction, config.master_seed)
        # the row's position in its own set: for the training set, the index
        # partition.json would list
        held = dict(zip(("training", "validation"), sets))[set_name]
        row = int(np.flatnonzero(~held.features.any(axis=1))[0])
        with pytest.raises(DegenerateInputError, match=f"^{set_name} set row {row} is a zero"):
            run(config)
        assert not out.exists()

    @pytest.mark.parametrize("shots", [None, 100])
    def test_huge_feature_rows_are_encoded_as_their_direction(self, tmp_path, monkeypatch,
                                                             shots):
        # Every 7th row's sum of squares overflows float64. Each encoded row
        # must still be a unit vector, and the run must finish on finite
        # losses, with exact or sampled readout.
        labels = np.arange(60) % 3
        features = np.random.default_rng(5).uniform(0.5, 1.5, size=(60, 4))
        features[::7] *= 1e300
        path = tmp_path / "huge.csv"
        path.write_text("".join(
            ",".join(map(str, [*row.tolist(), label])) + "\n" for row, label in zip(features, labels)
        ))
        norms = []
        original = federation.encode_batch

        def spy(rows, n_qubits):
            encoded = original(rows, n_qubits)
            norms.append(np.linalg.norm(encoded, axis=1))
            return encoded

        monkeypatch.setattr(federation, "encode_batch", spy)
        result = run(make_config(output_dir=tmp_path / "out", shots=shots, dataset={
            "kind": "csv", "path": str(path), "anomaly_classes": [2]}))
        assert len(norms) == 2
        assert np.allclose(np.concatenate(norms), 1.0, rtol=0, atol=1e-12)
        assert all(np.isfinite(r.val_loss) for r in result.history.records)

    @pytest.mark.parametrize("csv_row, set_name", [(9, "training"), (13, "validation")])
    def test_non_finite_projected_row_names_its_set_and_row(self, tmp_path, csv_row,
                                                           set_name):
        # 8 features on 2 qubits are projected onto 4; a row of 1e308s
        # projects to infinities.
        labels = np.arange(30) % 3
        features = np.random.default_rng(5).uniform(0.5, 1.5, size=(30, 8))
        features[csv_row] = 1e308
        path = tmp_path / "overflow.csv"
        path.write_text("".join(
            ",".join(map(str, [*row.tolist(), label])) + "\n" for row, label in zip(features, labels)
        ))
        out = tmp_path / "out"
        config = make_config(
            output_dir=out, dataset={"kind": "csv", "path": str(path), "anomaly_classes": [2]}
        )
        with np.errstate(over="ignore", invalid="ignore"):
            sets = split_dataset(build_dataset(config), config.val_fraction,
                                 config.data_fraction, config.master_seed)
        held = dict(zip(("training", "validation"), sets))[set_name]
        row = int(np.flatnonzero(~np.isfinite(held.features).all(axis=1))[0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError,
                               match=f"^{set_name} set row {row} holds a non-finite value"):
                run(config)
        assert not out.exists()

    def test_requires_output_dir(self):
        with pytest.raises(ConfigError, match="output"):
            run(make_config())

    def test_zero_lambda_pqfl_matches_qfl_run(self, tmp_path):
        a = run(make_config(output_dir=tmp_path / "pqfl0", lam=0.0))
        b = run(make_config(output_dir=tmp_path / "qfl", mode="qfl"))
        for name in (HISTORY_NAME, PARAMS_NAME, PARTITION_NAME):
            assert read_bytes(a.output_dir, name) == read_bytes(b.output_dir, name), name
        # summaries agree on everything but the mode label itself
        sa = json.loads(read_bytes(a.output_dir, SUMMARY_NAME))
        sb = json.loads(read_bytes(b.output_dir, SUMMARY_NAME))
        assert (sa.pop("mode"), sb.pop("mode")) == ("pqfl", "qfl")
        assert sa == sb


class TestAtomicRunDirectory:
    def test_failed_artifact_write_leaves_no_directory(self, tmp_path, monkeypatch):
        def failing_save(*_args):
            raise OSError("disk full")

        monkeypatch.setattr(runner, "save_params", failing_save)
        with pytest.raises(OSError, match="disk full"):
            run(make_config(output_dir=tmp_path / "partial"))
        assert os.listdir(tmp_path) == []

    def test_rerun_replaces_existing_run_directory(self, tmp_path):
        out = tmp_path / "run"
        run(make_config(output_dir=out, master_seed=3))
        second = run(make_config(output_dir=out, master_seed=4))
        fresh = run(make_config(output_dir=tmp_path / "fresh", master_seed=4))
        assert sorted(os.listdir(tmp_path)) == ["fresh", "run"]
        assert sorted(os.listdir(out)) == sorted(ARTIFACTS)
        for name in ARTIFACTS:
            assert read_bytes(second.output_dir, name) == read_bytes(
                fresh.output_dir, name
            ), name
        assert json.loads(read_bytes(out, CONFIG_NAME))["master_seed"] == 4

    def test_directory_with_other_files_is_refused_and_kept(self, tmp_path):
        out = tmp_path / "notes"
        out.mkdir()
        (out / "keep.txt").write_text("mine")
        with pytest.raises(ConfigError, match="keep.txt"):
            run(make_config(output_dir=out))
        assert os.listdir(out) == ["keep.txt"]
        assert sorted(os.listdir(tmp_path)) == ["notes"]


class TestSweep:
    def test_epsilon_axis_ordering_and_artifacts(self, tmp_path):
        config = make_config(
            output_dir=tmp_path / "sweep", sweep={"epsilon": [0.5, 0.001]}, shots=64
        )
        results = sweep(config)
        assert [os.path.basename(r.output_dir) for r in results] == [
            "epsilon_0.001",
            "epsilon_0.5",
        ]
        for r in results:
            for name in ARTIFACTS:
                assert os.path.exists(os.path.join(r.output_dir, name))
        table = (tmp_path / "sweep" / "sweep_summary.csv").read_text().strip().split("\n")
        assert table[0].startswith("run_dir,epsilon,val_loss")
        assert len(table) == 3
        assert table[1].split(",")[0] == "epsilon_0.001"
        assert table[2].split(",")[0] == "epsilon_0.5"

    def test_two_axis_product_in_canonical_order(self, tmp_path):
        config = make_config(
            output_dir=tmp_path / "grid",
            # epsilon listed first in the file; lambda still leads the name
            sweep={"epsilon": [0.1, 0.0], "lambda": [0.1, 0.0]},
        )
        results = sweep(config)
        names = [os.path.basename(r.output_dir) for r in results]
        assert names == [
            "lambda_0.0__epsilon_0.0",
            "lambda_0.0__epsilon_0.1",
            "lambda_0.1__epsilon_0.0",
            "lambda_0.1__epsilon_0.1",
        ]

    def test_swept_value_lands_in_run_config(self, tmp_path):
        config = make_config(output_dir=tmp_path / "lam", sweep={"lambda": [0.25]})
        results = sweep(config)
        written = json.loads(read_bytes(results[0].output_dir, CONFIG_NAME))
        assert written["lam"] == 0.25
        assert "sweep" not in written

    def test_exact_shots_value_named(self, tmp_path):
        config = make_config(output_dir=tmp_path / "shots", sweep={"shots": [None, 16]})
        results = sweep(config)
        names = [os.path.basename(r.output_dir) for r in results]
        assert names == ["shots_16", "shots_exact"]

    def test_unreplaceable_point_fails_before_the_first_run(self, tmp_path):
        root = tmp_path / "sweep"
        (root / "lambda_0.1").mkdir(parents=True)
        (root / "lambda_0.1" / "notes.txt").write_text("mine")
        with pytest.raises(ConfigError, match="notes.txt"):
            sweep(make_config(output_dir=root, sweep={"lambda": [0.0, 0.1]}))
        assert os.listdir(root) == ["lambda_0.1"]
        assert os.listdir(root / "lambda_0.1") == ["notes.txt"]

    def test_sweep_requires_axes(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep"):
            sweep(make_config(output_dir=tmp_path / "none"))


class TestCompare:
    def test_reference_payload_total(self, long_run):
        # 12 angles, 2 x 16 head weights and 2 biases at 32 bits, both
        # directions, over 50 rounds
        assert long_run.summary["total_payload_bits"] == 50 * 2 * 46 * 32

    def test_self_comparison_has_zero_deltas(self, base_run):
        text = compare([base_run.output_dir, base_run.output_dir])
        lines = text.strip().split("\n")
        assert len(lines) == 4  # header, run, run, delta
        delta = lines[3]
        assert "delta vs" in delta
        assert "+0" in delta
        assert "-1" not in delta

    def test_unequal_horizons_flagged(self, base_run, long_run):
        text = compare([base_run.output_dir, long_run.output_dir])
        assert "unequal horizons" in text
        assert "2, 50" in text
        assert str(long_run.summary["total_payload_bits"]) in text

    def test_never_reaching_target_displays_and_skips_delta(self, base_run, tmp_path):
        never = run(make_config(output_dir=tmp_path / "never", target_loss=1e-12))
        text = compare([base_run.output_dir, never.output_dir])
        assert "never" in text
        row = [l for l in text.split("\n") if "delta vs" in l][0]
        assert row.rstrip().endswith("+0")  # payload delta still computed
        assert "-" in row  # rounds_to_target delta suppressed

    def test_missing_history_rejected(self, base_run, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(DataError, match="missing history"):
            compare([base_run.output_dir, str(empty)])

    def test_summary_without_final_names_file_and_key(self, base_run, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in (HISTORY_NAME, SUMMARY_NAME):
            (broken / name).write_bytes(read_bytes(base_run.output_dir, name))
        summary = json.loads((broken / SUMMARY_NAME).read_text())
        del summary["final"]
        (broken / SUMMARY_NAME).write_text(json.dumps(summary))
        with pytest.raises(DataError, match=f"{SUMMARY_NAME} lacks key 'final'"):
            compare([base_run.output_dir, str(broken)])

    @pytest.mark.parametrize("name, content, reason", [
        (SUMMARY_NAME, b'{"final": ', "Expecting value"),
        (SUMMARY_NAME, b"[]", "expected a JSON object, got list"),
        (SUMMARY_NAME, b'{"final": [], "total_payload_bits": 1}', "'final' is list"),
        (SUMMARY_NAME, b'{"final": {"val_loss": 1.0, "fe_pct": 0.0, "me_pct": 0.0, '
                       b'"auroc": "high", "aupr": 1.0}, "total_payload_bits": 1}',
         "'auroc' is str, not a number"),
        (SUMMARY_NAME, b'{"final": {"val_loss": 1.0, "fe_pct": 0.0, "me_pct": 0.0, '
                       b'"auroc": 1.0, "aupr": 1.0}, "total_payload_bits": true}',
         "'total_payload_bits' is bool, not a number"),
        (SUMMARY_NAME, b'{"final": {"val_loss": 1.0, "fe_pct": 0.0, "me_pct": 0.0, '
                       b'"auroc": 1.0, "aupr": 1.0}, "total_payload_bits": 1, '
                       b'"rounds_to_target": "soon"}',
         "'rounds_to_target' is str, not an int or null"),
        (SUMMARY_NAME, b'{"final": {"val_loss": 1.0, "fe_pct": 0.0, "me_pct": 0.0, '
                       b'"auroc": 1.0, "aupr": 1.0}, "total_payload_bits": 1, '
                       b'"rounds_to_target": true}',
         "'rounds_to_target' is bool, not an int or null"),
        (SUMMARY_NAME, b'{"final": \xff}', "can't decode byte 0xff"),
        (HISTORY_NAME, b"round\n\xff\n", "can't decode byte 0xff"),
    ], ids=["not-json", "root-list", "final-list", "metric-not-number", "payload-bool",
            "target-not-int", "target-bool", "summary-not-utf8", "history-not-utf8"])
    def test_malformed_run_file_names_file(self, base_run, tmp_path, name, content, reason):
        broken = tmp_path / "broken"
        broken.mkdir()
        for artifact in (HISTORY_NAME, SUMMARY_NAME):
            (broken / artifact).write_bytes(read_bytes(base_run.output_dir, artifact))
        (broken / name).write_bytes(content)
        with pytest.raises(DataError, match=f"^{re.escape(str(broken / name))}: .*{reason}"):
            compare([base_run.output_dir, str(broken)])

    def test_needs_two_directories(self, base_run):
        with pytest.raises(ConfigError):
            compare([base_run.output_dir])
