"""Command-line interface: subcommands, override precedence, error paths."""

import json
import os

import pytest

from qfedsim.cli import ENV_OUTPUT_DIR, ENV_SEED, main
from qfedsim.runner import CONFIG_NAME, HISTORY_NAME, PARAMS_NAME, SUMMARY_NAME


def write_config(tmp_path, name="experiment.json", **extra):
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
        "shots": None,
        "batch_size": 8,
        "n_clients": 2,
        "val_fraction": 0.25,
        "master_seed": 11,
    }
    data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)


class TestRunCommand:
    def test_successful_run_writes_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--output-dir", str(out)])
        assert code == 0
        assert "run complete" in capsys.readouterr().out
        for name in (CONFIG_NAME, HISTORY_NAME, SUMMARY_NAME, PARAMS_NAME):
            assert (out / name).exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "seeded"
        assert main(["run", "--config", config, "--output-dir", str(out), "--seed", "42"]) == 0
        written = json.loads((out / CONFIG_NAME).read_text())
        assert written["master_seed"] == 42

    def test_environment_seed_used_when_no_flag(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "env-seed"
        monkeypatch.setenv(ENV_SEED, "7")
        assert main(["run", "--config", config, "--output-dir", str(out)]) == 0
        assert json.loads((out / CONFIG_NAME).read_text())["master_seed"] == 7

    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "both"
        monkeypatch.setenv(ENV_SEED, "7")
        assert main(
            ["run", "--config", config, "--output-dir", str(out), "--seed", "13"]
        ) == 0
        assert json.loads((out / CONFIG_NAME).read_text())["master_seed"] == 13

    def test_environment_output_dir(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out = tmp_path / "from-env"
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(out))
        assert main(["run", "--config", config]) == 0
        assert (out / HISTORY_NAME).exists()

    def test_mode_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path, lam=0.3)
        out = tmp_path / "forced"
        assert main(
            ["run", "--config", config, "--output-dir", str(out), "--mode", "qfl"]
        ) == 0
        written = json.loads((out / CONFIG_NAME).read_text())
        assert written["mode"] == "qfl"
        assert written["lam"] == 0.0

    def test_mode_flag_keeps_the_files_lambda(self, tmp_path):
        config = write_config(tmp_path, mode="qfl", lam=0.3)
        out = tmp_path / "personalized"
        assert main(
            ["run", "--config", config, "--output-dir", str(out), "--mode", "pqfl"]
        ) == 0
        written = json.loads((out / CONFIG_NAME).read_text())
        assert written["mode"] == "pqfl"
        assert written["lam"] == 0.3

    def test_mode_flag_keeps_the_files_client_count(self, tmp_path):
        config = write_config(tmp_path, mode="local", n_clients=5)
        out = tmp_path / "federated"
        assert main(
            ["run", "--config", config, "--output-dir", str(out), "--mode", "pqfl"]
        ) == 0
        written = json.loads((out / CONFIG_NAME).read_text())
        assert written["mode"] == "pqfl"
        assert written["n_clients"] == 5

    def test_missing_output_dir_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", config]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": "pqfl"}))  # dataset missing
        assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "x")]) == 1
        assert "dataset" in capsys.readouterr().err

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["run", "--config", str(tmp_path / "absent.json"),
             "--output-dir", str(tmp_path / "y")]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_runs_each_point(self, tmp_path, capsys):
        config = write_config(tmp_path, sweep={"lambda": [0.0, 0.1]})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", config, "--output-dir", str(out)]) == 0
        assert "2 runs" in capsys.readouterr().out
        assert (out / "lambda_0.0" / HISTORY_NAME).exists()
        assert (out / "lambda_0.1" / HISTORY_NAME).exists()
        assert (out / "sweep_summary.csv").exists()

    def test_bad_point_fails_before_the_first_run(self, tmp_path, capsys):
        config = write_config(tmp_path, client_weights=[0.5, 0.5],
                              sweep={"n_clients": [2, 3]})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", config, "--output-dir", str(out)]) == 1
        assert "n_clients': 3" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_without_axes_fails(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["sweep", "--config", config, "--output-dir", str(tmp_path / "s")]) == 1
        assert "sweep" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_prints_table(self, tmp_path, capsys):
        config = write_config(tmp_path, target_loss=100.0)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config, "--output-dir", str(a)]) == 0
        assert main(
            ["run", "--config", config, "--output-dir", str(b), "--seed", "99"]
        ) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "val_loss" in out and "payload_bits" in out
        assert "delta vs a" in out

    def test_compare_missing_run_fails(self, tmp_path, capsys):
        missing = tmp_path / "nothing"
        missing.mkdir()
        other = tmp_path / "also-nothing"
        other.mkdir()
        assert main(["compare", str(missing), str(other)]) == 1
        assert "missing history" in capsys.readouterr().err

    def test_compare_needs_two_dirs(self, tmp_path, capsys):
        only = tmp_path / "only"
        only.mkdir()
        assert main(["compare", str(only)]) == 1
        assert "at least 2" in capsys.readouterr().err
