"""Config parsing: defaults, strict key checking, mode normalization."""

import json

import numpy as np
import pytest

from qfedsim.config import (
    MODE_LOCAL,
    MODE_PQFL,
    MODE_QFL,
    WEIGHTS_BY_SIZE,
    WEIGHTS_UNIFORM,
    config_from_mapping,
    load_config,
    sweep_points,
)
from qfedsim.data import SCHEME_DIRICHLET, SCHEME_STEP
from qfedsim.exceptions import ConfigError, ParseError, SimulationError


def minimal(mode=MODE_PQFL, **extra):
    data = {"mode": mode, "dataset": {"kind": "synthetic"}}
    data.update(extra)
    return data


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        config = config_from_mapping(minimal())
        assert config.n_qubits == 4
        assert config.n_layers == 3
        assert config.entangler == "linear-chain"
        assert config.global_rounds == 50
        assert config.local_epochs == 20
        assert config.eta == 0.01
        assert config.lam == 0.1
        assert config.shots == 1000
        assert config.batch_size == 16
        assert config.n_clients == 10
        assert config.client_weights == WEIGHTS_UNIFORM
        assert config.noise == 0.0
        assert config.partition.kind == "iid"
        assert config.val_fraction == 0.2
        assert config.data_fraction == 1.0
        assert config.target_loss is None
        assert config.bits_per_value == 32
        assert config.score_method == "max_prob"
        assert config.threshold == "youden"
        assert config.sweep == {}
        assert config.output_dir is None

    def test_synthetic_dataset_defaults(self):
        ds = config_from_mapping(minimal()).dataset
        assert (ds.n_normal_classes, ds.per_class, ds.n_anomaly) == (3, 50, 50)
        assert (ds.dim, ds.separation) == (16, 6.0)

    def test_required_fields(self):
        with pytest.raises(ConfigError, match="mode"):
            config_from_mapping({"dataset": {"kind": "synthetic"}})
        with pytest.raises(ConfigError, match="dataset"):
            config_from_mapping({"mode": MODE_PQFL})
        with pytest.raises(ConfigError, match="mode"):
            config_from_mapping(minimal(mode="federated"))


class TestStrictKeys:
    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="'learning_rate'"):
            config_from_mapping(minimal(learning_rate=0.1))

    def test_unknown_dataset_key_named(self):
        data = minimal()
        data["dataset"]["n_classes"] = 3
        with pytest.raises(ConfigError, match="'n_classes'"):
            config_from_mapping(data)

    def test_unknown_partition_key_named(self):
        with pytest.raises(ConfigError, match="'beta'"):
            config_from_mapping(minimal(partition={"scheme": "iid", "beta": 1}))

    def test_unknown_metrics_key_named(self):
        with pytest.raises(ConfigError, match="'cutoff'"):
            config_from_mapping(minimal(metrics={"cutoff": 0.5}))


class TestModeNormalization:
    def test_qfl_forces_lambda_to_zero(self):
        config = config_from_mapping(minimal(mode=MODE_QFL, lam=0.7))
        assert config.lam == 0.0

    def test_pqfl_keeps_lambda(self):
        config = config_from_mapping(minimal(mode=MODE_PQFL, lam=0.7))
        assert config.lam == 0.7

    def test_local_is_one_client_no_proximal(self):
        config = config_from_mapping(
            minimal(mode=MODE_LOCAL, lam=0.7, n_clients=8)
        )
        assert config.lam == 0.0
        assert config.n_clients == 1
        assert config.client_weights == WEIGHTS_UNIFORM


class TestFieldValidation:
    def test_integer_fields_reject_bools_and_floats(self):
        with pytest.raises(ConfigError, match="n_qubits"):
            config_from_mapping(minimal(n_qubits=True))
        with pytest.raises(ConfigError, match="global_rounds"):
            config_from_mapping(minimal(global_rounds=1.5))
        with pytest.raises(ConfigError, match="local_epochs"):
            config_from_mapping(minimal(local_epochs=0))

    def test_eta_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="eta"):
            config_from_mapping(minimal(eta=-0.01))
        assert config_from_mapping(minimal(eta=0)).eta == 0.0

    def test_shots_positive_or_null(self):
        assert config_from_mapping(minimal(shots=None)).shots is None
        assert config_from_mapping(minimal(shots=32)).shots == 32
        with pytest.raises(ConfigError, match="shots"):
            config_from_mapping(minimal(shots=0))
        with pytest.raises(ConfigError, match="shots"):
            config_from_mapping(minimal(shots=100.0))

    def test_fractions_are_open_intervals(self):
        with pytest.raises(ConfigError, match="val_fraction"):
            config_from_mapping(minimal(val_fraction=0.0))
        with pytest.raises(ConfigError, match="val_fraction"):
            config_from_mapping(minimal(val_fraction=1.0))
        with pytest.raises(ConfigError, match="data_fraction"):
            config_from_mapping(minimal(data_fraction=0.0))
        assert config_from_mapping(minimal(data_fraction=1.0)).data_fraction == 1.0

    def test_entangler_checked(self):
        with pytest.raises(ConfigError, match="entangler"):
            config_from_mapping(minimal(entangler="all-to-all"))
        assert config_from_mapping(minimal(entangler="ring")).entangler == "ring"


class TestClientWeights:
    def test_explicit_list_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="0.9"):
            config_from_mapping(
                minimal(n_clients=2, client_weights=[0.5, 0.4])
            )

    def test_explicit_list_length_checked(self):
        with pytest.raises(ConfigError, match="3 entries"):
            config_from_mapping(
                minimal(n_clients=2, client_weights=[0.5, 0.3, 0.2])
            )

    def test_non_positive_entries_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            config_from_mapping(
                minimal(n_clients=2, client_weights=[1.0, 0.0])
            )

    def test_valid_list_kept_as_tuple(self):
        config = config_from_mapping(
            minimal(n_clients=2, client_weights=[0.25, 0.75])
        )
        assert config.client_weights == (0.25, 0.75)
        assert np.array_equal(
            config.resolve_client_weights((5, 5)), np.array([0.25, 0.75])
        )

    def test_by_size_weights(self):
        config = config_from_mapping(minimal(n_clients=2, client_weights=WEIGHTS_BY_SIZE))
        assert np.allclose(config.resolve_client_weights((30, 10)), [0.75, 0.25])


class TestNoise:
    def test_scalar_broadcasts(self):
        config = config_from_mapping(minimal(n_clients=3, noise=0.25))
        specs = config.noise_specs()
        assert len(specs) == 3
        assert all(s.epsilon == 0.25 and s.active for s in specs)

    def test_zero_noise_is_disabled(self):
        specs = config_from_mapping(minimal(n_clients=2)).noise_specs()
        assert all(not s.active for s in specs)

    def test_per_client_list(self):
        config = config_from_mapping(minimal(n_clients=2, noise=[0.0, 0.5]))
        specs = config.noise_specs()
        assert specs[0].epsilon == 0.0 and not specs[0].active
        assert specs[1].epsilon == 0.5 and specs[1].active

    def test_list_arity_checked(self):
        with pytest.raises(ConfigError, match="noise"):
            config_from_mapping(minimal(n_clients=3, noise=[0.1, 0.2]))

    def test_range_checked(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(noise=1.5))
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(noise=-0.1))


class TestPartitionParsing:
    def test_dirichlet_requires_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            config_from_mapping(minimal(partition={"scheme": "dirichlet"}))
        config = config_from_mapping(
            minimal(partition={"scheme": "dirichlet", "alpha": 0.01})
        )
        assert config.partition.kind == SCHEME_DIRICHLET
        assert config.partition.alpha == 0.01

    def test_iid_takes_no_extras(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(partition={"scheme": "iid", "alpha": 1.0}))

    def test_step_remainder_default_and_override(self):
        config = config_from_mapping(minimal(partition={"scheme": "step"}))
        assert config.partition.kind == SCHEME_STEP
        assert config.partition.step_remainder == 0.05
        config = config_from_mapping(
            minimal(partition={"scheme": "step", "remainder": 0.0})
        )
        assert config.partition.step_remainder == 0.0

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="scheme"):
            config_from_mapping(minimal(partition={"scheme": "zipf"}))


class TestMetricsAndSweep:
    def test_metrics_values_checked(self):
        with pytest.raises(ConfigError, match="score_method"):
            config_from_mapping(minimal(metrics={"score_method": "entropy"}))
        with pytest.raises(ConfigError, match="threshold"):
            config_from_mapping(minimal(metrics={"threshold": "median"}))
        config = config_from_mapping(
            minimal(metrics={"score_method": "centroid_distance", "threshold": 0.4})
        )
        assert config.score_method == "centroid_distance"
        assert config.threshold == 0.4

    def test_sweep_axes_checked(self):
        with pytest.raises(ConfigError, match="axis"):
            config_from_mapping(minimal(sweep={"qubits": [2, 4]}))
        with pytest.raises(ConfigError, match="non-empty"):
            config_from_mapping(minimal(sweep={"lambda": []}))
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_mapping(minimal(sweep={"lambda": [0.1, 0.1]}))

    def test_sweep_value_types_checked(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(sweep={"epsilon": [2.0]}))
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(sweep={"shots": [0]}))
        config = config_from_mapping(
            minimal(sweep={"shots": [100, None], "lambda": [0.0, 0.1]})
        )
        assert config.sweep == {"shots": (100, None), "lambda": (0.0, 0.1)}


class TestSweepPoints:
    def test_points_in_canonical_order_with_parsed_values(self):
        config = config_from_mapping(
            minimal(n_clients=2, sweep={"epsilon": [0.5, 0], "lambda": [1, 0.1]})
        )
        points = sweep_points(config)
        assert [point for point, _ in points] == [
            {"lambda": 0.1, "epsilon": 0}, {"lambda": 0.1, "epsilon": 0.5},
            {"lambda": 1, "epsilon": 0}, {"lambda": 1, "epsilon": 0.5},
        ]
        assert [(c.lam, c.noise) for _, c in points] == [
            (0.1, 0.0), (0.1, 0.5), (1.0, 0.0), (1.0, 0.5)
        ]
        assert all(c.sweep == {} for _, c in points)

    def test_every_point_is_checked_at_load(self, tmp_path):
        out = tmp_path / "sweep"
        data = minimal(n_clients=2, client_weights=[0.5, 0.5],
                       sweep={"n_clients": [2, 3]}, output_dir=str(out))
        with pytest.raises(ConfigError, match=r"sweep point \{'n_clients': 3\}"):
            config_from_mapping(data)
        assert not out.exists()


# Per top-level key: a value of the wrong JSON type, then values out of
# range, each with the name its error must carry. A nested key in the
# metrics object is named by itself.
BAD_VALUES = {
    "mode": [3, "federated"],
    "dataset": [[], {"kind": "synthetic", "dim": 1}],
    "master_seed": ["0", -1],
    "n_qubits": [4.0, 0, 99],
    "n_layers": ["3", 0],
    "entangler": [1, "star"],
    "global_rounds": [True, 0],
    "local_epochs": [2.5, 0],
    "eta": ["fast", -0.1],
    "lam": [None, -0.5],
    "noise": ["low", 1.5, [0.1, -0.1]],
    "shots": [100.0, 0],
    "batch_size": [[16], 0],
    "n_clients": ["3", 0, -2],
    "client_weights": [0.5, "equal", [0.2] * 10, [0.5] * 2],
    "partition": ["iid", {"scheme": "dirichlet", "alpha": -1.0},
                  {"scheme": "step", "remainder": 1.0}],
    "val_fraction": ["0.2", 1.0],
    "data_fraction": [None, 1.5],
    "target_loss": ["low"],
    "bits_per_value": [32.0, 0],
    "metrics": [[], {"score_method": 1}, {"threshold": True}],
    "sweep": [[0.1], {"lambda": ["a"]}, {"lambda": [-1.0]}, {"epsilon": [2.0]}],
    "output_dir": [5],
}
NESTED_OUT_OF_RANGE = {
    "metrics": [({"score_method": "entropy"}, "score_method"),
                ({"threshold": "median"}, "threshold")],
}


class TestErrorsNameTheKey:
    def test_every_top_level_key_is_covered(self):
        config = config_from_mapping(minimal(sweep={"lambda": [0.1]}))
        assert set(BAD_VALUES) == set(config.to_mapping()) | {"output_dir"}

    @pytest.mark.parametrize(
        "key, value, named",
        [(key, value, key) for key, values in BAD_VALUES.items() for value in values]
        + [(key, value, named) for key, cases in NESTED_OUT_OF_RANGE.items()
           for value, named in cases],
    )
    def test_bad_value_names_its_key(self, key, value, named):
        with pytest.raises(SimulationError, match=rf"\b{named}\b"):
            config_from_mapping(minimal(**{key: value}))


class TestSnapshot:
    def test_round_trip_preserves_resolved_config(self):
        partitions = ({"scheme": "dirichlet", "alpha": 0.5}, {"scheme": "iid"},
                      {"scheme": "step", "remainder": 0.1})
        for mode in (MODE_PQFL, MODE_QFL, MODE_LOCAL):
            for partition in partitions:
                config = config_from_mapping(
                    minimal(
                        mode=mode,
                        lam=0.3,
                        n_clients=2,
                        client_weights=[0.25, 0.75],
                        # local runs one client, so it takes one epsilon
                        noise=[0.1] if mode == MODE_LOCAL else [0.1, 0.2],
                        partition=partition,
                        sweep={"lambda": [0.0, 0.1]},
                        output_dir="/tmp/somewhere",
                    )
                )
                replayed = config_from_mapping(json.loads(config.to_json()))
                assert replayed == type(replayed)(**{**replayed.__dict__})
                assert replayed.to_json() == config.to_json()

    def test_snapshot_excludes_output_dir(self):
        config = config_from_mapping(minimal(output_dir="/tmp/x"))
        assert "output_dir" in config.__dict__
        assert "output_dir" not in config.to_mapping()

    def test_snapshot_is_sorted_json(self):
        text = config_from_mapping(minimal()).to_json()
        data = json.loads(text)
        assert list(data.keys()) == sorted(data.keys())
        assert text.endswith("\n")


class TestCsvDataset:
    def test_missing_path_rejected(self, tmp_path):
        data = minimal()
        data["dataset"] = {"kind": "csv", "path": "nope.csv", "anomaly_classes": [1]}
        with pytest.raises(ConfigError, match="does not exist"):
            config_from_mapping(data, base_dir=str(tmp_path))

    def test_relative_path_resolved_against_config_dir(self, tmp_path):
        (tmp_path / "features.csv").write_text("1.0,2.0,0\n3.0,4.0,1\n")
        config_path = tmp_path / "experiment.json"
        config_path.write_text(
            json.dumps(
                {
                    "mode": "pqfl",
                    "dataset": {
                        "kind": "csv",
                        "path": "features.csv",
                        "anomaly_classes": [1],
                    },
                }
            )
        )
        config = load_config(config_path)
        assert config.dataset.path == str(tmp_path / "features.csv")
        assert config.dataset.anomaly_classes == (1,)

    def test_anomaly_classes_required(self, tmp_path):
        (tmp_path / "f.csv").write_text("1.0,0\n")
        data = minimal()
        data["dataset"] = {"kind": "csv", "path": "f.csv"}
        with pytest.raises(ConfigError, match="anomaly_classes"):
            config_from_mapping(data, base_dir=str(tmp_path))


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_config(path)

    def test_valid_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(minimal(master_seed=7)))
        config = load_config(path)
        assert config.master_seed == 7

    def write(self, tmp_path, **extra):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(minimal(**extra)))
        return path

    def test_mode_override_renormalizes_lambda(self, tmp_path):
        path = self.write(tmp_path, lam=0.3, output_dir="/tmp/keep-me")
        config = load_config(path, {"mode": MODE_QFL})
        assert config.mode == MODE_QFL
        assert config.lam == 0.0
        assert config.output_dir == "/tmp/keep-me"

    def test_seed_override(self, tmp_path):
        path = self.write(tmp_path, master_seed=3)
        assert load_config(path, {"master_seed": 99}).master_seed == 99
        with pytest.raises(ConfigError, match="master_seed"):
            load_config(path, {"master_seed": -1})

    def test_output_dir_override_wins(self, tmp_path):
        path = self.write(tmp_path, output_dir="/tmp/original")
        assert load_config(path, {"output_dir": "/tmp/flag"}).output_dir == "/tmp/flag"

    def test_no_overrides_is_identity(self, tmp_path):
        path = self.write(tmp_path, output_dir="/tmp/x")
        assert load_config(path, {}) == load_config(path)
