"""Experiment configuration: JSON schema, defaults, strict validation.

A config file is a single JSON object. Only `mode` and `dataset` are
required; every other field has a default. Unknown keys are rejected by
name at every nesting level, so typos fail loudly at load time instead of
silently running with a default.

Schema (defaults in parentheses):

    mode            "qfl" | "pqfl" | "local"            required
    dataset         {"kind": "synthetic", n_normal_classes (3), per_class (50),
                     n_anomaly (50), dim (16), separation (6.0)}
                    or {"kind": "csv", path, anomaly_classes}
    master_seed     int (0)
    n_qubits        int (4)
    n_layers        int (3)
    entangler       "linear-chain" | "ring" ("linear-chain")
    global_rounds   int (50)
    local_epochs    int (20)
    eta             float (0.01)
    lam             float (0.1)        forced to 0 by mode qfl/local
    shots           int or null (1000); null = exact probabilities
    batch_size      int (16)
    n_clients       int (10)           forced to 1 by mode local
    client_weights  "uniform" | "by-size" | [floats summing to 1] ("uniform")
    noise           float or [per-client floats] (0.0), depolarizing epsilon
    partition       {"scheme": "iid"} (default)
                    | {"scheme": "dirichlet", "alpha": a}
                    | {"scheme": "step", "remainder": r (0.05)}
    val_fraction    float in (0, 1) (0.2)
    data_fraction   float in (0, 1] (1.0), training-pool subsample
    target_loss     float or null (null)
    bits_per_value  int (32)
    metrics         {"score_method": "max_prob" | "centroid_distance",
                     "threshold": "youden" | float}
    sweep           {axis: [values]} over lambda, epsilon, shots,
                    n_clients, data_fraction
    output_dir      string (overridable by CLI flag / environment)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .core import NoiseSpec, ShotSpec
from .data import (
    SCHEME_DIRICHLET,
    SCHEME_IID,
    SCHEME_STEP,
    PartitionScheme,
)
from .exceptions import ConfigError, ParseError
from .federation import (
    SCORE_CENTROID,
    SCORE_MAX_PROB,
    THRESHOLD_YOUDEN,
    FederationConfig,
)
from .model import LINEAR_CHAIN, RING, CircuitSpec
from .training import MODE_CLASSIFY, TrainConfig

MODE_QFL = "qfl"
MODE_PQFL = "pqfl"
MODE_LOCAL = "local"
MODES = (MODE_QFL, MODE_PQFL, MODE_LOCAL)

WEIGHTS_UNIFORM = "uniform"
WEIGHTS_BY_SIZE = "by-size"

DATASET_SYNTHETIC = "synthetic"
DATASET_CSV = "csv"

# Sweep axes in their canonical expansion order.
SWEEP_AXES = ("lambda", "epsilon", "shots", "n_clients", "data_fraction")

_TOP_KEYS = {
    "mode", "dataset", "master_seed", "n_qubits", "n_layers", "entangler",
    "global_rounds", "local_epochs", "eta", "lam", "shots", "batch_size",
    "n_clients", "client_weights", "noise", "partition", "val_fraction",
    "data_fraction", "target_loss", "bits_per_value", "metrics", "sweep",
    "output_dir",
}
_SYNTH_KEYS = {"kind", "n_normal_classes", "per_class", "n_anomaly", "dim", "separation"}
_CSV_KEYS = {"kind", "path", "anomaly_classes"}
_PARTITION_KEYS = {"scheme", "alpha", "remainder"}
_METRICS_KEYS = {"score_method", "threshold"}


@dataclass(frozen=True)
class DatasetSpec:
    """Where the samples come from: a synthetic benchmark or a CSV file."""

    kind: str
    n_normal_classes: int = 3
    per_class: int = 50
    n_anomaly: int = 50
    dim: int = 16
    separation: float = 6.0
    path: str | None = None
    anomaly_classes: tuple = ()


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: defaults applied, modes normalized."""

    mode: str
    dataset: DatasetSpec
    master_seed: int = 0
    n_qubits: int = 4
    n_layers: int = 3
    entangler: str = LINEAR_CHAIN
    global_rounds: int = 50
    local_epochs: int = 20
    eta: float = 0.01
    lam: float = 0.1
    shots: int | None = 1000
    batch_size: int = 16
    n_clients: int = 10
    client_weights: object = WEIGHTS_UNIFORM
    noise: object = 0.0
    partition: PartitionScheme = field(default_factory=lambda: PartitionScheme(SCHEME_IID))
    val_fraction: float = 0.2
    data_fraction: float = 1.0
    target_loss: float | None = None
    bits_per_value: int = 32
    score_method: str = SCORE_MAX_PROB
    threshold: object = THRESHOLD_YOUDEN
    sweep: dict = field(default_factory=dict)
    output_dir: str | None = None

    def circuit_spec(self) -> CircuitSpec:
        return CircuitSpec(self.n_qubits, self.n_layers, self.entangler)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            eta=self.eta,
            lam=self.lam,
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            mode=MODE_CLASSIFY,
        )

    def shot_spec(self) -> ShotSpec:
        return ShotSpec(self.shots)

    def noise_specs(self) -> tuple:
        if isinstance(self.noise, tuple):
            epsilons = self.noise
        else:
            epsilons = (float(self.noise),) * self.n_clients
        return tuple(NoiseSpec(e) for e in epsilons)

    def resolve_client_weights(self, shard_sizes) -> np.ndarray:
        sizes = np.asarray(shard_sizes, dtype=np.float64)
        if self.client_weights == WEIGHTS_UNIFORM:
            return np.full(self.n_clients, 1.0 / self.n_clients)
        if self.client_weights == WEIGHTS_BY_SIZE:
            return sizes / sizes.sum()
        return np.asarray(self.client_weights, dtype=np.float64)

    def federation_config(self, shard_sizes) -> FederationConfig:
        return FederationConfig(
            n_clients=self.n_clients,
            global_rounds=self.global_rounds,
            client_weights=self.resolve_client_weights(shard_sizes),
            train=self.train_config(),
            spec=self.circuit_spec(),
            shots=self.shot_spec(),
            noise=self.noise_specs(),
            master_seed=self.master_seed,
            bits_per_value=self.bits_per_value,
            score_method=self.score_method,
            threshold=self.threshold,
        )

    def to_mapping(self) -> dict:
        """Snapshot of the resolved experiment, suitable for exact replay.

        Excludes output_dir: it is execution context, not experiment
        identity, so reruns aimed at different directories stay
        byte-identical.
        """
        if self.dataset.kind == DATASET_SYNTHETIC:
            dataset = {
                "kind": DATASET_SYNTHETIC,
                "n_normal_classes": self.dataset.n_normal_classes,
                "per_class": self.dataset.per_class,
                "n_anomaly": self.dataset.n_anomaly,
                "dim": self.dataset.dim,
                "separation": self.dataset.separation,
            }
        else:
            dataset = {
                "kind": DATASET_CSV,
                "path": self.dataset.path,
                "anomaly_classes": list(self.dataset.anomaly_classes),
            }
        partition = {"scheme": self.partition.kind}
        if self.partition.kind == SCHEME_DIRICHLET:
            partition["alpha"] = self.partition.alpha
        if self.partition.kind == SCHEME_STEP:
            partition["remainder"] = self.partition.step_remainder
        weights = self.client_weights
        if isinstance(weights, tuple):
            weights = list(weights)
        noise = self.noise
        if isinstance(noise, tuple):
            noise = list(noise)
        out = {
            "mode": self.mode,
            "dataset": dataset,
            "master_seed": self.master_seed,
            "n_qubits": self.n_qubits,
            "n_layers": self.n_layers,
            "entangler": self.entangler,
            "global_rounds": self.global_rounds,
            "local_epochs": self.local_epochs,
            "eta": self.eta,
            "lam": self.lam,
            "shots": self.shots,
            "batch_size": self.batch_size,
            "n_clients": self.n_clients,
            "client_weights": weights,
            "noise": noise,
            "partition": partition,
            "val_fraction": self.val_fraction,
            "data_fraction": self.data_fraction,
            "target_loss": self.target_loss,
            "bits_per_value": self.bits_per_value,
            "metrics": {"score_method": self.score_method, "threshold": self.threshold},
        }
        if self.sweep:
            out["sweep"] = {axis: list(vals) for axis, vals in self.sweep.items()}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Parsing and validation.

def _require_int(data: dict, key: str, default, minimum=None):
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _require_float(data: dict, key: str, default, lo=None, hi=None,
                   lo_open=False, hi_open=False):
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    value = float(value)
    if lo is not None and (value < lo or (lo_open and value == lo)):
        raise ConfigError(f"{key} out of range: {value}")
    if hi is not None and (value > hi or (hi_open and value == hi)):
        raise ConfigError(f"{key} out of range: {value}")
    return value


def _check_keys(data: dict, allowed: set, where: str) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown {where} key {key!r}")


def _parse_dataset(data, base_dir: str) -> DatasetSpec:
    if not isinstance(data, dict):
        raise ConfigError("dataset must be an object")
    kind = data.get("kind")
    if kind == DATASET_SYNTHETIC:
        _check_keys(data, _SYNTH_KEYS, "dataset")
        return DatasetSpec(
            kind=DATASET_SYNTHETIC,
            n_normal_classes=_require_int(data, "n_normal_classes", 3, minimum=1),
            per_class=_require_int(data, "per_class", 50, minimum=1),
            n_anomaly=_require_int(data, "n_anomaly", 50, minimum=1),
            dim=_require_int(data, "dim", 16, minimum=2),
            separation=_require_float(data, "separation", 6.0, lo=0.0, lo_open=True),
        )
    if kind == DATASET_CSV:
        _check_keys(data, _CSV_KEYS, "dataset")
        if "path" not in data or not isinstance(data["path"], str):
            raise ConfigError("csv dataset needs a string 'path'")
        path = data["path"]
        if not os.path.isabs(path):
            path = os.path.normpath(os.path.join(base_dir, path))
        if not os.path.exists(path):
            raise ConfigError(f"dataset path does not exist: {path}")
        anomalies = data.get("anomaly_classes")
        if (
            not isinstance(anomalies, list)
            or not anomalies
            or not all(isinstance(a, int) and not isinstance(a, bool) for a in anomalies)
        ):
            raise ConfigError("anomaly_classes must be a non-empty list of class ids")
        return DatasetSpec(kind=DATASET_CSV, path=path, anomaly_classes=tuple(anomalies))
    raise ConfigError(f"dataset kind must be 'synthetic' or 'csv', got {kind!r}")


def _parse_partition(data) -> PartitionScheme:
    if not isinstance(data, dict):
        raise ConfigError("partition must be an object")
    _check_keys(data, _PARTITION_KEYS, "partition")
    scheme = data.get("scheme")
    if scheme == SCHEME_IID:
        if "alpha" in data or "remainder" in data:
            raise ConfigError("iid partition takes no extra keys")
        return PartitionScheme(SCHEME_IID)
    if scheme == SCHEME_DIRICHLET:
        if "alpha" not in data:
            raise ConfigError("dirichlet partition needs alpha")
        return PartitionScheme(
            SCHEME_DIRICHLET, alpha=_require_float(data, "alpha", None, lo=0.0, lo_open=True)
        )
    if scheme == SCHEME_STEP:
        return PartitionScheme(
            SCHEME_STEP,
            step_remainder=_require_float(data, "remainder", 0.05, lo=0.0, hi=1.0, hi_open=True),
        )
    raise ConfigError(f"unknown partition scheme {scheme!r}")


def _parse_client_weights(value, n_clients: int):
    if value == WEIGHTS_UNIFORM or value == WEIGHTS_BY_SIZE:
        return value
    if isinstance(value, list):
        if len(value) != n_clients:
            raise ConfigError(
                f"client_weights has {len(value)} entries for {n_clients} clients"
            )
        weights = []
        for w in value:
            if isinstance(w, bool) or not isinstance(w, (int, float)) or w <= 0:
                raise ConfigError(f"client_weights entries must be positive, got {w!r}")
            weights.append(float(w))
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"client_weights sum to {total!r}, not 1")
        return tuple(weights)
    raise ConfigError(
        f"client_weights must be '{WEIGHTS_UNIFORM}', '{WEIGHTS_BY_SIZE}' or a list"
    )


def _parse_noise(value, n_clients: int):
    if isinstance(value, list):
        if len(value) != n_clients:
            raise ConfigError(f"noise lists one epsilon per client; got {len(value)}")
        out = []
        for e in value:
            if isinstance(e, bool) or not isinstance(e, (int, float)) or not 0 <= e <= 1:
                raise ConfigError(f"noise epsilon must lie in [0, 1], got {e!r}")
            out.append(float(e))
        return tuple(out)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise ConfigError(f"noise epsilon must lie in [0, 1], got {value!r}")
    return float(value)


_SWEEP_VALIDATORS = {
    "lambda": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0,
    "epsilon": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= 1,
    "shots": lambda v: v is None or (isinstance(v, int) and not isinstance(v, bool) and v >= 1),
    "n_clients": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
    "data_fraction": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= 1,
}


def _parse_sweep(data) -> dict:
    if not isinstance(data, dict):
        raise ConfigError("sweep must be an object mapping axis -> values")
    out = {}
    for axis in data:
        if axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}")
        values = data[axis]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {axis!r} must be a non-empty list")
        ok = _SWEEP_VALIDATORS[axis]
        for v in values:
            if not ok(v):
                raise ConfigError(f"invalid value {v!r} for sweep axis {axis!r}")
        if len(set(map(repr, values))) != len(values):
            raise ConfigError(f"sweep axis {axis!r} has duplicate values")
        out[axis] = tuple(values)
    return out


def config_from_mapping(data: dict, base_dir: str = ".") -> ExperimentConfig:
    """Validate a parsed config object and apply defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(data, _TOP_KEYS, "config")
    mode = data.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {mode!r}")
    if "dataset" not in data:
        raise ConfigError("config needs a dataset")
    dataset = _parse_dataset(data["dataset"], base_dir)

    n_clients = _require_int(data, "n_clients", 10, minimum=1)
    lam = _require_float(data, "lam", 0.1, lo=0.0)
    client_weights = _parse_client_weights(data.get("client_weights", WEIGHTS_UNIFORM), n_clients)
    # qfl is the lam = 0 special case; local is one client holding everything.
    if mode == MODE_QFL:
        lam = 0.0
    if mode == MODE_LOCAL:
        lam = 0.0
        n_clients = 1
        client_weights = WEIGHTS_UNIFORM

    shots = data.get("shots", 1000)
    if shots is not None and (isinstance(shots, bool) or not isinstance(shots, int) or shots < 1):
        raise ConfigError(f"shots must be a positive integer or null, got {shots!r}")

    target_loss = data.get("target_loss")
    if target_loss is not None:
        target_loss = _require_float(data, "target_loss", None)

    metrics = data.get("metrics", {})
    if not isinstance(metrics, dict):
        raise ConfigError("metrics must be an object")
    _check_keys(metrics, _METRICS_KEYS, "metrics")
    score_method = metrics.get("score_method", SCORE_MAX_PROB)
    if score_method not in (SCORE_MAX_PROB, SCORE_CENTROID):
        raise ConfigError(f"unknown score_method {score_method!r}")
    threshold = metrics.get("threshold", THRESHOLD_YOUDEN)
    if threshold != THRESHOLD_YOUDEN:
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise ConfigError(
                f"threshold must be '{THRESHOLD_YOUDEN}' or a number, got {threshold!r}"
            )
        threshold = float(threshold)

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")

    config = ExperimentConfig(
        mode=mode,
        dataset=dataset,
        master_seed=_require_int(data, "master_seed", 0, minimum=0),
        n_qubits=_require_int(data, "n_qubits", 4, minimum=1),
        n_layers=_require_int(data, "n_layers", 3, minimum=1),
        entangler=data.get("entangler", LINEAR_CHAIN),
        global_rounds=_require_int(data, "global_rounds", 50, minimum=1),
        local_epochs=_require_int(data, "local_epochs", 20, minimum=1),
        eta=_require_float(data, "eta", 0.01, lo=0.0),
        lam=lam,
        shots=shots,
        batch_size=_require_int(data, "batch_size", 16, minimum=1),
        n_clients=n_clients,
        client_weights=client_weights,
        noise=_parse_noise(data.get("noise", 0.0), n_clients),
        partition=_parse_partition(data.get("partition", {"scheme": SCHEME_IID})),
        val_fraction=_require_float(data, "val_fraction", 0.2, lo=0.0, hi=1.0,
                                    lo_open=True, hi_open=True),
        data_fraction=_require_float(data, "data_fraction", 1.0, lo=0.0, hi=1.0,
                                     lo_open=True),
        target_loss=target_loss,
        bits_per_value=_require_int(data, "bits_per_value", 32, minimum=1),
        score_method=score_method,
        threshold=threshold,
        sweep=_parse_sweep(data.get("sweep", {})),
        output_dir=output_dir,
    )
    if config.entangler not in (LINEAR_CHAIN, RING):
        raise ConfigError(f"unknown entangler {config.entangler!r}")
    config.circuit_spec()  # surface width/depth violations at load time
    config.train_config()
    return config


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config.

    Relative dataset paths are resolved against the config file's directory.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: {err}") from err
    return config_from_mapping(data, base_dir=os.path.dirname(os.path.abspath(path)))
