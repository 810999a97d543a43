"""Experiment configuration: one field table for keys, defaults and parsing.

A config file is a single JSON object; README's "Config schema" table is its
prose schema. Each top-level key is one `ExperimentConfig` field whose
metadata holds its JSON default and its parser, so the key set, the
defaults, parsing and the `to_mapping` snapshot all come from that one
listing. Fields with a `group` sit in the object of that name (`metrics`);
the synthetic dataset keys are the `DatasetSpec` fields with a parser.
Unknown keys are rejected by name at every nesting level, so typos fail
loudly at load time instead of silently running with a default.

Parsers check JSON types and name the key. Range rules live in the spec
types a config builds (`CircuitSpec`, `TrainConfig`, `ShotSpec`,
`NoiseSpec`, `PartitionScheme`, `FederationConfig`); building an
`ExperimentConfig` builds them, and every sweep point, so a bad value fails
at load time.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import NoiseSpec, ShotSpec
from .data import SCHEME_DIRICHLET, SCHEME_IID, SCHEME_STEP, PartitionScheme
from .exceptions import ConfigError, ParseError, SimulationError
from .federation import SCORE_MAX_PROB, THRESHOLD_YOUDEN, FederationConfig
from .model import LINEAR_CHAIN, CircuitSpec
from .training import TrainConfig

MODE_QFL = "qfl"
MODE_PQFL = "pqfl"
MODE_LOCAL = "local"
MODES = (MODE_QFL, MODE_PQFL, MODE_LOCAL)

WEIGHTS_UNIFORM = "uniform"
WEIGHTS_BY_SIZE = "by-size"

DATASET_SYNTHETIC = "synthetic"
DATASET_CSV = "csv"

# The JSON object that holds the fields whose group it is: score_method, threshold.
_METRICS = "metrics"

# Each partition scheme's optional keys, and the PartitionScheme field each sets.
_SCHEME_KEYS = {
    SCHEME_IID: {},
    SCHEME_DIRICHLET: {"alpha": "alpha"},
    SCHEME_STEP: {"remainder": "step_remainder"},
}


# ---------------------------------------------------------------------------
# Parsers: each maps a JSON value to a field value. Errors leave out the key;
# `_at` puts it in front.

def _at(key: str, parse, value, *args):
    """parse(value, *args), naming `key` in front of any config error."""
    try:
        return parse(value, *args)
    except ConfigError as err:
        raise ConfigError(f"{key}: {err}") from None


def _check_keys(data: dict, allowed) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}")


def _typed(types, what: str):
    """A parser that passes a value of `types`, never a bool, as it is."""
    def parse_typed(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"must be {what}, got {value!r}")
        return value
    return parse_typed


def _within(parse, test, rule: str):
    def parse_within(value):
        value = parse(value)
        if not test(value):
            raise ConfigError(f"must be {rule}, got {value!r}")
        return value
    return parse_within


_integer = _typed(int, "an integer")
_string = _typed(str, "a string")
_object = _typed(dict, "an object")
_list = _within(_typed(list, "a list"), len, "non-empty")


def _number(value) -> float:
    try:
        number = float(_typed((int, float), "a number")(value))
    except OverflowError:  # an integer literal beyond the float range
        number = np.inf
    if not np.isfinite(number):
        raise ConfigError(f"must be finite, got {value!r}")
    return number


def _optional(parse):
    return lambda value: None if value is None else parse(value)


def _at_least(minimum: int):
    return _within(_integer, lambda v: v >= minimum, f">= {minimum}")


def _choice(*options):
    def parse_choice(value):
        if value not in options:
            raise ConfigError(f"must be one of {', '.join(options)}; got {value!r}")
        return value
    return parse_choice


def _epsilon(value) -> float:
    return NoiseSpec(_number(value)).epsilon


def _noise(value):
    """One epsilon for every client, or a list of one per client."""
    if isinstance(value, list):
        return tuple(map(_epsilon, value))
    return _epsilon(value)


def _client_weights(value):
    if value in (WEIGHTS_UNIFORM, WEIGHTS_BY_SIZE):
        return value
    if not isinstance(value, list):
        raise ConfigError(
            f"must be '{WEIGHTS_UNIFORM}', '{WEIGHTS_BY_SIZE}' or a list, got {value!r}"
        )
    return tuple(map(_number, value))


def _threshold(value):
    return value if isinstance(value, str) else _number(value)


def _partition(value) -> PartitionScheme:
    scheme = _at("scheme", _string, _object(value).get("scheme"))
    keys = _SCHEME_KEYS.get(scheme, {})
    _check_keys(value, {"scheme", *keys})
    return PartitionScheme(
        scheme, **{keys[k]: _at(k, _number, v) for k, v in value.items() if k in keys}
    )


def _partition_mapping(scheme: PartitionScheme) -> dict:
    return {"scheme": scheme.kind,
            **{k: getattr(scheme, attr) for k, attr in _SCHEME_KEYS[scheme.kind].items()}}


def _sweep(value) -> dict:
    """{axis: values as written}; each point is checked when built."""
    out = {}
    for axis, values in _object(value).items():
        if axis not in SWEEP_AXES:
            raise ConfigError(f"unknown axis {axis!r}")
        for v in _at(f"axis {axis!r}", _list, values):
            _at(f"axis {axis!r}", _optional(_number), v)
        if len(set(map(repr, values))) != len(values):
            raise ConfigError(f"axis {axis!r} has duplicate values")
        out[axis] = tuple(values)
    return out


def _plain(value):
    """A parsed value as JSON data: tuples become lists."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _key(default, parse, dump=_plain, **meta):
    """A config field: the JSON `default` taken when its key is absent, its
    `parse`r, and the `dump` that writes it to the snapshot (None: left out).
    Optional: the `group` object it sits in, its sweep `axis` name (True: its
    own name), and `in_dir` for a parser that also takes the config's
    directory."""
    return field(metadata={"default": default, "parse": parse, "dump": dump, **meta})


def _table(cls) -> tuple:
    return tuple(f for f in fields(cls) if "parse" in f.metadata)


def _parse_keys(data: dict, table, allowed=(), base_dir=None) -> dict:
    """{field name: value} for each field of `table`, read from `data`, or from
    the object named by its group; every other key, bar `allowed`, is refused."""
    groups = {f.metadata["group"] for f in table if "group" in f.metadata}
    _check_keys(data, {f.name for f in table if "group" not in f.metadata} | groups | set(allowed))
    scopes = {None: data}
    for group in groups:
        scopes[group] = _at(group, _object, data.get(group, {}))
        _at(group, _check_keys, scopes[group],
            {f.name for f in table if f.metadata.get("group") == group})
    out = {}
    for f in table:
        group = f.metadata.get("group")
        key = f.name if group is None else f"{group}: {f.name}"
        args = (base_dir,) if f.metadata.get("in_dir") else ()
        raw = scopes[group].get(f.name, f.metadata["default"])
        out[f.name] = _at(key, f.metadata["parse"], raw, *args)
    return out


def _set(obj, **values) -> None:
    for name, value in values.items():
        object.__setattr__(obj, name, value)


# ---------------------------------------------------------------------------
# The field tables.

@dataclass(frozen=True)
class DatasetSpec:
    """Where the samples come from: a synthetic benchmark, whose keys are the
    fields with a parser, or a CSV file at `path`. A CSV dataset keeps the
    synthetic fields at their defaults."""

    kind: str
    n_normal_classes: int = _key(3, _at_least(1))
    per_class: int = _key(50, _at_least(1))
    n_anomaly: int = _key(50, _at_least(1))
    dim: int = _key(16, _at_least(2))
    separation: float = _key(6.0, _within(_number, lambda v: v > 0, "> 0"))
    path: str | None = None
    anomaly_classes: tuple = ()


def _dataset(value, base_dir: str) -> DatasetSpec:
    kind = _at("kind", _choice(DATASET_SYNTHETIC, DATASET_CSV), _object(value).get("kind"))
    if kind == DATASET_SYNTHETIC:
        return DatasetSpec(kind, **_parse_keys(value, _table(DatasetSpec), {"kind"}))
    _check_keys(value, {"kind", "path", "anomaly_classes"})
    path = _at("path", _string, value.get("path"))
    if not os.path.isabs(path):
        path = os.path.normpath(os.path.join(base_dir, path))
    if not os.path.exists(path):
        raise ConfigError(f"path does not exist: {path}")
    if os.path.isdir(path):
        raise ConfigError(f"path is a directory, not a CSV file: {path}")
    anomalies = _at("anomaly_classes", _list, value.get("anomaly_classes"))
    anomalies = tuple(_at("anomaly_classes", _integer, a) for a in anomalies)
    return DatasetSpec(kind, **_parse_keys({}, _table(DatasetSpec)), path=path,
                       anomaly_classes=anomalies)


def _dataset_mapping(spec: DatasetSpec) -> dict:
    if spec.kind == DATASET_CSV:
        return {"kind": spec.kind, "path": spec.path,
                "anomaly_classes": list(spec.anomaly_classes)}
    return {"kind": spec.kind, **{f.name: getattr(spec, f.name) for f in _table(DatasetSpec)}}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment, one field per config key.

    Building one normalizes the mode (qfl is the lam = 0 special case; local
    is one client holding everything, with no proximal pull) and then builds
    the spec types, which check every range rule, for it and for each of its
    sweep points.
    """

    mode: str = _key(None, _choice(*MODES))
    dataset: DatasetSpec = _key(None, _dataset, _dataset_mapping, in_dir=True)
    master_seed: int = _key(0, _at_least(0))
    n_qubits: int = _key(4, _integer)
    n_layers: int = _key(3, _integer)
    entangler: str = _key(LINEAR_CHAIN, _string)
    global_rounds: int = _key(50, _integer)
    local_epochs: int = _key(20, _integer)
    eta: float = _key(0.01, _number)
    lam: float = _key(0.1, _number, axis="lambda")
    noise: object = _key(0.0, _noise, axis="epsilon")
    shots: int | None = _key(1000, _optional(_integer), axis=True)
    batch_size: int = _key(16, _integer)
    n_clients: int = _key(10, _integer, axis=True)
    client_weights: object = _key(WEIGHTS_UNIFORM, _client_weights)
    partition: PartitionScheme = _key({"scheme": SCHEME_IID}, _partition, _partition_mapping)
    val_fraction: float = _key(0.2, _within(_number, lambda v: 0 < v < 1, "in (0, 1)"))
    data_fraction: float = _key(
        1.0, _within(_number, lambda v: 0 < v <= 1, "in (0, 1]"), axis=True
    )
    target_loss: float | None = _key(None, _optional(_number))
    bits_per_value: int = _key(32, _integer)
    score_method: str = _key(SCORE_MAX_PROB, _string, group=_METRICS)
    threshold: object = _key(THRESHOLD_YOUDEN, _threshold, group=_METRICS)
    sweep: dict = _key({}, _sweep)
    output_dir: str | None = _key(None, _optional(_string), dump=None)

    def __post_init__(self):
        if self.mode != MODE_PQFL:
            _set(self, lam=0.0)
        if self.mode == MODE_LOCAL:
            _set(self, n_clients=1, client_weights=WEIGHTS_UNIFORM)
        # Shard sizes only scale by-size weights, so any positive ones check the rules.
        self.federation_config([1] * self.n_clients)
        if self.sweep:
            sweep_points(self)

    def federation_config(self, shard_sizes) -> FederationConfig:
        sizes = np.asarray(shard_sizes, dtype=np.float64)
        if self.client_weights == WEIGHTS_UNIFORM:
            weights = np.ones_like(sizes) / sizes.size
        elif self.client_weights == WEIGHTS_BY_SIZE:
            weights = sizes / sizes.sum()
        else:
            weights = np.asarray(self.client_weights, dtype=np.float64)
        return FederationConfig(
            n_clients=self.n_clients,
            global_rounds=self.global_rounds,
            client_weights=weights,
            train=TrainConfig(eta=self.eta, lam=self.lam, local_epochs=self.local_epochs,
                              batch_size=self.batch_size),
            spec=CircuitSpec(self.n_qubits, self.n_layers, self.entangler),
            shots=ShotSpec(self.shots),
            noise=(tuple(map(NoiseSpec, self.noise)) if isinstance(self.noise, tuple)
                   else (NoiseSpec(self.noise),) * self.n_clients),
            master_seed=self.master_seed,
            bits_per_value=self.bits_per_value,
            score_method=self.score_method,
            threshold=self.threshold,
        )

    def to_mapping(self) -> dict:
        """Snapshot of the resolved experiment, suitable for exact replay.

        Excludes output_dir: it is execution context, not experiment
        identity, so reruns aimed at different directories stay
        byte-identical. An empty sweep is left out too.
        """
        out = {}
        for f in _table(ExperimentConfig):
            value, dump = getattr(self, f.name), f.metadata["dump"]
            if dump is None or value == {}:
                continue
            group = f.metadata.get("group")
            (out if group is None else out.setdefault(group, {}))[f.name] = dump(value)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_mapping(), indent=2, sort_keys=True) + "\n"


# Sweep axes in their canonical expansion order, which is the table's order.
SWEEP_AXES = {
    (f.name if f.metadata["axis"] is True else f.metadata["axis"]): f
    for f in _table(ExperimentConfig) if "axis" in f.metadata
}


def sweep_points(config: ExperimentConfig) -> list:
    """[(point, config)] over the product of the config's sweep axes.

    Axes come in SWEEP_AXES order and values ascending, exact shots last.
    `point` maps each axis to its value as written; its config has that
    value parsed into the axis's field and no sweep. Building each point
    checks it, so a bad point fails here, naming the point.
    """
    axes = [(axis, sorted(config.sweep[axis], key=lambda v: (v is None, v or 0)))
            for axis in SWEEP_AXES if axis in config.sweep]
    points = []
    for combo in itertools.product(*(values for _, values in axes)):
        point = {axis: value for (axis, _), value in zip(axes, combo)}
        try:
            changes = {SWEEP_AXES[axis].name: _at(SWEEP_AXES[axis].name,
                                                  SWEEP_AXES[axis].metadata["parse"], value)
                       for axis, value in point.items()}
            points.append((point, replace(config, sweep={}, **changes)))
        except SimulationError as err:
            raise type(err)(f"sweep point {point}: {err}") from None
    return points


def config_from_mapping(data: dict, base_dir: str = ".") -> ExperimentConfig:
    """Validate a parsed config object and apply defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return ExperimentConfig(**_parse_keys(data, _table(ExperimentConfig), base_dir=base_dir))


def load_config(path, overrides=None) -> ExperimentConfig:
    """Read and validate a JSON experiment config.

    `overrides` maps config keys to values that replace the file's before
    the one parse, so mode normalization sees the file's other values.
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
    if isinstance(data, dict) and overrides:
        data = {**data, **overrides}
    return config_from_mapping(data, base_dir=os.path.dirname(os.path.abspath(path)))
