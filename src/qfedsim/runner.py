"""End-to-end experiments: dataset assembly, splitting, runs, sweeps, compare.

A run writes one directory:

    config.json      resolved experiment snapshot (replayable)
    partition.json   client shard manifest + heterogeneity stats
    history.csv      one row per global round
    summary.json     final metrics, rounds-to-target, payload totals
    params.bin       final global parameters

Everything downstream of (config, master_seed) is deterministic, so a rerun
into a fresh directory reproduces every artifact byte for byte.

The directory appears whole or not at all: the artifacts are written to a
hidden sibling directory that is renamed into place once all five are
complete. A re-run replaces a previous run's directory; a directory holding
anything else is refused, never deleted.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from dataclasses import dataclass, replace

import numpy as np

from .config import DATASET_SYNTHETIC, ExperimentConfig, sweep_points
from .data import (
    LabeledDataset,
    heterogeneity,
    load_features,
    partition,
    reduce_features,
    synth_anomaly_dataset,
    with_anomaly_classes,
)
from .exceptions import ConfigError, DataError
from .federation import RoundHistory, run_federation
from .model import save_params
from .seeding import STAGE_DATA, STAGE_SPLIT, STAGE_PARTITION, derive_rng

CONFIG_NAME = "config.json"
PARTITION_NAME = "partition.json"
HISTORY_NAME = "history.csv"
SUMMARY_NAME = "summary.json"
PARAMS_NAME = "params.bin"
ARTIFACT_NAMES = frozenset(
    (CONFIG_NAME, PARTITION_NAME, HISTORY_NAME, SUMMARY_NAME, PARAMS_NAME)
)

# Sub-stream tags under STAGE_DATA.
_SUBSTAGE_PROJECT = 1


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    output_dir: str
    history: RoundHistory
    summary: dict


def build_dataset(config: ExperimentConfig) -> LabeledDataset:
    """Materialize the configured dataset, projected down to the circuit's
    capacity (2^n amplitudes) when the raw features are wider."""
    if config.dataset.kind == DATASET_SYNTHETIC:
        dataset = synth_anomaly_dataset(
            config.dataset.n_normal_classes,
            config.dataset.per_class,
            config.dataset.n_anomaly,
            config.dataset.dim,
            config.dataset.separation,
            derive_rng(config.master_seed, STAGE_DATA),
        )
    else:
        dataset = load_features(config.dataset.path)
        dataset = with_anomaly_classes(dataset, config.dataset.anomaly_classes)
    capacity = 1 << config.n_qubits
    if dataset.feature_dim > capacity:
        dataset = reduce_features(
            dataset, capacity, derive_rng(config.master_seed, STAGE_DATA, _SUBSTAGE_PROJECT)
        )
    return dataset


def split_dataset(dataset: LabeledDataset, val_fraction: float, data_fraction: float,
                  master_seed: int) -> tuple:
    """(train, validation) split.

    All anomalies go to validation (the model never trains on them); normal
    samples are shuffled once, val_fraction of them join the validation set,
    and data_fraction keeps a prefix of the remaining training pool. The
    shuffle depends only on master_seed, so shrinking data_fraction yields
    nested training subsets and an unchanged validation set.
    """
    labels = dataset.labels
    anomaly_ids = sorted(dataset.anomaly_classes)
    if not anomaly_ids:
        raise DataError("dataset has no anomaly classes to validate against")
    is_anomaly = np.isin(labels, anomaly_ids)
    anomaly_idx = np.flatnonzero(is_anomaly)
    if anomaly_idx.size == 0:
        raise DataError("no anomaly samples present")
    normal_idx = np.flatnonzero(~is_anomaly)
    rng = derive_rng(master_seed, STAGE_SPLIT)
    shuffled = normal_idx[rng.permutation(normal_idx.size)]
    n_val = int(round(val_fraction * normal_idx.size))
    if n_val < 1 or n_val >= normal_idx.size:
        raise DataError(
            f"val_fraction {val_fraction} leaves no usable split "
            f"of {normal_idx.size} normal samples"
        )
    val_normals = shuffled[:n_val]
    pool = shuffled[n_val:]
    keep = max(1, int(round(data_fraction * pool.size)))
    train_idx = np.sort(pool[:keep])
    val_idx = np.sort(np.concatenate([val_normals, anomaly_idx]))
    return dataset.subset(train_idx), dataset.subset(val_idx)


def _rounds_to_target(history: RoundHistory, target_loss) -> int | None:
    if target_loss is None:
        return None
    for record in history.records:
        if record.val_loss <= target_loss:
            return record.round_index + 1
    return None


def _build_summary(config: ExperimentConfig, history: RoundHistory, stats,
                   n_train: int, n_validation: int) -> dict:
    last = history.records[-1]
    return {
        "mode": config.mode,
        "lam": config.lam,
        "master_seed": config.master_seed,
        "global_rounds": config.global_rounds,
        "n_train": n_train,
        "n_validation": n_validation,
        "heterogeneity": stats.avg_pairwise_kl,
        "final": {
            "val_loss": last.val_loss,
            "fe_pct": last.fe_pct,
            "me_pct": last.me_pct,
            "auroc": last.auroc,
            "aupr": last.aupr,
        },
        "target_loss": config.target_loss,
        "rounds_to_target": _rounds_to_target(history, config.target_loss),
        "total_payload_bits": sum(r.payload_bits for r in history.records),
        "payload_counts": ("per round, one client's upload and download of all L*n angles, "
                           "K*2**n head weights and K head biases, bits_per_value bits each"),
        "total_circuit_evals": sum(r.circuit_evals for r in history.records),
        "params_checksum": last.params_checksum,
    }


def _partition_manifest(partitioned, stats) -> dict:
    return {
        "scheme": partitioned.scheme,
        "n_clients": partitioned.n_clients,
        "shards": [[int(i) for i in shard] for shard in partitioned.shards],
        "class_ids": [int(c) for c in partitioned.dataset.class_ids],
        "class_histograms": stats.class_histograms.tolist(),
        "avg_pairwise_kl": stats.avg_pairwise_kl,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check_replaceable(out: str) -> None:
    """A run may replace `out` only if it is absent or holds run artifacts alone."""
    if not os.path.lexists(out):
        return
    if not os.path.isdir(out) or os.path.islink(out):
        raise ConfigError(f"output path {out} exists and is not a directory")
    foreign = sorted(set(os.listdir(out)) - ARTIFACT_NAMES)
    if foreign:
        raise ConfigError(
            f"output directory {out} holds files other than run artifacts "
            f"({', '.join(foreign)}); refusing to replace it"
        )


def _publish(staging: str, out: str) -> None:
    """Rename the complete `staging` directory to `out`, replacing a previous
    run's directory there."""
    _check_replaceable(out)
    if not os.path.lexists(out):
        os.rename(staging, out)
        return
    retired = staging + ".old"
    os.rename(out, retired)
    try:
        os.rename(staging, out)
    except OSError:
        os.rename(retired, out)
        raise
    shutil.rmtree(retired)


def run(config: ExperimentConfig) -> RunResult:
    """Execute one experiment and write its artifact directory atomically."""
    if not config.output_dir:
        raise ConfigError("no output directory configured")
    out = os.path.abspath(config.output_dir)
    _check_replaceable(out)
    dataset = build_dataset(config)
    train_set, validation_set = split_dataset(
        dataset, config.val_fraction, config.data_fraction, config.master_seed
    )
    partitioned = partition(
        train_set,
        config.partition,
        config.n_clients,
        derive_rng(config.master_seed, STAGE_PARTITION),
    )
    stats = heterogeneity(partitioned, train_set)
    fed_config = config.federation_config([len(s) for s in partitioned.shards])
    history = run_federation(fed_config, partitioned, validation_set)
    summary = _build_summary(config, history, stats, len(train_set), len(validation_set))

    parent, name = os.path.split(out)
    os.makedirs(parent, exist_ok=True)
    staging = os.path.join(parent, f".{name}.{uuid.uuid4().hex}.partial")
    os.mkdir(staging)
    try:
        with open(os.path.join(staging, CONFIG_NAME), "w", encoding="utf-8") as fh:
            fh.write(config.to_json())
        _write_json(os.path.join(staging, PARTITION_NAME),
                    _partition_manifest(partitioned, stats))
        with open(os.path.join(staging, HISTORY_NAME), "w", encoding="utf-8") as fh:
            fh.write(history.to_csv_text())
        _write_json(os.path.join(staging, SUMMARY_NAME), summary)
        save_params(os.path.join(staging, PARAMS_NAME), fed_config.spec, history.final_params)
        _publish(staging, out)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return RunResult(config, config.output_dir, history, summary)


# ---------------------------------------------------------------------------
# Sweeps.

def _format_axis_value(value) -> str:
    if value is None:
        return "exact"
    return str(value)


def sweep(config: ExperimentConfig) -> list:
    """Run every point of the config's sweep grid (see `config.sweep_points`).

    Each point runs in its own subdirectory of output_dir, named
    axis_value[__axis_value...], axes in canonical order and values
    ascending. A sweep_summary.csv at the root collects final metrics in
    expansion order.
    """
    if not config.sweep:
        raise ConfigError("config has no sweep axes")
    if not config.output_dir:
        raise ConfigError("no output directory configured")
    points = sweep_points(config)
    results = []
    for point, point_config in points:
        name = "__".join(f"{axis}_{_format_axis_value(v)}" for axis, v in point.items())
        results.append(run(replace(point_config,
                                   output_dir=os.path.join(config.output_dir, name))))

    header = (
        ["run_dir"]
        + list(points[0][0])
        + ["val_loss", "fe_pct", "me_pct", "auroc", "aupr",
           "rounds_to_target", "total_payload_bits"]
    )
    lines = [",".join(header)]
    for (point, _), result in zip(points, results):
        final = result.summary["final"]
        to_target = result.summary["rounds_to_target"]
        cells = (
            [os.path.basename(result.output_dir)]
            + [_format_axis_value(v) for v in point.values()]
            + [repr(final["val_loss"]), repr(final["fe_pct"]), repr(final["me_pct"]),
               repr(final["auroc"]), repr(final["aupr"]),
               "" if to_target is None else str(to_target),
               str(result.summary["total_payload_bits"])]
        )
        lines.append(",".join(cells))
    path = os.path.join(config.output_dir, "sweep_summary.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return results


# ---------------------------------------------------------------------------
# Comparison.

def _load_run(run_dir: str) -> dict:
    history_path = os.path.join(run_dir, HISTORY_NAME)
    if not os.path.exists(history_path):
        raise DataError(f"missing history file: {history_path}")
    summary_path = os.path.join(run_dir, SUMMARY_NAME)
    if not os.path.exists(summary_path):
        raise DataError(f"missing summary file: {summary_path}")
    with open(history_path, "r", encoding="utf-8") as fh:
        rounds = sum(1 for line in fh if line.strip()) - 1
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    final = summary["final"]
    return {
        "name": os.path.basename(os.path.normpath(run_dir)),
        "rounds": rounds,
        "val_loss": final["val_loss"],
        "fe_pct": final["fe_pct"],
        "me_pct": final["me_pct"],
        "auroc": final["auroc"],
        "aupr": final["aupr"],
        "rounds_to_target": summary.get("rounds_to_target"),
        "total_payload_bits": summary["total_payload_bits"],
    }


_COMPARE_COLUMNS = (
    ("rounds", "rounds"),
    ("val_loss", "val_loss"),
    ("fe_pct", "fe_pct"),
    ("me_pct", "me_pct"),
    ("auroc", "auroc"),
    ("aupr", "aupr"),
    ("rounds_to_target", "to_target"),
    ("total_payload_bits", "payload_bits"),
)


def _fmt(value) -> str:
    if value is None:
        return "never"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_delta(a, b) -> str:
    if a is None or b is None:
        return "-"
    if isinstance(a, float) or isinstance(b, float):
        return f"{a - b:+.6g}"
    return f"{a - b:+d}"


def compare(run_dirs) -> str:
    """Aligned comparison of completed runs: final metrics, rounds to the
    configured target loss, and total communication payload. Rows after the
    first also get a delta-vs-first row."""
    if len(run_dirs) < 2:
        raise ConfigError(f"compare needs at least 2 run directories, got {len(run_dirs)}")
    runs = [_load_run(d) for d in run_dirs]

    rows = [["run"] + [label for _, label in _COMPARE_COLUMNS]]
    baseline = runs[0]
    for i, info in enumerate(runs):
        rows.append([info["name"]] + [_fmt(info[key]) for key, _ in _COMPARE_COLUMNS])
        if i > 0:
            rows.append(
                [f"  delta vs {baseline['name']}"]
                + [_fmt_delta(info[key], baseline[key]) for key, _ in _COMPARE_COLUMNS]
            )

    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[c].rjust(widths[c]) for c in range(1, len(row))]
        lines.append("  ".join(cells).rstrip())
    horizons = {info["rounds"] for info in runs}
    if len(horizons) > 1:
        lines.append("note: runs span unequal horizons (rounds differ: "
                     + ", ".join(str(h) for h in sorted(horizons)) + ")")
    return "\n".join(lines) + "\n"
