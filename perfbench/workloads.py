"""Workload definitions: seeded experiment configs and the ingest CSV.

Every workload is a list of experiment mappings for `config_from_mapping`,
one per master seed, plus the numbers the correctness checks expect. Master
seeds are `seed * k + i` for i < k = SEEDS_PER_RUN[workload], so distinct
benchmark seeds never share an experiment, and one benchmark run takes its
medians over k partitions and initializations instead of a single draw: on
the small Dirichlet-partitioned workloads the number of 16-row batches, and
so the run time, depends on the partition.

This module needs only the standard library and numpy; it never imports
qfedsim, so input generation stays outside the measured process.
"""

from __future__ import annotations

import os

# Distinct master seeds per benchmark run. The run cycles through them, so
# the second visit of a seed doubles as the determinism re-run. Every seed
# plus one re-run must fit in 25 s even when the host runs 40% slow, as a
# shared 2-vCPU VM was seen to do for minutes at a time.
SEEDS_PER_RUN = {"gentle": 6, "noisy": 9, "wide": 7, "ingest": 7}

# Mirrors GENTLE_BENCHMARK and DRIFT_BENCHMARK in tests/test_acceptance.py,
# which are frozen; copied so that the benchmark does not import test code.
_GENTLE = {
    "mode": "pqfl",
    "dataset": {"kind": "synthetic", "n_normal_classes": 3, "per_class": 50,
                "n_anomaly": 50, "dim": 16, "separation": 6.0},
    "n_qubits": 4,
    "n_layers": 1,
    "global_rounds": 20,
    "local_epochs": 20,
    "eta": 0.01,
    "lam": 0.1,
    "shots": None,
    "batch_size": 16,
    "n_clients": 3,
    "partition": {"scheme": "dirichlet", "alpha": 0.01},
    "val_fraction": 0.25,
}

_DRIFT = {
    "mode": "pqfl",
    "dataset": {"kind": "synthetic", "n_normal_classes": 3, "per_class": 16,
                "n_anomaly": 50, "dim": 16, "separation": 4.0},
    "n_qubits": 4,
    "n_layers": 1,
    "global_rounds": 20,
    "local_epochs": 50,
    "eta": 0.4,
    "lam": 0.1,
    "shots": None,
    "batch_size": 16,
    "n_clients": 3,
    "partition": {"scheme": "dirichlet", "alpha": 0.01},
    "val_fraction": 0.25,
}

# Why each workload exists; BENCHMARK.json carries the one-line form.
#   gentle: the paper scale. Time goes to per-call overhead in the gate
#     kernels and to 2*L*n separate ansatz passes per batch.
#   noisy: the criterion 07 kernels (drift at depolarizing 0.5, 1000 shots),
#     cut from 20 to 2 rounds so that several runs fit in one measurement.
#     Both stochastic readout layers run; parameter shift must stay here.
#   wide: 10 qubits, 3 layers on 1024 amplitudes. Kernels are bound by
#     arithmetic, where adjoint differentiation pays and shift stacking loses.
#   noisy and wide split the 36 drift training rows iid: under the drift
#     benchmark's Dirichlet(0.01) a client epoch takes 3 or 4 batches
#     depending on the draw, a 33% swing in run time that measures the
#     partition, not the program.
#   ingest: a 100k-row CSV. The data layer and the 36k-row validation pass
#     dominate; training is light.
WORKLOADS = {
    "gentle": dict(_GENTLE),
    "noisy": {**_DRIFT, "noise": 0.5, "shots": 1000, "global_rounds": 2,
              "partition": {"scheme": "iid"}},
    "wide": {**_DRIFT, "dataset": {**_DRIFT["dataset"], "dim": 1024},
             "n_qubits": 10, "n_layers": 3, "global_rounds": 2, "local_epochs": 2,
             "partition": {"scheme": "iid"}},
    "ingest": {
        "mode": "pqfl",
        "n_qubits": 4,
        "n_layers": 1,
        "global_rounds": 6,
        "local_epochs": 2,
        "eta": 0.05,
        "lam": 0.1,
        "shots": None,
        "batch_size": 16,
        "n_clients": 10,
        "partition": {"scheme": "dirichlet", "alpha": 0.5},
        "val_fraction": 0.2,
        "data_fraction": 0.01,
    },
}

INGEST_ROWS = 100_000
INGEST_FEATURES = 32
INGEST_CLASSES = 5          # class INGEST_CLASSES - 1 is the anomaly class
INGEST_SEPARATION = 3.0


def master_seeds(name: str, seed: int) -> list:
    k = SEEDS_PER_RUN[name]
    return [seed * k + i for i in range(k)]


def write_ingest_csv(path: str, seed: int) -> dict:
    """Write the seeded ingest CSV: Gaussian blobs, one per class, with unit
    spread. Normal class c is centred at separation * e_c; the anomaly class
    points the opposite way, so it differs in direction, which is all an
    amplitude-encoded model can see. Returns the file's rows, bytes and the
    number of rows per class."""
    import numpy as np

    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(INGEST_ROWS) % INGEST_CLASSES)
    n_normal = INGEST_CLASSES - 1
    centres = np.zeros((INGEST_CLASSES, INGEST_FEATURES))
    centres[np.arange(n_normal), np.arange(n_normal)] = INGEST_SEPARATION
    centres[n_normal, :n_normal] = -INGEST_SEPARATION / np.sqrt(n_normal)
    features = rng.normal(0.0, 1.0, size=(INGEST_ROWS, INGEST_FEATURES)) + centres[labels]
    header = ",".join([f"f{i}" for i in range(INGEST_FEATURES)] + ["label"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fmt = ",".join(["%.6f"] * INGEST_FEATURES) + ",%d\n"
        for row, label in zip(features.tolist(), labels.tolist()):
            fh.write(fmt % (*row, label))
    return {
        "rows": INGEST_ROWS,
        "bytes": os.path.getsize(path),
        "class_counts": np.bincount(labels, minlength=INGEST_CLASSES).tolist(),
    }


def _expected_counts(mapping: dict, n_normal: int) -> dict:
    """Training rows and circuit evaluations the run must report, derived
    from the inputs alone: runner.split_dataset's documented rule, then
    2 * L * n evaluations per training row per epoch per round."""
    n_val = int(round(mapping.get("val_fraction", 0.2) * n_normal))
    pool = n_normal - n_val
    n_train = max(1, int(round(mapping.get("data_fraction", 1.0) * pool)))
    per_row = 2 * mapping["n_layers"] * mapping["n_qubits"]
    evals = per_row * mapping["local_epochs"] * n_train * mapping["global_rounds"]
    return {"n_train": n_train, "total_circuit_evals": evals,
            "rounds": mapping["global_rounds"]}


def build(name: str, seed: int, workdir: str) -> dict:
    """Materialize one workload's inputs under `workdir`.

    Returns {"experiments": [{"mapping", "expected"}...], "inputs": {...},
    "warmup": mapping}. The warm-up mapping has the workload's circuit, shot
    and noise settings on a tiny synthetic dataset, so that imports and
    caches are filled before timing without touching the measured inputs.
    """
    base = WORKLOADS[name]
    inputs = {"master_seeds": master_seeds(name, seed)}
    if name == "ingest":
        csv_path = os.path.join(workdir, "ingest.csv")
        info = write_ingest_csv(csv_path, seed)
        inputs.update(csv_rows=info["rows"], csv_bytes=info["bytes"])
        dataset = {"kind": "csv", "path": csv_path, "anomaly_classes": [INGEST_CLASSES - 1]}
        n_normal = sum(info["class_counts"][:-1])
    else:
        dataset = base["dataset"]
        n_normal = dataset["n_normal_classes"] * dataset["per_class"]
    experiments = []
    for master_seed in inputs["master_seeds"]:
        mapping = {**base, "dataset": dataset, "master_seed": master_seed}
        experiments.append({"mapping": mapping,
                            "expected": _expected_counts(mapping, n_normal)})
    warmup = {
        **base,
        "dataset": {"kind": "synthetic", "n_normal_classes": 2, "per_class": 8,
                    "n_anomaly": 4, "dim": 1 << base["n_qubits"], "separation": 4.0},
        "global_rounds": 1,
        "local_epochs": 1,
        "n_clients": 1,
        "partition": {"scheme": "iid"},
        "data_fraction": 1.0,
    }
    return {"experiments": experiments, "inputs": inputs, "warmup": warmup}
