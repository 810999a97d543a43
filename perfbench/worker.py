"""Measured process: runs one workload's experiments through qfedsim.

Started by run.py as `python worker.py SPEC.json` with src/ on PYTHONPATH
and BLAS pinned to one thread. It prints one JSON object as its last line:
per-run samples, peak RSS, machine context and, when tracing, per-layer
figures. Inputs were generated before this process started, so neither its
timings nor its peak RSS include generation.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np

from qfedsim import core, federation, model, runner, training
from qfedsim.config import config_from_mapping

import spans

ARTIFACTS = (runner.CONFIG_NAME, runner.PARTITION_NAME, runner.HISTORY_NAME,
             runner.SUMMARY_NAME, runner.PARAMS_NAME)
MODULES = {"runner": runner, "federation": federation, "training": training,
           "model": model, "core": core}


def machine_context() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "platform": platform.platform(),
    }


class SetupProbe:
    """Stamps the first `federation.run_round` call of each run: the end of
    set-up. Installed for traced and untraced runs alike."""

    def __init__(self):
        self.first_round = None
        self._original = federation.run_round

        def probed(*args, **kwargs):
            if self.first_round is None:
                self.first_round = time.perf_counter()
            return self._original(*args, **kwargs)

        federation.run_round = probed

    def close(self) -> None:
        federation.run_round = self._original


def check_artifacts(out_dir: str, expected: dict) -> tuple:
    """Returns (problems, summary). Checks: all five artifacts exist, one
    history row per round, finite final parameters, and the analytic
    training-row and circuit-evaluation counts."""
    missing = [name for name in ARTIFACTS if not os.path.isfile(os.path.join(out_dir, name))]
    if missing:
        return [f"missing artifacts {missing}"], None
    problems = []
    with open(os.path.join(out_dir, runner.HISTORY_NAME), encoding="utf-8") as fh:
        rows = sum(1 for line in fh if line.strip()) - 1
    if rows != expected["rounds"]:
        problems.append(f"history has {rows} rows, expected {expected['rounds']}")
    vector = model.load_params(os.path.join(out_dir, runner.PARAMS_NAME))[3]
    if not np.all(np.isfinite(vector)):
        problems.append("final parameters are not finite")
    with open(os.path.join(out_dir, runner.SUMMARY_NAME), encoding="utf-8") as fh:
        summary = json.load(fh)
    for key in ("n_train", "total_circuit_evals"):
        if summary[key] != expected[key]:
            problems.append(f"{key} is {summary[key]}, expected {expected[key]}")
    return problems, summary


class Loop:
    def __init__(self, spec: dict):
        self.spec = spec
        self.probe = SetupProbe()
        self.tracer = spans.Tracer(MODULES)
        self.traced_runs = 0
        self.index = 0

    def run_once(self, experiment: dict, traced: bool) -> dict:
        out_dir = os.path.join(self.spec["workdir"], f"run-{self.index}")
        self.index += 1
        config = config_from_mapping({**experiment["mapping"], "output_dir": out_dir})
        sample = {"master_seed": config.master_seed, "traced": traced}
        if traced:
            self.tracer.run_index = self.traced_runs
            self.traced_runs += 1
            self.tracer.install()
        self.probe.first_round = None
        try:
            start = time.perf_counter()
            runner.run(config)
            end = time.perf_counter()
            problems, summary = check_artifacts(out_dir, experiment["expected"])
        except Exception as err:  # a failed run or check is counted, not fatal
            sample["error"] = f"{type(err).__name__}: {err}"
            return sample
        finally:
            self.tracer.uninstall()
        sample["run_s"] = end - start
        sample["setup_s"] = self.probe.first_round - start
        if summary is not None:
            sample["evals"] = summary["total_circuit_evals"]
            sample["auroc"] = summary["final"]["auroc"]
            sample["checksum"] = summary["params_checksum"]
        if problems:
            sample["error"] = "; ".join(problems)
        shutil.rmtree(out_dir)
        return sample

    def measure(self) -> list:
        experiments = self.spec["experiments"]
        warm_dir = os.path.join(self.spec["workdir"], "warmup")
        runner.run(config_from_mapping({**self.spec["warmup"], "output_dir": warm_dir}))
        shutil.rmtree(warm_dir)
        samples = []
        deadline = time.perf_counter() + self.spec["seconds"]
        # However slow the program, untraced runs visit every seed and re-run
        # one; traced runs re-run the seed of the untraced run they follow.
        minimum = 1 if self.spec["trace"] else len(experiments) + 1
        step = 0
        while step < minimum or time.perf_counter() < deadline:
            experiment = experiments[step % len(experiments)]
            samples.append(self.run_once(experiment, traced=False))
            if self.spec["trace"]:
                samples.append(self.run_once(experiment, traced=True))
            step += 1
        self.probe.close()
        return samples


def mark_nondeterminism(samples: list) -> None:
    """Every run of a master seed must end on the first run's parameters."""
    first = {}
    for sample in samples:
        if "checksum" not in sample:
            continue
        seed = sample["master_seed"]
        if seed not in first:
            first[seed] = sample["checksum"]
        elif sample["checksum"] != first[seed] and "error" not in sample:
            sample["error"] = (f"params_checksum {sample['checksum']} differs from "
                               f"{first[seed]} on a re-run of master seed {seed}")


def layer_figures(tracer: spans.Tracer, runs: int, local_epochs: int) -> dict:
    """Per-layer figures per traced run: calls, busy time and self time of
    every span name, plus the counters recorded at the boundaries."""
    arr = tracer.arrays()
    duration = arr["end"] - arr["start"]
    self_s = spans.self_times(arr["parent"], duration)
    masks = {name: arr["name_id"] == i for i, name in enumerate(tracer.names)}
    out = {}
    for name, mask in masks.items():
        out[f"{name}.calls"] = int(mask.sum()) / runs
        out[f"{name}.s"] = float(duration[mask].sum()) / runs
        out[f"{name}.self_s"] = float(self_s[mask].sum()) / runs
    for name in ("core.one_qubit", "core.cx"):
        out[f"{name}.bytes_computed"] = tracer.counts[name] / runs
    passes = int(masks["model.ansatz"].sum())
    out["model.ansatz.rows_per_call"] = tracer.counts["model.ansatz"] / passes if passes else 0.0
    p50, p90 = np.percentile(duration[masks["federation.round"]], [50, 90])
    out["federation.round.p50_s"], out["federation.round.p90_s"] = float(p50), float(p90)
    out["training.client_epoch.s"] = (
        float(duration[masks["federation.train"]].mean()) / local_epochs
    )
    # Artifact writing: from the end of run_federation to the end of runner.run.
    run_ends = arr["end"][masks["runner.run"]]
    federation_ends = arr["end"][masks["federation.run"]]
    if run_ends.size == federation_ends.size:  # unequal only when a run failed
        out["runner.artifacts.s"] = float((run_ends - federation_ends).mean())
    return out


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    loop = Loop(spec)
    samples = loop.measure()
    mark_nondeterminism(samples)
    result = {
        "samples": samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": machine_context(),
    }
    if spec["trace"] and loop.traced_runs:
        local_epochs = spec["experiments"][0]["mapping"]["local_epochs"]
        result["layers"] = layer_figures(loop.tracer, loop.traced_runs, local_epochs)
        loop.tracer.save(spec["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
