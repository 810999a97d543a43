"""In-memory span recording around qfedsim's public functions.

A span is (name, start, end, parent) on the perf_counter clock. Spans nest
by call order on the one thread that runs an experiment, so the parent is
the innermost span still open. Each traced `runner.run` is one request: its
spans carry the index of that run.

Functions are wrapped where their callers look them up: `core.depolarize_kernel`
in the core module for model.run_ansatz_kernel, `train_on_encoded` in the
federation module for federation's client loop, and so on. Nothing inside
src/ changes; `uninstall` restores every original.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

_clock = time.perf_counter


def _rows(amps, *_args, **_kwargs):
    return amps.shape[0]


def _bytes_computed(amps, *_args, **_kwargs):
    # Computed from the shape, not measured: every amplitude read and written once.
    return 2 * amps.nbytes


# (module, attribute, span name, counter over the call's arguments or None).
# The counter's running sum is kept per span name.
TRACE_POINTS = (
    ("runner", "run", "runner.run", None),
    ("runner", "build_dataset", "data.build", None),
    ("runner", "synth_anomaly_dataset", "data.synth", None),
    ("runner", "load_features", "data.load", None),
    ("runner", "reduce_features", "data.project", None),
    ("runner", "split_dataset", "data.split", None),
    ("runner", "partition", "data.partition", None),
    ("runner", "run_federation", "federation.run", None),
    ("federation", "encode_batch", "encoding.encode", None),
    ("federation", "run_round", "federation.round", None),
    ("federation", "train_on_encoded", "federation.train", None),
    ("federation", "aggregate_weighted", "federation.aggregate", None),
    ("federation", "evaluate_global", "federation.validate", None),
    ("federation", "auroc", "metrics.auroc", None),
    ("federation", "aupr", "metrics.aupr", None),
    ("federation", "youden_threshold", "metrics.youden", None),
    ("training", "classify_loss_and_grad", "training.batch_grad", None),
    ("training", "personalized_step", "training.step", None),
    ("model", "run_ansatz_kernel", "model.ansatz", _rows),
    ("model", "readout_batch", "model.readout", None),
    ("core", "apply_one_qubit_kernel", "core.one_qubit", _bytes_computed),
    ("core", "apply_cx_kernel", "core.cx", _bytes_computed),
    ("core", "depolarize_kernel", "core.depolarize", None),
)


class Tracer:
    """Collects spans while installed; owned by one experiment loop."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._originals = []
        self.names = list(dict.fromkeys(point[2] for point in TRACE_POINTS))
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("i")
        self.parents = array("i")
        self.runs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {name: 0 for name in self.names}
        self._stack = [-1]
        self.run_index = -1

    def _wrap(self, name, fn, counter):
        name_id = self._name_ids[name]
        stack = self._stack
        name_ids, parents, runs = self.name_ids, self.parents, self.runs
        starts, ends, counts = self.starts, self.ends, self.counts

        def traced(*args, **kwargs):
            if counter is not None:
                counts[name] += counter(*args, **kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            runs.append(self.run_index)
            ends.append(0.0)
            stack.append(index)
            starts.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TRACE_POINTS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "run": np.frombuffer(self.runs, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span as numpy arrays; `names` maps name_id to a name."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover. Children of
    one span never overlap (one thread, nested calls), so their sum is the
    covered part."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered
