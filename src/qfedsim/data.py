"""Datasets: CSV ingestion, random projection, synthetic benchmark, partitioning.

The file format is comma-separated text, one sample per row: F real features
followed by one integer class label; blank lines are skipped. Line 1 is a
header when its first field is not a number to Python's `float`. A number is
what numpy's text reader accepts: no digit-group underscores, no non-ASCII
digits. Non-finite values, and labels that are not integers of magnitude
below 2**63, are rejected with the line they are on, as are bytes that are
not UTF-8. A process parses each file content once: `load_features` keeps
the last table it parsed, keyed by the sha256 of the file's bytes, and
returns it while the bytes it reads are the same.

Anomalies never enter training shards — the model trains on normal classes
only and anomaly labels exist to build scored validation sets.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .exceptions import (
    ConfigError,
    DataError,
    DegenerateInputError,
    LabelError,
    ParseError,
    PartitionError,
    SchemaError,
    ShapeError,
)

KL_SMOOTHING = 1e-6
PARTITION_RETRIES = 200

SCHEME_IID = "iid"
SCHEME_STEP = "step"
SCHEME_DIRICHLET = "dirichlet"

# (sha256 of the bytes, dataset) of the last file load_features parsed.
_last_load = None


@dataclass(frozen=True)
class LabeledDataset:
    """A feature matrix and its class labels, plus the normal/anomaly split.

    `features` is (N, F) float64 and `labels` is (N,) int64; both are stored
    as read-only views. `class_ids` is the sorted tuple of every class id in
    the split sets; histograms index classes in this order.
    """

    features: np.ndarray
    labels: np.ndarray
    normal_classes: frozenset
    anomaly_classes: frozenset

    def __post_init__(self):
        normal = frozenset(int(c) for c in self.normal_classes)
        anomaly = frozenset(int(c) for c in self.anomaly_classes)
        if normal & anomaly:
            raise LabelError(f"classes {sorted(normal & anomaly)} are both normal and anomaly")
        try:
            features = np.asarray(self.features, dtype=np.float64)
        except ValueError as err:
            raise SchemaError(f"feature rows do not form one matrix: {err}") from None
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or labels.shape != features.shape[:1]:
            raise ShapeError(
                f"features {features.shape} and labels {labels.shape} must be "
                "(N, F) and (N,)"
            )
        unknown = np.setdiff1d(labels, sorted(normal | anomaly))
        if unknown.size:
            raise LabelError(f"label {unknown[0]} belongs to neither class set")
        for name, arr in (("features", features), ("labels", labels)):
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        object.__setattr__(self, "normal_classes", normal)
        object.__setattr__(self, "anomaly_classes", anomaly)

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def class_ids(self) -> tuple:
        return tuple(sorted(self.normal_classes | self.anomaly_classes))

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        rows = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(
            self.features[rows], self.labels[rows], self.normal_classes, self.anomaly_classes
        )

    def logit_indices(self) -> np.ndarray:
        """Each row's logit index: the rank of its class among the sorted
        normal class ids (0..C-1), or -1 for a row of an anomaly class."""
        normal = np.array(sorted(self.normal_classes), dtype=np.int64)
        logits = np.searchsorted(normal, self.labels).astype(np.int64)
        logits[~np.isin(self.labels, normal)] = -1
        return logits


@dataclass(frozen=True)
class PartitionedDataset:
    """Disjoint per-client index shards over a training dataset."""

    dataset: LabeledDataset
    shards: tuple
    scheme: str

    def __post_init__(self):
        shards = tuple(tuple(int(i) for i in shard) for shard in self.shards)
        seen = [i for shard in shards for i in shard]
        if any(len(shard) == 0 for shard in shards):
            raise PartitionError("empty shard")
        if len(set(seen)) != len(seen):
            raise PartitionError("shards overlap")
        if set(seen) != set(range(len(self.dataset))):
            raise PartitionError("shards do not cover the dataset")
        object.__setattr__(self, "shards", shards)

    @property
    def n_clients(self) -> int:
        return len(self.shards)


@dataclass(frozen=True)
class PartitionStats:
    """Per-client class histograms and the mean pairwise class-distribution
    divergence (symmetrized KL with additive smoothing)."""

    class_histograms: np.ndarray  # (n_clients, n_classes) counts
    avg_pairwise_kl: float


def load_features(path) -> LabeledDataset:
    """Parse a feature CSV into a dataset; all classes start as normal.

    The file is read whole, once. When its bytes have the sha256 of the last
    file this process parsed, that file's dataset is returned: its arrays are
    read-only views, so every caller can share it. Otherwise the cached
    dataset is dropped, the bytes are parsed, and the new dataset is kept in
    its place; a failed parse keeps nothing.
    """
    global _last_load
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).digest()
    if _last_load is not None and _last_load[0] == digest:
        return _last_load[1]
    _last_load = None
    dataset = _parse_csv(raw)
    _last_load = digest, dataset
    return dataset


def _parse_csv(raw: bytes) -> LabeledDataset:
    """The dataset of a feature CSV's bytes.

    The bytes are read as a file opened as UTF-8 text would be, universal
    newlines included. The data lines stream through numpy's C text reader
    in one pass. When a value check fails on the parsed table, the bad row's
    physical line is found by counting lines; only bytes that numpy cannot
    parse are scanned again, in chunks, to name the first bad line.
    """
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as err:
        before = raw[:err.start]
        lineno = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise ParseError(
            f"line {lineno}: byte 0x{raw[err.start]:02x} is not UTF-8 ({err.reason})"
        ) from None
    fh = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    rows = (line for line in _lines_after_header(fh)[1] if line.strip())
    head = next(rows, None)
    if head is None:
        raise DataError("the file holds no samples")
    try:
        table = _parse_rows(chain([head], rows))
    except (ParseError, SchemaError) as err:
        _raise_at_first_bad_line(fh, err)
    bad = _first_bad_value(table)
    if bad is not None:
        row, message = bad
        lineno, line = next(islice(_numbered_data_lines(fh), row, None))
        raise ParseError(f"line {lineno}: {message} in {line.strip()!r}")
    labels = table[:, -1].astype(np.int64)
    return LabeledDataset(
        table[:, :-1], labels, frozenset(np.unique(labels).tolist()), frozenset()
    )


def _lines_after_header(fh) -> tuple:
    """(number of the first line, the lines): line 1 is left out as a header
    when its first field is not a number."""
    first = fh.readline()
    try:
        float(first.split(",", 1)[0])
    except ValueError:
        return 2, fh
    return 1, chain([first], fh)


def _numbered_data_lines(fh):
    """(line number, line) for each non-blank data line, from the file's start."""
    fh.seek(0)
    start, lines = _lines_after_header(fh)
    return ((n, line) for n, line in enumerate(lines, start=start) if line.strip())


_SCAN_CHUNK = 2048  # lines per np.loadtxt call while a bad line is looked for


def _parse_rows(lines, width=None) -> np.ndarray:
    """The (rows, fields) table of CSV lines, its width checked; errors name
    no line."""
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        # Ragged rows land here too; only single lines reach the caller.
        raise ParseError("non-numeric field") from None
    if table.shape[1] < 2:
        raise SchemaError("need at least one feature and a label")
    if width not in (None, table.shape[1]):
        raise SchemaError(f"row has {table.shape[1]} fields, expected {width}")
    return table


def _first_bad_value(table: np.ndarray):
    """(row, message) for the first row holding a non-finite value or a label
    that is not an integer of magnitude below 2**63; None if there is none."""
    finite = np.isfinite(table)
    label = table[:, -1]
    bad_label = (label != np.trunc(label)) | (np.abs(label) >= 2.0 ** 63)
    if finite.all() and not bad_label.any():
        return None
    row = int(np.argmax(~finite.all(axis=1) | bad_label))
    if not finite[row].all():
        return row, "non-finite value"
    return row, "label is not an integer of magnitude below 2**63"


def _raise_at_first_bad_line(fh, whole_file_error):
    """Name the first bad line of a file numpy could not parse whole: parse
    its data lines in chunks of _SCAN_CHUNK, the width pinned to the first
    line's, and re-read line by line only the first chunk that fails. If no
    line fails on its own, raise the whole file's error."""
    lines, width = _numbered_data_lines(fh), None
    while chunk := list(islice(lines, _SCAN_CHUNK)):
        try:
            table = _parse_rows([line for _, line in chunk], width)
        except (ParseError, SchemaError):
            break
        if _first_bad_value(table) is not None:
            break
        width = table.shape[1]
    for lineno, line in chunk:
        try:
            table = _parse_rows([line], width)
            bad = _first_bad_value(table)
            if bad is not None:
                raise ParseError(bad[1])
        except (ParseError, SchemaError) as err:
            raise type(err)(f"line {lineno}: {err} in {line.strip()!r}") from None
        width = table.shape[1]
    raise whole_file_error


def with_anomaly_classes(dataset: LabeledDataset, anomaly_ids) -> LabeledDataset:
    """Re-split an all-normal dataset into normal vs anomaly classes."""
    anomaly = frozenset(int(c) for c in anomaly_ids)
    present = dataset.normal_classes | dataset.anomaly_classes
    missing = anomaly - present
    if missing:
        raise LabelError(f"anomaly classes {sorted(missing)} not present in the data")
    normal = present - anomaly
    if not normal:
        raise LabelError("every class marked anomalous; nothing left to train on")
    return LabeledDataset(dataset.features, dataset.labels, normal, anomaly)


def reduce_features(dataset: LabeledDataset, target_dim: int,
                    rng: np.random.Generator) -> LabeledDataset:
    """Project every sample with one shared Gaussian random matrix.

    Entries are N(0, 1/target_dim), so squared norms (and pairwise distances)
    are preserved in expectation. target_dim == current dim returns the
    dataset unchanged.
    """
    dim = dataset.feature_dim
    if target_dim > dim:
        raise ShapeError(f"target_dim {target_dim} exceeds feature dim {dim}")
    if target_dim < 1:
        raise ShapeError(f"target_dim must be >= 1, got {target_dim}")
    if target_dim == dim:
        return dataset
    projection = rng.normal(0.0, 1.0 / math.sqrt(target_dim), size=(target_dim, dim))
    return LabeledDataset(
        dataset.features @ projection.T,
        dataset.labels,
        dataset.normal_classes,
        dataset.anomaly_classes,
    )


def synth_anomaly_dataset(n_normal_classes: int, per_class: int, n_anomaly: int,
                          dim: int, separation: float,
                          rng: np.random.Generator) -> LabeledDataset:
    """Gaussian-blob benchmark with unit within-class spread.

    Normal class i is centered at separation * e_i (pairwise mean distance
    separation * sqrt(2)); the anomaly cloud (class id n_normal_classes) is
    centered on the negated mean of the normal directions, so it differs from
    every normal class in direction — scale alone is invisible to
    amplitude-encoded models.
    """
    if dim < 2:
        raise DegenerateInputError(f"dim must be >= 2, got {dim}")
    if n_normal_classes < 1:
        raise ConfigError(f"need at least one normal class, got {n_normal_classes}")
    if n_normal_classes > dim:
        raise ConfigError(
            f"{n_normal_classes} classes will not fit on {dim} coordinate axes"
        )
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if separation <= 0:
        raise ConfigError(f"separation must be > 0, got {separation}")
    blocks = []
    for c in range(n_normal_classes):
        mean = np.zeros(dim)
        mean[c] = separation
        blocks.append(rng.normal(0.0, 1.0, size=(per_class, dim)) + mean)
    if n_anomaly > 0:
        direction = np.zeros(dim)
        direction[:n_normal_classes] = -1.0 / math.sqrt(n_normal_classes)
        mean = separation * direction
        blocks.append(rng.normal(0.0, 1.0, size=(n_anomaly, dim)) + mean)
    return LabeledDataset(
        np.concatenate(blocks),
        np.repeat(np.arange(len(blocks)), [block.shape[0] for block in blocks]),
        frozenset(range(n_normal_classes)),
        frozenset([n_normal_classes]) if n_anomaly > 0 else frozenset(),
    )


@dataclass(frozen=True)
class PartitionScheme:
    kind: str
    alpha: float | None = None
    step_remainder: float = 0.05

    def __post_init__(self):
        if self.kind not in (SCHEME_IID, SCHEME_STEP, SCHEME_DIRICHLET):
            raise ConfigError(f"unknown partition scheme {self.kind!r}")
        if self.kind == SCHEME_DIRICHLET and (self.alpha is None or self.alpha <= 0):
            raise ConfigError(f"dirichlet needs alpha > 0, got {self.alpha}")
        if not 0.0 <= self.step_remainder < 1.0:
            raise ConfigError(
                f"step_remainder must lie in [0, 1), got {self.step_remainder}"
            )

    def describe(self) -> str:
        if self.kind == SCHEME_DIRICHLET:
            return f"dirichlet({self.alpha})"
        return self.kind


def _indices_by_class(labels: np.ndarray) -> dict:
    return {c: np.flatnonzero(labels == c) for c in np.unique(labels)}


def _attempt_dirichlet(labels, n_clients, alpha, rng):
    shards = [[] for _ in range(n_clients)]
    for _, idx in sorted(_indices_by_class(labels).items()):
        proportions = rng.dirichlet(np.full(n_clients, alpha))
        shuffled = rng.permutation(idx)
        cuts = (np.cumsum(proportions)[:-1] * len(idx)).astype(int)
        for client, chunk in enumerate(np.split(shuffled, cuts)):
            shards[client].extend(chunk.tolist())
    return shards


def _attempt_step(labels, n_clients, remainder, rng):
    classes = sorted(np.unique(labels))
    per_owner = math.ceil(len(classes) / n_clients)
    shards = [[] for _ in range(n_clients)]
    for rank, c in enumerate(classes):
        owner = min(rank // per_owner, n_clients - 1)
        idx = rng.permutation(np.flatnonzero(labels == c))
        n_spread = int(round(remainder * len(idx)))
        for i in idx[:n_spread]:
            shards[int(rng.integers(n_clients))].append(int(i))
        shards[owner].extend(idx[n_spread:].tolist())
    return shards


def partition(dataset: LabeledDataset, scheme, n_clients: int,
              rng: np.random.Generator) -> PartitionedDataset:
    """Split a dataset's indices across clients.

    iid: a random permutation split as evenly as possible. dirichlet(alpha):
    per-class client proportions drawn from a symmetric Dirichlet. step: each
    client owns a contiguous block of classes, with a small uniform remainder
    spread over everyone. Draws are retried (bounded) until no shard is empty.
    """
    if isinstance(scheme, str):
        scheme = PartitionScheme(scheme)
    if n_clients < 1:
        raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
    if len(dataset) < n_clients:
        raise PartitionError(
            f"{len(dataset)} samples cannot fill {n_clients} non-empty shards"
        )
    labels = dataset.labels
    if scheme.kind == SCHEME_IID:
        order = rng.permutation(len(dataset))
        shards = [chunk.tolist() for chunk in np.array_split(order, n_clients)]
        return PartitionedDataset(dataset, tuple(map(tuple, shards)), scheme.describe())
    for _ in range(PARTITION_RETRIES):
        if scheme.kind == SCHEME_DIRICHLET:
            shards = _attempt_dirichlet(labels, n_clients, scheme.alpha, rng)
        else:
            shards = _attempt_step(labels, n_clients, scheme.step_remainder, rng)
        if all(shards):
            return PartitionedDataset(dataset, tuple(map(tuple, shards)), scheme.describe())
    raise PartitionError(
        f"no draw of {scheme.describe()} filled all {n_clients} shards "
        f"within {PARTITION_RETRIES} retries"
    )


def _smoothed(hist: np.ndarray) -> np.ndarray:
    return (hist + KL_SMOOTHING) / (hist.sum() + hist.size * KL_SMOOTHING)


def _symmetrized_kl(p: np.ndarray, q: np.ndarray) -> float:
    forward = float(np.sum(p * np.log(p / q)))
    backward = float(np.sum(q * np.log(q / p)))
    return 0.5 * (forward + backward)


def heterogeneity(partitioned: PartitionedDataset) -> PartitionStats:
    """Class histograms per client, over the partitioned dataset's classes,
    and mean pairwise symmetrized KL.

    Distributions are smoothed additively (1e-6 per class before
    renormalizing) so disjoint supports stay finite. A single client has no
    pairs; its divergence is 0.
    """
    dataset = partitioned.dataset
    class_ids = dataset.class_ids
    columns = np.searchsorted(class_ids, dataset.labels)
    hists = np.stack([
        np.bincount(columns[list(shard)], minlength=len(class_ids))
        for shard in partitioned.shards
    ]).astype(np.int64)
    smoothed = [_smoothed(h.astype(np.float64)) for h in hists]
    divergences = [
        _symmetrized_kl(smoothed[a], smoothed[b])
        for a in range(len(smoothed))
        for b in range(a + 1, len(smoothed))
    ]
    avg = float(np.mean(divergences)) if divergences else 0.0
    return PartitionStats(hists, avg)
