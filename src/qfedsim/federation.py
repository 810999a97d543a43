"""Federated orchestration: broadcast, local training, aggregation, validation.

One round k: every client starts from the round's global parameters (also the
proximal anchor) and trains T local epochs on its shard with a generator
derived from (master_seed, round, client). The clients train in lockstep, one
stacked ansatz pass per step (training.train_lockstep), each getting the bits
it would get alone. The training hands the server one (clients, P) matrix of
the clients' parameter vectors, whose rows it averages as the convex
combination sum(alpha_n * w_n). The new global model is then
evaluated on a held-out validation set — exactly (no shots, no gate noise),
so each round record is a pure function of the aggregated parameters. Each
shard, the validation set and the centroid reference is one EncodedSet.

Plain federated averaging is the lam = 0 special case of the personalized
update; both modes run the same code path, step for step.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, fields

import numpy as np

from .core import ShotSpec
from .data import LabeledDataset, PartitionedDataset
from .encoding import encode_batch
from .exceptions import (ConfigError, ContractError, DataError, DegenerateInputError,
                         NumericError, ShapeError)
from .metrics import (
    ScoredSet,
    auroc,
    aupr,
    centroid_distance_scores,
    confusion,
    fe,
    max_prob_scores,
    me,
    youden_threshold,
)
from .model import (
    CircuitSpec,
    ModelParams,
    class_probabilities,
    init_params,
)
from .seeding import STAGE_INIT, client_rng, derive_rng
from .training import (
    MODE_CLASSIFY,
    ClientFailure,
    EncodedSet,
    TrainConfig,
    train_lockstep,
)

SCORE_MAX_PROB = "max_prob"
SCORE_CENTROID = "centroid_distance"
THRESHOLD_YOUDEN = "youden"

# The metrics each round reports, in history.csv column order; evaluate_global
# returns them keyed by these names, which are RoundRecord fields.
ROUND_METRICS = ("val_loss", "fe_pct", "me_pct", "auroc", "aupr")


@dataclass(frozen=True)
class FederationConfig:
    """Everything one federated run needs besides the data."""

    n_clients: int
    global_rounds: int
    client_weights: np.ndarray
    train: TrainConfig
    spec: CircuitSpec
    shots: ShotSpec
    noise: tuple            # per-client NoiseSpec
    master_seed: int
    bits_per_value: int = 32
    score_method: str = SCORE_MAX_PROB
    threshold: object = THRESHOLD_YOUDEN  # "youden" or a fixed float

    def __post_init__(self):
        if self.n_clients < 1:
            raise ConfigError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.global_rounds < 1:
            raise ConfigError(f"global_rounds must be >= 1, got {self.global_rounds}")
        weights = np.asarray(self.client_weights, dtype=np.float64)
        if weights.shape != (self.n_clients,):
            raise ConfigError(
                f"client_weights has {weights.size} entries for {self.n_clients} clients"
            )
        if not abs(weights.sum() - 1.0) <= 1e-9:
            raise ConfigError(f"client_weights sum to {float(weights.sum())!r}, not 1")
        if not np.all(weights > 0):
            raise ConfigError("client_weights must all be positive")
        noise = tuple(self.noise)
        if len(noise) != self.n_clients:
            raise ConfigError(f"noise has {len(noise)} entries for {self.n_clients} clients")
        if self.bits_per_value < 1:
            raise ConfigError(f"bits_per_value must be >= 1, got {self.bits_per_value}")
        if self.score_method not in (SCORE_MAX_PROB, SCORE_CENTROID):
            raise ConfigError(f"unknown score_method {self.score_method!r}")
        if self.threshold != THRESHOLD_YOUDEN and (
                isinstance(self.threshold, bool) or not isinstance(self.threshold, (int, float))
                or not np.isfinite(self.threshold)):
            raise ConfigError(
                f"threshold must be '{THRESHOLD_YOUDEN}' or a finite number, "
                f"got {self.threshold!r}"
            )
        object.__setattr__(self, "client_weights", weights)
        object.__setattr__(self, "noise", noise)


@dataclass(frozen=True)
class RoundRecord:
    """One round's results. `circuit_evals` is the paper's parameter-shift
    cost of the round's local training on hardware, 2 * L * n per training
    row per local epoch over all clients, whether the simulator differentiates
    by the shift rule or by the adjoint method; run_round counts it."""

    round_index: int
    params_checksum: str
    val_loss: float
    fe_pct: float
    me_pct: float
    auroc: float
    aupr: float
    client_losses: tuple
    payload_bits: int
    circuit_evals: int


@dataclass
class RoundHistory:
    """Per-round records plus the final global parameters."""

    records: list
    final_params: ModelParams | None = None

    def to_csv_text(self) -> str:
        """history.csv: one column per RoundRecord field, round_index named
        `round` and client_losses spread over client_loss_0, client_loss_1, ..."""
        n_clients = len(self.records[0].client_losses) if self.records else 0
        names = ["round" if f.name == "round_index" else f.name for f in fields(RoundRecord)]
        names[names.index("client_losses")] = tuple(f"client_loss_{c}" for c in range(n_clients))

        def line(values) -> str:
            cells = (x for v in values for x in (v if isinstance(v, tuple) else (v,)))
            return ",".join(map(str, cells)) + "\n"

        return line(names) + "".join(line(astuple(r)) for r in self.records)


def params_checksum(params: ModelParams) -> str:
    return hashlib.sha256(params.vector.tobytes()).hexdigest()[:16]


def payload_bits(param_count: int, bits_per_value: int) -> int:
    """Per-round communication of one client: its whole parameter vector
    (L*n + K*2**n + K values) up and the new global one down."""
    if param_count < 1:
        raise ContractError(f"parameter count must be >= 1, got {param_count}")
    return 2 * param_count * bits_per_value


# ---------------------------------------------------------------------------
# Aggregation.

def aggregate_weighted(weights: np.ndarray, alphas) -> np.ndarray:
    """Element-wise convex combination sum(alpha_n * w_n) of the rows of the
    (C, P) matrix `weights` of client vectors in ModelParams.vector layout:
    one tensordot, returning the (P,) vector."""
    if len(weights) == 0:
        raise DataError("nothing to aggregate")
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.shape != (len(weights),):
        raise ShapeError(f"{alphas.size} weights for {len(weights)} clients")
    if not abs(alphas.sum() - 1.0) <= 1e-9:
        raise ConfigError(f"weights sum to {alphas.sum()!r}, not 1")
    if not np.all(alphas >= 0):
        raise ConfigError("weights must be non-negative")
    return np.tensordot(alphas, weights, axes=1)


# ---------------------------------------------------------------------------
# Validation.

def evaluate_global(spec: CircuitSpec, params: ModelParams, validation: EncodedSet,
                    reference: EncodedSet | None, score_method: str, threshold) -> dict:
    """Exact-mode validation of one parameter set.

    Rows of `validation` labelled -1 are the anomalies. Returns the
    ROUND_METRICS by name: val_loss (cross-entropy on the normal rows),
    fe_pct and me_pct under the configured threshold rule, auroc and aupr.
    Centroid scoring reads the mean class probabilities over `reference`,
    the training set. Both sets go through model.class_probabilities, in
    row blocks and, where its shape rule says so, through one circuit
    matrix, so only their (rows, classes) outputs are held. A non-finite
    class score or validation loss raises NumericError, and no metric is
    returned.
    """
    probs, log_probs = class_probabilities(spec, params, validation.encoded)
    normal = validation.labels >= 0
    val_loss = float(-log_probs[normal, validation.labels[normal]].mean())
    if not np.isfinite(val_loss):
        raise NumericError("non-finite validation loss")
    if score_method == SCORE_CENTROID:
        if reference is None:
            raise ConfigError("centroid scoring needs the training set as reference")
        centroid = class_probabilities(spec, params, reference.encoded)[0].mean(axis=0)
        scores = centroid_distance_scores(probs, centroid)
    else:
        scores = max_prob_scores(probs)
    scored = ScoredSet(scores, ~normal)
    cut = youden_threshold(scored) if threshold == THRESHOLD_YOUDEN else float(threshold)
    counts = confusion(scored, cut)
    values = (val_loss, fe(counts), me(counts), auroc(scored), aupr(scored))
    return dict(zip(ROUND_METRICS, values))


# ---------------------------------------------------------------------------
# Rounds.

def train_on_encoded(config: FederationConfig, round_index: int,
                     global_params: ModelParams, shards) -> tuple:
    """The round's local training, as training.train_lockstep's (weights,
    traces): the (C, P) matrix of final client vectors and the (C,
    local_epochs) matrix of loss traces. Every client trains in lockstep
    from the round's global parameters, which are also the proximal anchor,
    each on its own generator. A failure raises the failing client's error as
    "client c, round k: ...": c is the lowest-index client among those that
    fail at the first failing step (a shard or label error before any
    training)."""
    rngs = [client_rng(config.master_seed, round_index, c) for c in range(len(shards))]
    try:
        return train_lockstep(config.spec, global_params, shards, config.train,
                              global_params, config.shots, config.noise, rngs)
    except ClientFailure as failure:
        err = failure.error
        raise type(err)(f"client {failure.client}, round {round_index}: {err}") from err


def run_round(round_index: int, config: FederationConfig, global_params: ModelParams,
              client_shards, validation: EncodedSet, reference: EncodedSet | None = None) -> tuple:
    """One global round; returns (new global params, RoundRecord).

    `client_shards` holds one EncodedSet per client; `validation` and
    `reference` go to evaluate_global. The clients train in one
    train_on_encoded call, each on its own generator derived from
    (master_seed, round, client), so no client's draws depend on another's.
    The server averages the rows of its weight matrix, and each client's
    loss is the last column of its trace matrix.
    """
    if len(client_shards) != config.n_clients:
        raise ConfigError(
            f"{len(client_shards)} shards for {config.n_clients} clients"
        )
    weights, traces = train_on_encoded(config, round_index, global_params, client_shards)
    new_global = global_params.with_vector(aggregate_weighted(weights, config.client_weights))
    try:
        scores = evaluate_global(config.spec, new_global, validation, reference,
                                 config.score_method, config.threshold)
    except Exception as err:
        raise type(err)(f"round {round_index}: {err}") from err
    record = RoundRecord(
        round_index=round_index,
        params_checksum=params_checksum(new_global),
        **scores,
        client_losses=tuple(traces[:, -1].tolist()),
        payload_bits=payload_bits(new_global.vector.size, config.bits_per_value),
        circuit_evals=2 * config.spec.n_layers * config.spec.n_qubits
        * config.train.local_epochs * sum(len(shard.labels) for shard in client_shards),
    )
    return new_global, record


def _encode(dataset: LabeledDataset, n_qubits: int, name: str) -> EncodedSet:
    try:
        return EncodedSet(encode_batch(dataset.features, n_qubits), dataset.logit_indices())
    except (DataError, DegenerateInputError) as err:
        raise type(err)(f"{name} {err}") from None


def run_federation(config: FederationConfig, partitioned_data: PartitionedDataset,
                   validation_set: LabeledDataset) -> RoundHistory:
    """K rounds of federated training; deterministic under master_seed. Both
    sets are encoded and checked once, before any client trains."""
    if config.train.mode != MODE_CLASSIFY:
        raise ConfigError("federation trains the classifier; vqe mode is local-only")
    if partitioned_data.n_clients != config.n_clients:
        raise ConfigError(
            f"partition has {partitioned_data.n_clients} shards, "
            f"config expects {config.n_clients}"
        )
    dataset = partitioned_data.dataset
    train = _encode(dataset, config.spec.n_qubits, "training set")
    if np.any(train.labels < 0):
        bad = np.unique(dataset.labels[train.labels < 0]).tolist()
        raise DataError(f"anomaly classes {bad} present in training shards")
    if len(validation_set) == 0:
        raise DataError("empty validation set")
    if validation_set.normal_classes != dataset.normal_classes:
        raise ConfigError(
            "validation normal classes differ from the training normal classes"
        )
    validation = _encode(validation_set, config.spec.n_qubits, "validation set")
    if not np.any(validation.labels >= 0):
        raise DataError("validation set has no normal samples to compute loss on")
    shards = [EncodedSet(train.encoded[r], train.labels[r])
              for r in map(list, partitioned_data.shards)]
    reference = train if config.score_method == SCORE_CENTROID else None
    del train  # the shards copy their rows; only `reference` may keep the whole set
    n_classes = len(dataset.normal_classes)
    global_params = init_params(
        config.spec, n_classes, derive_rng(config.master_seed, STAGE_INIT)
    )
    history = RoundHistory(records=[])
    for k in range(config.global_rounds):
        global_params, record = run_round(k, config, global_params, shards, validation, reference)
        history.records.append(record)
    history.final_params = global_params
    return history
