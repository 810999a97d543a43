"""Federated orchestration: broadcast, local training, aggregation, validation.

One round k: every client starts from the round's global parameters (also the
proximal anchor), trains T local epochs on its shard with a generator derived
from (master_seed, round, client), and the server aggregates the results as
the convex combination sum(alpha_n * w_n). The new global model is then
evaluated on a held-out validation set — exactly (no shots, no gate noise),
so each round record is a pure function of the aggregated parameters.

Plain federated averaging is the lam = 0 special case of the personalized
update; both modes run the same code path, step for step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .core import NoiseSpec, ShotSpec
from .data import LabeledDataset, PartitionedDataset
from .encoding import encode_batch
from .exceptions import ConfigError, ContractError, DataError, NumericError, ShapeError
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
    head_scores,
    init_params,
    probability_batch,
)
from .seeding import STAGE_INIT, client_rng, derive_rng
from .training import MODE_CLASSIFY, TrainConfig, cross_entropy, train_on_encoded

SCORE_MAX_PROB = "max_prob"
SCORE_CENTROID = "centroid_distance"
THRESHOLD_YOUDEN = "youden"

_EXACT = ShotSpec.exact()
_NOISELESS = NoiseSpec.off()


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
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ConfigError(f"client_weights sum to {float(weights.sum())!r}, not 1")
        if np.any(weights <= 0):
            raise ConfigError("client_weights must all be positive")
        noise = tuple(self.noise)
        if len(noise) != self.n_clients:
            raise ConfigError(f"noise has {len(noise)} entries for {self.n_clients} clients")
        if self.bits_per_value < 1:
            raise ConfigError(f"bits_per_value must be >= 1, got {self.bits_per_value}")
        if self.score_method not in (SCORE_MAX_PROB, SCORE_CENTROID):
            raise ConfigError(f"unknown score_method {self.score_method!r}")
        if self.threshold != THRESHOLD_YOUDEN and not isinstance(self.threshold, (int, float)):
            raise ConfigError(
                f"threshold must be '{THRESHOLD_YOUDEN}' or a number, got {self.threshold!r}"
            )
        object.__setattr__(self, "client_weights", weights)
        object.__setattr__(self, "noise", noise)


@dataclass(frozen=True)
class RoundRecord:
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

    def csv_header(self) -> str:
        n_clients = len(self.records[0].client_losses) if self.records else 0
        loss_cols = ",".join(f"client_loss_{c}" for c in range(n_clients))
        return (
            "round,params_checksum,val_loss,fe_pct,me_pct,auroc,aupr,"
            + (loss_cols + "," if loss_cols else "")
            + "payload_bits,circuit_evals"
        )

    def to_csv_text(self) -> str:
        lines = [self.csv_header()]
        for r in self.records:
            cells = [
                str(r.round_index),
                r.params_checksum,
                repr(r.val_loss),
                repr(r.fe_pct),
                repr(r.me_pct),
                repr(r.auroc),
                repr(r.aupr),
                *(repr(x) for x in r.client_losses),
                str(r.payload_bits),
                str(r.circuit_evals),
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


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

def aggregate_weighted(param_sets, alphas) -> ModelParams:
    """Element-wise convex combination sum(alpha_n * params_n), one
    tensordot over the stacked parameter vectors."""
    if not param_sets:
        raise DataError("nothing to aggregate")
    first = param_sets[0]
    if any(p.shapes != first.shapes for p in param_sets[1:]):
        raise ShapeError("parameter shapes differ across clients")
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.shape != (len(param_sets),):
        raise ShapeError(
            f"{alphas.size} weights for {len(param_sets)} parameter sets"
        )
    if abs(alphas.sum() - 1.0) > 1e-9:
        raise ConfigError(f"weights sum to {alphas.sum()!r}, not 1")
    if np.any(alphas < 0):
        raise ConfigError("weights must be non-negative")
    return first.with_vector(
        np.tensordot(alphas, np.stack([p.vector for p in param_sets]), axes=1)
    )


# ---------------------------------------------------------------------------
# Validation.

@dataclass(frozen=True)
class ClientShard:
    """One client's training rows, encoded once and reused across rounds."""

    encoded: np.ndarray
    labels: np.ndarray  # logit indices, not raw class ids


def build_client_shards(partitioned: PartitionedDataset, spec: CircuitSpec) -> list:
    dataset = partitioned.dataset
    logits = dataset.logit_indices()
    if np.any(logits < 0):
        bad = np.unique(dataset.labels[logits < 0]).tolist()
        raise DataError(f"anomaly classes {bad} present in training shards")
    rows = [list(shard) for shard in partitioned.shards]
    return [ClientShard(encode_batch(dataset.features[r], spec.n_qubits), logits[r]) for r in rows]


@dataclass(frozen=True)
class ValidationContext:
    """Pre-encoded validation set (and, for centroid scoring, training set)."""

    encoded: np.ndarray
    anomaly_labels: np.ndarray      # binary, 1 = anomaly
    normal_rows: np.ndarray         # indices of normal samples
    normal_logits: np.ndarray       # their mapped class labels
    train_encoded: np.ndarray | None


def build_validation_context(validation_set: LabeledDataset, spec: CircuitSpec,
                             normal_classes: frozenset,
                             train_encoded: np.ndarray | None = None) -> ValidationContext:
    if len(validation_set) == 0:
        raise DataError("empty validation set")
    if validation_set.normal_classes != normal_classes:
        raise ConfigError(
            "validation normal classes differ from the training normal classes"
        )
    logits = validation_set.logit_indices()
    normal_rows = np.flatnonzero(logits >= 0)
    if normal_rows.size == 0:
        raise DataError("validation set has no normal samples to compute loss on")
    return ValidationContext(
        encode_batch(validation_set.features, spec.n_qubits),
        (logits < 0).astype(np.int64),
        normal_rows,
        logits[normal_rows],
        train_encoded,
    )


def evaluate_global(spec: CircuitSpec, params: ModelParams, ctx: ValidationContext,
                    score_method: str, threshold) -> dict:
    """Exact-mode validation of one parameter set.

    Returns val_loss (cross-entropy on normal samples), fe_pct, me_pct under
    the configured threshold rule, and auroc/aupr over the scored set. A
    non-finite validation loss raises NumericError.
    """
    readout = probability_batch(spec, params.angles, ctx.encoded, _EXACT, _NOISELESS, None)
    val_loss = cross_entropy(params, readout[ctx.normal_rows], ctx.normal_logits)
    if not np.isfinite(val_loss):
        raise NumericError("non-finite validation loss")
    probs = class_probabilities(head_scores(params, readout))
    if score_method == SCORE_CENTROID:
        if ctx.train_encoded is None:
            raise ConfigError("centroid scoring needs the training set in the context")
        train_readout = probability_batch(
            spec, params.angles, ctx.train_encoded, _EXACT, _NOISELESS, None
        )
        centroid = class_probabilities(head_scores(params, train_readout)).mean(axis=0)
        scores = centroid_distance_scores(probs, centroid)
    else:
        scores = max_prob_scores(probs)
    scored = ScoredSet(scores, ctx.anomaly_labels)
    cut = youden_threshold(scored) if threshold == THRESHOLD_YOUDEN else float(threshold)
    counts = confusion(scored, cut)
    return {
        "val_loss": val_loss,
        "fe_pct": fe(counts),
        "me_pct": me(counts),
        "auroc": auroc(scored),
        "aupr": aupr(scored),
    }


# ---------------------------------------------------------------------------
# Rounds.

def _train_one_client(config, round_index, client, global_params, shard):
    rng = client_rng(config.master_seed, round_index, client)
    try:
        return train_on_encoded(
            config.spec,
            global_params,
            shard.encoded,
            shard.labels,
            config.train,
            global_params,
            config.shots,
            config.noise[client],
            rng,
        )
    except Exception as err:
        raise type(err)(f"client {client}, round {round_index}: {err}") from err


def run_round(round_index: int, config: FederationConfig, global_params: ModelParams,
              client_shards, validation) -> tuple:
    """One global round; returns (new global params, RoundRecord).

    `client_shards` are ClientShard values (see build_client_shards);
    `validation` is a prebuilt ValidationContext. Clients train one after
    another, each on its own generator derived from (master_seed, round,
    client), so no client's draws depend on another's.
    """
    if len(client_shards) != config.n_clients:
        raise ConfigError(
            f"{len(client_shards)} shards for {config.n_clients} clients"
        )
    results = [
        _train_one_client(config, round_index, client, global_params, shard)
        for client, shard in enumerate(client_shards)
    ]
    new_global = aggregate_weighted([r.params for r in results], config.client_weights)
    try:
        scores = evaluate_global(
            config.spec, new_global, validation, config.score_method, config.threshold
        )
    except Exception as err:
        raise type(err)(f"round {round_index}: {err}") from err
    record = RoundRecord(
        round_index=round_index,
        params_checksum=params_checksum(new_global),
        val_loss=scores["val_loss"],
        fe_pct=scores["fe_pct"],
        me_pct=scores["me_pct"],
        auroc=scores["auroc"],
        aupr=scores["aupr"],
        client_losses=tuple(float(r.loss_trace[-1]) for r in results),
        payload_bits=payload_bits(new_global.vector.size, config.bits_per_value),
        circuit_evals=sum(r.evals_used for r in results),
    )
    return new_global, record


def run_federation(config: FederationConfig, partitioned_data: PartitionedDataset,
                   validation_set: LabeledDataset) -> RoundHistory:
    """K rounds of federated training; deterministic under master_seed."""
    if config.train.mode != MODE_CLASSIFY:
        raise ConfigError("federation trains the classifier; vqe mode is local-only")
    if partitioned_data.n_clients != config.n_clients:
        raise ConfigError(
            f"partition has {partitioned_data.n_clients} shards, "
            f"config expects {config.n_clients}"
        )
    dataset = partitioned_data.dataset
    shards = build_client_shards(partitioned_data, config.spec)
    train_encoded = None
    if config.score_method == SCORE_CENTROID:
        train_encoded = encode_batch(dataset.features, config.spec.n_qubits)
    ctx = build_validation_context(
        validation_set, config.spec, dataset.normal_classes, train_encoded
    )
    n_classes = len(dataset.normal_classes)
    global_params = init_params(
        config.spec, n_classes, derive_rng(config.master_seed, STAGE_INIT)
    )
    history = RoundHistory(records=[])
    for k in range(config.global_rounds):
        global_params, record = run_round(k, config, global_params, shards, ctx)
        history.records.append(record)
    history.final_params = global_params
    return history
