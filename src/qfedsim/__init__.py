"""qfedsim: a desk-scale simulator of personalized quantum federated learning
for anomaly detection.

Statevector circuit simulation (Ry/CX ansatz, amplitude encoding, optional
depolarizing noise and finite measurement shots), parameter-shift training
with a proximal personalization term, federated rounds with weighted
aggregation, non-IID partitioning, ranking metrics, and a reproducible
experiment runner.
"""

from .config import ExperimentConfig, config_from_mapping, load_config
from .core import (
    MAX_QUBITS,
    NoiseSpec,
    Observable,
    QuantumState,
    ShotSpec,
    expectation,
)
from .data import (
    LabeledDataset,
    PartitionScheme,
    PartitionStats,
    PartitionedDataset,
    heterogeneity,
    load_features,
    partition,
    reduce_features,
    synth_anomaly_dataset,
    with_anomaly_classes,
)
from .encoding import encode_batch
from .exceptions import (
    CapacityError,
    ConfigError,
    ContractError,
    DataError,
    DegenerateInputError,
    LabelError,
    NumericError,
    ParseError,
    PartitionError,
    SchemaError,
    ShapeError,
    SimulationError,
    UndefinedMetricError,
)
from .federation import (
    FederationConfig,
    RoundHistory,
    RoundRecord,
    aggregate_weighted,
    payload_bits,
    run_federation,
    run_round,
)
from .metrics import (
    ConfusionCounts,
    ScoredSet,
    aupr,
    auroc,
    confusion,
    fe,
    me,
    youden_threshold,
)
from .model import (
    CircuitSpec,
    ModelParams,
    head_softmax,
    init_params,
    load_params,
    run_circuit,
    save_params,
)
from .runner import RunResult, compare, run, split_dataset, sweep
from .training import (
    GradientEstimate,
    LocalTrainResult,
    TrainConfig,
    grad_parameter_shift,
    local_train,
    loss_vqe,
    personalized_step,
)

__version__ = "0.1.0"
