"""Aggregation, payload accounting, federated rounds, validation scoring."""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import probability_batch
from qfedsim.core import NoiseSpec, ShotSpec
from qfedsim import core, federation, model
from qfedsim.data import (
    SCHEME_DIRICHLET,
    SCHEME_IID,
    LabeledDataset,
    PartitionScheme,
    partition,
    synth_anomaly_dataset,
    with_anomaly_classes,
)
from qfedsim.encoding import encode_batch
from qfedsim.exceptions import (
    ConfigError,
    ContractError,
    DataError,
    LabelError,
    NumericError,
    ShapeError,
)
from qfedsim.federation import (
    ROUND_METRICS,
    SCORE_CENTROID,
    SCORE_MAX_PROB,
    THRESHOLD_YOUDEN,
    FederationConfig,
    RoundHistory,
    aggregate_weighted,
    evaluate_global,
    params_checksum,
    payload_bits,
    run_federation,
    run_round,
)
from qfedsim.model import (
    CircuitSpec,
    ModelParams,
    head_softmax,
    init_params,
)
from qfedsim.seeding import client_rng, derive_rng, STAGE_INIT
from qfedsim.training import EncodedSet, TrainConfig, local_train
from test_acceptance import GENTLE_BENCHMARK, federated_history


def const_params(value, n_classes=2, spec=CircuitSpec(2, 1)):
    dim = spec.dim
    return ModelParams(
        np.full((spec.n_layers, spec.n_qubits), float(value)),
        np.full((n_classes, dim), float(value)),
        np.full(n_classes, float(value)),
    )


def random_params(seed, spec=CircuitSpec(2, 1), n_classes=2):
    return init_params(spec, n_classes, np.random.default_rng(seed))


def split_synth(seed, train_per_class=8):
    """Synthetic two-class benchmark split into normal-only train + mixed val."""
    ds = synth_anomaly_dataset(2, 12, 6, 4, 6.0, np.random.default_rng(seed))
    labels = ds.labels
    train_idx, val_idx = [], []
    seen = {0: 0, 1: 0}
    for i, c in enumerate(labels):
        c = int(c)
        if c in seen and seen[c] < train_per_class:
            train_idx.append(i)
            seen[c] += 1
        else:
            val_idx.append(i)
    return ds.subset(train_idx), ds.subset(val_idx)


def make_setup(n_clients=2, rounds=2, eta=0.05, lam=0.1, epochs=1, seed=5,
               score=SCORE_MAX_PROB, threshold=THRESHOLD_YOUDEN, mode="classify"):
    train, val = split_synth(seed)
    part = partition(train, SCHEME_IID, n_clients, np.random.default_rng(seed + 1))
    config = FederationConfig(
        n_clients=n_clients,
        global_rounds=rounds,
        client_weights=np.full(n_clients, 1.0 / n_clients),
        train=TrainConfig(eta=eta, lam=lam, local_epochs=epochs, batch_size=8, mode=mode),
        spec=CircuitSpec(2, 1),
        shots=ShotSpec.exact(),
        noise=(NoiseSpec.off(),) * n_clients,
        master_seed=seed,
        score_method=score,
        threshold=threshold,
    )
    return config, part, val


def encoded_set(dataset, spec):
    return EncodedSet(encode_batch(dataset.features, spec.n_qubits), dataset.logit_indices())


def shards_of(part, spec):
    whole = encoded_set(part.dataset, spec)
    return [EncodedSet(whole.encoded[list(r)], whole.labels[list(r)]) for r in part.shards]


# Each data fault run_federation refuses: (exception, message).
DATA_FAULTS = {
    "empty validation set": (DataError, "empty validation set"),
    "normal classes differ": (ConfigError, "normal classes differ"),
    "no normal validation rows": (DataError, "no normal samples"),
    "anomalies in training": (DataError, "anomaly classes"),
}


def with_fault(fault):
    """make_setup's inputs with one of the DATA_FAULTS."""
    config, part, val = make_setup(seed=0)
    if fault == "empty validation set":
        val = LabeledDataset(np.empty((0, 4)), [], frozenset({0, 1}), frozenset())
    elif fault == "normal classes differ":
        val = LabeledDataset(val.features, val.labels, frozenset({0}), frozenset({1, 2}))
    elif fault == "no normal validation rows":
        val = val.subset(np.flatnonzero(val.labels == 2))
    else:
        ds = synth_anomaly_dataset(2, 6, 4, 4, 6.0, np.random.default_rng(2))
        part = partition(ds, SCHEME_IID, 2, np.random.default_rng(3))
    return config, part, val


def row_by_row_metrics(spec, params, dataset, threshold):
    """The ROUND_METRICS one row at a time: each row through the dense ansatz
    unitary, anomalies read from isin(labels, anomaly_classes)."""
    unitary = oracles.ansatz_matrix(spec.n_qubits, params.angles, spec.entangler_pairs())
    normal_ids = sorted(dataset.normal_classes)
    is_anomaly = np.isin(dataset.labels, sorted(dataset.anomaly_classes))
    losses, scores = [], []
    for x, label, anomaly in zip(dataset.features, dataset.labels, is_anomaly):
        amps = np.zeros(spec.dim)
        amps[: x.size] = x / np.linalg.norm(x)
        y = params.head_weights @ (np.abs(unitary @ amps) ** 2) + params.head_bias
        log_p = y - y.max() - np.log(np.sum(np.exp(y - y.max())))
        if not anomaly:
            losses.append(-log_p[normal_ids.index(label)])
        scores.append(1.0 - np.exp(log_p).max())
    scores = np.array(scores)
    if threshold == THRESHOLD_YOUDEN:
        cuts = sorted(set(scores.tolist()))
        gains = [np.sum(is_anomaly[scores >= t]) - np.sum(~is_anomaly[scores >= t])
                 for t in cuts]
        threshold = cuts[int(np.argmax(gains))]
    flagged = scores >= threshold
    tp, fp = np.sum(flagged & is_anomaly), np.sum(flagged & ~is_anomaly)
    fn = np.sum(~flagged & is_anomaly)
    labels = is_anomaly.astype(int)
    return {"val_loss": np.mean(losses), "fe_pct": 100.0 * fp / (tp + fp),
            "me_pct": 100.0 * fn / (tp + fn), "auroc": oracles.pairwise_auroc(scores, labels),
            "aupr": oracles.sweep_aupr(scores, labels)}


def refuses(fault):
    error, message = DATA_FAULTS[fault]
    with pytest.raises(error, match=message):
        run_federation(*with_fault(fault))


def stacked(sets):
    """The (C, P) matrix of the parameter sets' vectors, as a round hands it
    to the server."""
    return np.stack([p.vector for p in sets])


class TestAggregate:
    def test_mean_of_constant_param_sets(self):
        out = aggregate_weighted(stacked([const_params(0.0), const_params(2.0)]),
                                 np.full(2, 0.5))
        assert out.shape == const_params(0.0).vector.shape
        assert np.all(out == 1.0)

    def test_weighted_combination(self):
        out = aggregate_weighted(
            stacked([const_params(0.0), const_params(4.0)]), np.array([0.25, 0.75])
        )
        assert np.allclose(out, 3.0, atol=1e-15)

    def test_one_hot_weights_select_a_client(self):
        a, b = random_params(1), random_params(2)
        out = aggregate_weighted(stacked([a, b]), np.array([1.0, 0.0]))
        assert np.array_equal(out, a.vector)

    def test_uniform_matches_stacked_mean(self):
        sets = [random_params(s) for s in range(5)]
        out = aggregate_weighted(stacked(sets), np.full(5, 0.2))
        expected = np.mean([p.vector for p in sets], axis=0)
        assert np.allclose(out, expected, atol=1e-12)

    def test_weighted_matches_manual_sum(self):
        rng = np.random.default_rng(3)
        sets = [random_params(s) for s in range(4)]
        raw = rng.random(4)
        alphas = raw / raw.sum()
        out = aggregate_weighted(stacked(sets), alphas)
        expected = sum(a * p.vector for a, p in zip(alphas, sets))
        assert np.allclose(out, expected, atol=1e-12)

    def test_result_stays_in_convex_hull(self):
        weights = stacked([random_params(s) for s in range(3)])
        out = aggregate_weighted(weights, np.full(3, 1.0 / 3))
        assert np.all(out >= weights.min(axis=0) - 1e-12)
        assert np.all(out <= weights.max(axis=0) + 1e-12)

    @pytest.mark.parametrize("n_sets", [1, 3, 10])
    def test_matches_per_part_tensordot(self, n_sets):
        spec = CircuitSpec(3, 2)
        sets = [random_params(s, spec, 3) for s in range(n_sets)]
        raw = np.random.default_rng(n_sets).random(n_sets)
        alphas = raw / raw.sum()
        out = sets[0].with_vector(aggregate_weighted(stacked(sets), alphas))
        for part in ("angles", "head_weights", "head_bias"):
            ref = np.tensordot(alphas, np.stack([getattr(p, part) for p in sets]), axes=1)
            assert np.allclose(getattr(out, part), ref, rtol=0.0, atol=1e-15)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            aggregate_weighted(np.empty((0, random_params(0).vector.size)), np.array([]))

    def test_weight_vector_length_checked(self):
        with pytest.raises(ShapeError):
            aggregate_weighted(stacked([random_params(0)]), np.array([0.5, 0.5]))

    def test_weight_sum_checked(self):
        with pytest.raises(ConfigError):
            aggregate_weighted(stacked([random_params(0), random_params(1)]),
                               np.array([0.5, 0.4]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_weighted(stacked([random_params(0), random_params(1)]),
                               np.array([1.5, -0.5]))

    def test_nan_weight_rejected(self):
        weights = stacked([random_params(0)] * 3)
        with pytest.raises(ConfigError, match="weights"):
            aggregate_weighted(weights, np.array([np.nan, 0.5, 0.5]))


class TestPayloadBits:
    def test_reference_geometry(self):
        assert payload_bits(12, 32) == 768

    def test_minimal(self):
        assert payload_bits(1, 1) == 2

    def test_wide_vector(self):
        assert payload_bits(200, 32) == 12800

    def test_zero_params_rejected(self):
        with pytest.raises(ContractError):
            payload_bits(0, 32)


class TestParamsChecksum:
    def test_deterministic_and_hex(self):
        p = random_params(7)
        a, b = params_checksum(p), params_checksum(p)
        assert a == b
        assert len(a) == 16
        int(a, 16)

    def test_sensitive_to_any_change(self):
        p = random_params(7)
        q = ModelParams(p.angles + 1e-12, p.head_weights, p.head_bias)
        assert params_checksum(p) != params_checksum(q)


class TestValidationContext:
    """The checks run_federation makes on its two sets, the shards it slices
    from the training set, and evaluate_global on an encoded validation set."""

    def test_empty_validation_rejected(self):
        refuses("empty validation set")

    def test_mismatched_normal_classes_rejected(self):
        refuses("normal classes differ")

    def test_anomaly_only_validation_rejected(self):
        refuses("no normal validation rows")

    def test_anomalies_in_training_shards_rejected(self):
        refuses("anomalies in training")

    @pytest.mark.parametrize("fault", sorted(DATA_FAULTS))
    def test_data_errors_raise_before_any_client_trains(self, fault, monkeypatch):
        calls = []
        original = federation.train_on_encoded

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(federation, "train_on_encoded", counted)
        refuses(fault)
        assert calls == []

    def test_shards_slice_the_encoded_training_set_bit_for_bit(self, monkeypatch):
        config, _, val = make_setup(n_clients=3, rounds=1, seed=6)
        train, _ = split_synth(6)
        part = partition(train, PartitionScheme(SCHEME_DIRICHLET, alpha=0.5), 3,
                         np.random.default_rng(7))
        handed = {}
        original = federation.train_on_encoded

        def captured(*args):
            handed.update(enumerate(args[3]))
            return original(*args)

        monkeypatch.setattr(federation, "train_on_encoded", captured)
        run_federation(config, part, val)
        logits = train.logit_indices()
        assert sorted(handed) == [0, 1, 2]
        for client, rows in enumerate(part.shards):
            rows = list(rows)
            assert np.array_equal(handed[client].encoded, encode_batch(train.features[rows], 2))
            assert np.array_equal(handed[client].labels, logits[rows])

    def test_centroid_scoring_needs_training_context(self):
        _, val = split_synth(0)
        spec = CircuitSpec(2, 1)
        with pytest.raises(ConfigError):
            evaluate_global(
                spec, random_params(0), encoded_set(val, spec), None, SCORE_CENTROID, 0.5
            )

    def test_non_finite_validation_loss_raises(self):
        # Finite head weights at the float limit: the score gap between the
        # classes overflows, so a class-1 row has log-probability -inf.
        spec = CircuitSpec(2, 1)
        rng = np.random.default_rng(4)
        val = LabeledDataset(rng.uniform(0.1, 1.0, size=(8, 4)), [0, 0, 0, 1, 1, 1, 2, 2],
                             frozenset({0, 1}), frozenset({2}))
        params = ModelParams(np.zeros((1, 2)), np.array([[1e308] * 4, [-1e308] * 4]),
                             np.zeros(2))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="non-finite validation loss"):
                evaluate_global(spec, params, encoded_set(val, spec), None,
                                SCORE_MAX_PROB, THRESHOLD_YOUDEN)

    def test_fixed_zero_threshold_flags_everything(self):
        _, val = split_synth(0)
        spec = CircuitSpec(2, 1)
        validation = encoded_set(val, spec)
        out = evaluate_global(spec, random_params(0), validation, None, SCORE_MAX_PROB, 0.0)
        n_anom = int(np.sum(validation.labels < 0))
        n_norm = int(validation.labels.size - n_anom)
        assert out["me_pct"] == pytest.approx(0.0)
        assert out["fe_pct"] == pytest.approx(100.0 * n_norm / (n_norm + n_anom))


class TestEvaluateGlobal:
    @pytest.mark.parametrize("threshold", [THRESHOLD_YOUDEN, 0.4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_anomalies_match_a_row_by_row_reference(self, seed, threshold):
        # Classes 1 and 3 are the anomalies, so the normal classes 0 and 2
        # map to logits 0 and 1; rows are shuffled so anomalies interleave.
        rng = np.random.default_rng(seed)
        ds = with_anomaly_classes(synth_anomaly_dataset(3, 10, 8, 8, 3.0, rng), [1, 3])
        val = ds.subset(rng.permutation(len(ds)))
        at = np.flatnonzero(np.isin(val.labels, [1, 3]))
        assert np.any(np.diff(at) > 1)
        spec = CircuitSpec(3, 2)
        params = init_params(spec, 2, rng)
        out = evaluate_global(spec, params, encoded_set(val, spec), None, SCORE_MAX_PROB,
                              threshold)
        reference = row_by_row_metrics(spec, params, val, threshold)
        assert list(out) == list(ROUND_METRICS)
        for name in ROUND_METRICS:
            assert out[name] == pytest.approx(reference[name], rel=1e-12, abs=1e-12), name

    def test_centroid_reference_is_the_whole_training_set_in_row_order(self, monkeypatch):
        # Each client's shard interleaves with the others (Dirichlet), so
        # the shards concatenated hold the training rows in another order,
        # and their mean would be summed in another order.
        config, _, val = make_setup(n_clients=3, rounds=1, seed=6, score=SCORE_CENTROID)
        train, _ = split_synth(6)
        part = partition(train, PartitionScheme(SCHEME_DIRICHLET, alpha=0.5), 3,
                         np.random.default_rng(7))
        centroids = []
        original = federation.centroid_distance_scores

        def captured(probs, centroid):
            centroids.append(centroid)
            return original(probs, centroid)

        monkeypatch.setattr(federation, "centroid_distance_scores", captured)
        # The training set takes the circuit matrix, which rounds unlike the
        # kernels; the kernel path must give the oracle's bits.
        assert model.circuit_matrix_pays(config.spec, len(train))
        matrix = run_federation(config, part, val)
        monkeypatch.setattr(model, "circuit_matrix_pays", lambda spec, rows: False)
        history = run_federation(config, part, val)
        params = history.final_params
        assert np.array_equal(matrix.final_params.vector, params.vector)
        readout = probability_batch(config.spec, params.angles,
                                    encode_batch(train.features, config.spec.n_qubits))
        expected = head_softmax(params, readout)[0].mean(axis=0)
        assert len(centroids) == 2
        assert np.array_equal(centroids[1], expected)
        assert np.allclose(centroids[0], expected, rtol=0.0, atol=1e-15)
        reference = evaluate_global(config.spec, params, encoded_set(val, config.spec),
                                    encoded_set(train, config.spec), SCORE_CENTROID,
                                    config.threshold)
        record = history.records[0]
        assert {name: getattr(record, name) for name in ROUND_METRICS} == reference


    def test_validation_and_centroid_reference_share_one_evaluation(self, monkeypatch):
        # Both sets go through model.class_probabilities, one call each.
        config, _, val = make_setup(n_clients=2, rounds=1, seed=6, score=SCORE_CENTROID)
        train, _ = split_synth(6)
        validation, reference = encoded_set(val, config.spec), encoded_set(train, config.spec)
        seen = []
        original = federation.class_probabilities

        def spy(spec, params, encoded):
            seen.append(encoded)
            return original(spec, params, encoded)

        monkeypatch.setattr(federation, "class_probabilities", spy)
        evaluate_global(config.spec, random_params(3), validation, reference, SCORE_CENTROID,
                        config.threshold)
        assert len(seen) == 2
        assert seen[0] is validation.encoded and seen[1] is reference.encoded

    @pytest.mark.parametrize("seed", [0, 1])
    def test_val_loss_is_the_cross_entropy_of_the_normal_rows_alone(self, seed, monkeypatch):
        # A head pass over the normal rows only, then a log-sum-exp
        # cross-entropy: the loss read off the one kernel pass over every
        # row must be the same bits, and the circuit matrix, which the set
        # takes by default, must agree to rounding.
        rng = np.random.default_rng(seed)
        ds = with_anomaly_classes(synth_anomaly_dataset(3, 10, 8, 8, 3.0, rng), [1, 3])
        val = ds.subset(rng.permutation(len(ds)))
        spec = CircuitSpec(3, 2)
        params = init_params(spec, 2, rng)
        validation = encoded_set(val, spec)
        assert model.circuit_matrix_pays(spec, len(validation.labels))
        matrix = evaluate_global(spec, params, validation, None, SCORE_MAX_PROB,
                                 THRESHOLD_YOUDEN)
        monkeypatch.setattr(model, "circuit_matrix_pays", lambda spec, rows: False)
        out = evaluate_global(spec, params, validation, None, SCORE_MAX_PROB, THRESHOLD_YOUDEN)
        normal = validation.labels >= 0
        labels = validation.labels[normal]
        y = (probability_batch(spec, params.angles, validation.encoded[normal])
             @ params.head_weights.T + params.head_bias)
        shifted = y - y.max(axis=1, keepdims=True)
        log_p = shifted[np.arange(len(labels)), labels] - np.log(np.exp(shifted).sum(axis=1))
        assert out["val_loss"] == float(-log_p.mean())
        assert matrix["val_loss"] == pytest.approx(float(-log_p.mean()), rel=0.0, abs=1e-15)


class TestRunRound:
    def test_single_client_round_is_plain_local_training(self):
        config, part, val = make_setup(n_clients=1, seed=9)
        shards = shards_of(part, config.spec)
        validation = encoded_set(val, config.spec)
        start = init_params(config.spec, 2, derive_rng(config.master_seed, STAGE_INIT))
        new_global, record = run_round(0, config, start, shards, validation)
        direct = local_train(
            config.spec, start, shards[0], config.train, start, config.shots,
            config.noise[0], client_rng(config.master_seed, 0, 0),
        )
        assert np.array_equal(new_global.vector, direct.params.vector)
        assert record.client_losses == (float(direct.loss_trace[-1]),)

    def test_round_averages_each_client_trained_alone(self):
        # Three clients on ragged Dirichlet shards, weighted by size: the new
        # global vector is the tensordot of the clients' own local_train
        # vectors, and each client loss the last entry of its own trace.
        config, _, val = make_setup(n_clients=3, epochs=2, seed=6)
        train, _ = split_synth(6)
        part = partition(train, PartitionScheme(SCHEME_DIRICHLET, alpha=0.5), 3,
                         np.random.default_rng(7))
        sizes = np.array([len(shard) for shard in part.shards])
        assert len(set(sizes.tolist())) == 3
        config = replace(config, client_weights=sizes / sizes.sum())
        shards = shards_of(part, config.spec)
        start = init_params(config.spec, 2, derive_rng(config.master_seed, STAGE_INIT))
        new_global, record = run_round(0, config, start, shards, encoded_set(val, config.spec))
        alone = [local_train(config.spec, start, shard, config.train, start, config.shots,
                             config.noise[c], client_rng(config.master_seed, 0, c))
                 for c, shard in enumerate(shards)]
        expected = np.tensordot(config.client_weights,
                                np.stack([result.params.vector for result in alone]), axes=1)
        assert new_global.vector.tobytes() == expected.tobytes()
        assert record.client_losses == tuple(float(result.loss_trace[-1]) for result in alone)

    def test_zero_eta_round_returns_same_params(self):
        config, part, val = make_setup(eta=0.0, seed=11)
        shards = shards_of(part, config.spec)
        validation = encoded_set(val, config.spec)
        start = init_params(config.spec, 2, derive_rng(config.master_seed, STAGE_INIT))
        new_global, record = run_round(0, config, start, shards, validation)
        assert np.array_equal(new_global.vector, start.vector)
        assert record.params_checksum == params_checksum(start)

    def test_client_failures_name_client_and_round(self):
        config, part, val = make_setup(seed=13)
        shards = shards_of(part, config.spec)
        validation = encoded_set(val, config.spec)
        start = init_params(config.spec, 2, derive_rng(config.master_seed, STAGE_INIT))
        poisoned = [EncodedSet(shards[0].encoded, shards[0].labels + 99), shards[1]]
        with pytest.raises(LabelError, match="client 0, round 3"):
            run_round(3, config, start, poisoned, validation)

    def test_validation_failures_name_the_round(self):
        # Class-0 rows train to a finite loss under head weights at the float
        # limit, but the validation set's class-1 rows overflow (see
        # test_non_finite_validation_loss_raises).
        config, _, _ = make_setup(n_clients=1, eta=0.0, seed=17)
        spec = config.spec
        rng = np.random.default_rng(4)
        val = LabeledDataset(rng.uniform(0.1, 1.0, size=(8, 4)), [0, 0, 0, 1, 1, 1, 2, 2],
                             frozenset({0, 1}), frozenset({2}))
        validation = encoded_set(val, spec)
        shard = EncodedSet(validation.encoded[:3], np.zeros(3, dtype=np.int64))
        params = ModelParams(np.zeros((1, 2)), np.array([[1e308] * 4, [-1e308] * 4]),
                             np.zeros(2))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="round 0: non-finite validation loss"):
                run_round(0, config, params, [shard], validation)

    @pytest.mark.parametrize("path", ["matrix", "kernels"])
    @pytest.mark.parametrize("row", [0, 9, 19])
    def test_non_finite_scores_in_any_block_name_the_round(self, row, path, monkeypatch):
        # Zero angles leave basis state 0 alone, so its class-0 score under
        # the +1.7e308 weight and the 0.5e308 bias overflows; every other
        # row's p0 stays below 0.4 and its score finite. The 20 rows run in
        # blocks of 8, so the row sits in the first, second or last block.
        config, _, _ = make_setup(n_clients=1, eta=0.0, seed=17)
        spec = config.spec
        features = np.random.default_rng(1).uniform(0.5, 1.0, size=(20, 4))
        features[row] = [1.0, 0.0, 0.0, 0.0]
        val = LabeledDataset(features, np.arange(20) % 3, frozenset({0, 1}), frozenset({2}))
        validation = encoded_set(val, spec)
        shard = EncodedSet(np.delete(validation.encoded, row, axis=0)[:3],
                           np.zeros(3, dtype=np.int64))
        params = ModelParams(np.zeros((1, 2)), np.array([[1.7e308, 0, 0, 0], [0, 0, 0, 0]]),
                             np.array([0.5e308, 0.0]))
        monkeypatch.setattr(model, "circuit_matrix_pays", lambda spec, rows: path == "matrix")
        monkeypatch.setattr(model, "EVAL_BLOCK_AMPLITUDES", 8 * spec.dim)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError,
                               match="^round 0: class scores contain non-finite entries$"):
                run_round(0, config, params, [shard], validation)

    @pytest.mark.parametrize("path", ["matrix", "kernels"])
    def test_non_finite_validation_loss_on_either_path_names_the_round(self, path,
                                                                      monkeypatch):
        # test_validation_failures_name_the_round's set, in blocks of 3 rows
        config, _, _ = make_setup(n_clients=1, eta=0.0, seed=17)
        rng = np.random.default_rng(4)
        val = LabeledDataset(rng.uniform(0.1, 1.0, size=(8, 4)), [0, 0, 0, 1, 1, 1, 2, 2],
                             frozenset({0, 1}), frozenset({2}))
        validation = encoded_set(val, config.spec)
        shard = EncodedSet(validation.encoded[:3], np.zeros(3, dtype=np.int64))
        params = ModelParams(np.zeros((1, 2)), np.array([[1e308] * 4, [-1e308] * 4]),
                             np.zeros(2))
        monkeypatch.setattr(model, "circuit_matrix_pays", lambda spec, rows: path == "matrix")
        monkeypatch.setattr(model, "EVAL_BLOCK_AMPLITUDES", 3 * config.spec.dim)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="^round 0: non-finite validation loss$"):
                run_round(0, config, params, [shard], validation)

    def test_each_client_trains_once_per_round(self, monkeypatch):
        # perfbench's federation.train span is the one train_on_encoded call
        # of a round, which trains every client's shard once
        config, part, val = make_setup(n_clients=3, seed=19)
        shards = shards_of(part, config.spec)
        validation = encoded_set(val, config.spec)
        start = init_params(config.spec, 2, derive_rng(config.master_seed, STAGE_INIT))
        calls, trained = [], []
        original = federation.train_on_encoded
        original_lockstep = federation.train_lockstep

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        def lockstep(spec, start_params, client_shards, *args):
            trained.append(list(client_shards))
            return original_lockstep(spec, start_params, client_shards, *args)

        monkeypatch.setattr(federation, "train_on_encoded", counted)
        monkeypatch.setattr(federation, "train_lockstep", lockstep)
        run_round(0, config, start, shards, validation)
        assert calls == [0]
        assert len(trained) == 1 and len(trained[0]) == 3
        assert all(got is shard for got, shard in zip(trained[0], shards))

    def test_shard_count_mismatch_rejected(self):
        config, part, val = make_setup(seed=15)
        shards = shards_of(part, config.spec)
        validation = encoded_set(val, config.spec)
        start = init_params(config.spec, 2, derive_rng(config.master_seed, STAGE_INIT))
        with pytest.raises(ConfigError):
            run_round(0, config, start, shards[:1], validation)


class TestRunFederation:
    def test_deterministic_under_master_seed(self):
        config, part, val = make_setup(seed=21)
        a = run_federation(config, part, val)
        b = run_federation(config, part, val)
        assert np.array_equal(a.final_params.vector, b.final_params.vector)
        assert [r.params_checksum for r in a.records] == [
            r.params_checksum for r in b.records
        ]

    def test_reference_one_qubit_kernel_gives_the_same_rounds(self, monkeypatch):
        # Every forward pass, adjoint sweep and expectation runs the one-qubit
        # kernel; the former two-branch matrix kernel, fed the same gates
        # through oracles.matrix_kernel, must leave a gentle federation on
        # the same parameters, round by round.
        rounds = federated_history(GENTLE_BENCHMARK, 0, global_rounds=3).records
        monkeypatch.setattr(core, "apply_one_qubit_kernel", oracles.matrix_kernel)
        reference = federated_history(GENTLE_BENCHMARK, 0, global_rounds=3).records
        assert len(rounds) == 3
        assert [r.params_checksum for r in rounds] == [r.params_checksum for r in reference]

    def test_round_records_are_complete_and_ordered(self):
        config, part, val = make_setup(rounds=3, seed=25)
        history = run_federation(config, part, val)
        assert len(history.records) == 3
        assert [r.round_index for r in history.records] == [0, 1, 2]
        for r in history.records:
            assert 0.0 <= r.auroc <= 1.0
            assert 0.0 <= r.aupr <= 1.0
            assert 0.0 <= r.fe_pct <= 100.0
            assert 0.0 <= r.me_pct <= 100.0
            assert len(r.client_losses) == config.n_clients
            # the whole model goes up and down: 2 angles, 2 x 4 head weights, 2 biases
            assert r.payload_bits == payload_bits(2 + 2 * 4 + 2, 32)

    def test_eval_accounting_sums_client_gradient_work(self):
        config, part, val = make_setup(rounds=2, epochs=2, seed=27)
        history = run_federation(config, part, val)
        d = config.spec.n_layers * config.spec.n_qubits
        n_train = sum(len(s) for s in part.shards)
        for r in history.records:
            assert r.circuit_evals == 2 * d * config.train.local_epochs * n_train

    def test_vqe_mode_rejected(self):
        config, part, val = make_setup(seed=29, mode="vqe")
        with pytest.raises(ConfigError, match="vqe"):
            run_federation(config, part, val)

    def test_partition_shard_count_must_match(self):
        config, part, val = make_setup(n_clients=2, seed=31)
        train, _ = split_synth(31)
        wider = partition(train, SCHEME_IID, 3, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            run_federation(config, wider, val)

    def test_centroid_scoring_runs(self):
        config, part, val = make_setup(seed=33, score=SCORE_CENTROID)
        history = run_federation(config, part, val)
        assert len(history.records) == config.global_rounds
        assert 0.0 <= history.records[-1].auroc <= 1.0

    def test_csv_text_shape(self):
        config, part, val = make_setup(rounds=2, seed=35)
        history = run_federation(config, part, val)
        text = history.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == (
            "round,params_checksum,val_loss,fe_pct,me_pct,auroc,aupr,"
            "client_loss_0,client_loss_1,payload_bits,circuit_evals"
        )
        assert len(lines) == 1 + 2
        assert len(lines[1].split(",")) == len(lines[0].split(","))


class TestFederationConfigValidation:
    def test_weight_shape_and_sum(self):
        base = dict(
            n_clients=2,
            global_rounds=1,
            train=TrainConfig(),
            spec=CircuitSpec(2, 1),
            shots=ShotSpec.exact(),
            noise=(NoiseSpec.off(),) * 2,
            master_seed=0,
        )
        with pytest.raises(ConfigError):
            FederationConfig(client_weights=np.array([1.0]), **base)
        with pytest.raises(ConfigError):
            FederationConfig(client_weights=np.array([0.7, 0.2]), **base)
        with pytest.raises(ConfigError):
            FederationConfig(client_weights=np.array([1.0, 0.0]), **base)

    @pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [np.nan, np.nan, np.nan],
                                         [0.5, 0.5, np.nan]])
    def test_nan_weights_rejected(self, weights):
        with pytest.raises(ConfigError, match="client_weights"):
            FederationConfig(
                n_clients=3,
                global_rounds=1,
                client_weights=np.array(weights),
                train=TrainConfig(),
                spec=CircuitSpec(2, 1),
                shots=ShotSpec.exact(),
                noise=(NoiseSpec.off(),) * 3,
                master_seed=0,
            )

    def test_noise_arity_checked(self):
        with pytest.raises(ConfigError):
            FederationConfig(
                n_clients=2,
                global_rounds=1,
                client_weights=np.array([0.5, 0.5]),
                train=TrainConfig(),
                spec=CircuitSpec(2, 1),
                shots=ShotSpec.exact(),
                noise=(NoiseSpec.off(),),
                master_seed=0,
            )

    def test_score_and_threshold_validated(self):
        base = dict(
            n_clients=1,
            global_rounds=1,
            client_weights=np.array([1.0]),
            train=TrainConfig(),
            spec=CircuitSpec(2, 1),
            shots=ShotSpec.exact(),
            noise=(NoiseSpec.off(),),
            master_seed=0,
        )
        with pytest.raises(ConfigError):
            FederationConfig(score_method="entropy", **base)
        with pytest.raises(ConfigError):
            FederationConfig(threshold="median", **base)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, True, False])
    def test_non_finite_or_boolean_threshold_rejected(self, threshold):
        with pytest.raises(ConfigError, match="threshold"):
            FederationConfig(
                n_clients=1,
                global_rounds=1,
                client_weights=np.array([1.0]),
                train=TrainConfig(),
                spec=CircuitSpec(2, 1),
                shots=ShotSpec.exact(),
                noise=(NoiseSpec.off(),),
                master_seed=0,
                threshold=threshold,
            )
