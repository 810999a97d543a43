"""Aggregation, payload accounting, federated rounds, validation scoring."""

import numpy as np
import pytest

from qfedsim.core import NoiseSpec, ShotSpec
from qfedsim.data import SCHEME_IID, partition, synth_anomaly_dataset
from qfedsim.exceptions import (
    ConfigError,
    ContractError,
    DataError,
    LabelError,
    NumericError,
    ShapeError,
)
from qfedsim.federation import (
    SCORE_CENTROID,
    SCORE_MAX_PROB,
    THRESHOLD_YOUDEN,
    ClientShard,
    FederationConfig,
    RoundHistory,
    aggregate_weighted,
    build_client_shards,
    build_validation_context,
    evaluate_global,
    params_checksum,
    payload_bits,
    run_federation,
    run_round,
)
from qfedsim.model import CircuitSpec, ModelParams, init_params
from qfedsim.seeding import client_rng, derive_rng, STAGE_INIT
from qfedsim.training import TrainConfig, train_on_encoded


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


class TestAggregate:
    def test_mean_of_constant_param_sets(self):
        out = aggregate_weighted([const_params(0.0), const_params(2.0)], np.full(2, 0.5))
        assert np.all(out.angles == 1.0)
        assert np.all(out.head_weights == 1.0)
        assert np.all(out.head_bias == 1.0)

    def test_weighted_combination(self):
        out = aggregate_weighted(
            [const_params(0.0), const_params(4.0)], np.array([0.25, 0.75])
        )
        assert np.allclose(out.to_vector(), 3.0, atol=1e-15)

    def test_one_hot_weights_select_a_client(self):
        a, b = random_params(1), random_params(2)
        out = aggregate_weighted([a, b], np.array([1.0, 0.0]))
        assert np.array_equal(out.to_vector(), a.to_vector())

    def test_uniform_matches_stacked_mean(self):
        sets = [random_params(s) for s in range(5)]
        out = aggregate_weighted(sets, np.full(5, 0.2))
        expected = np.mean([p.to_vector() for p in sets], axis=0)
        assert np.allclose(out.to_vector(), expected, atol=1e-12)

    def test_weighted_matches_manual_sum(self):
        rng = np.random.default_rng(3)
        sets = [random_params(s) for s in range(4)]
        raw = rng.random(4)
        alphas = raw / raw.sum()
        out = aggregate_weighted(sets, alphas)
        expected = sum(a * p.to_vector() for a, p in zip(alphas, sets))
        assert np.allclose(out.to_vector(), expected, atol=1e-12)

    def test_result_stays_in_convex_hull(self):
        sets = [random_params(s) for s in range(3)]
        stacked = np.stack([p.to_vector() for p in sets])
        out = aggregate_weighted(sets, np.full(3, 1.0 / 3)).to_vector()
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            aggregate_weighted([], np.array([]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            aggregate_weighted(
                [random_params(0), random_params(0, CircuitSpec(2, 2))], np.full(2, 0.5)
            )

    def test_weight_vector_length_checked(self):
        with pytest.raises(ShapeError):
            aggregate_weighted([random_params(0)], np.array([0.5, 0.5]))

    def test_weight_sum_checked(self):
        with pytest.raises(ConfigError):
            aggregate_weighted([random_params(0), random_params(1)], np.array([0.5, 0.4]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_weighted([random_params(0), random_params(1)], np.array([1.5, -0.5]))


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
    def test_empty_validation_rejected(self):
        train, _ = split_synth(0)
        from qfedsim.data import LabeledDataset

        empty = LabeledDataset(np.empty((0, 4)), [], frozenset({0, 1}), frozenset())
        with pytest.raises(DataError):
            build_validation_context(empty, CircuitSpec(2, 1), train.normal_classes)

    def test_mismatched_normal_classes_rejected(self):
        _, val = split_synth(0)
        with pytest.raises(ConfigError):
            build_validation_context(val, CircuitSpec(2, 1), frozenset({0}))

    def test_anomaly_only_validation_rejected(self):
        ds = synth_anomaly_dataset(2, 2, 6, 4, 6.0, np.random.default_rng(1))
        labels = ds.labels
        only_anomalies = ds.subset(np.flatnonzero(labels == 2))
        with pytest.raises(DataError):
            build_validation_context(
                only_anomalies, CircuitSpec(2, 1), frozenset({0, 1})
            )

    def test_anomalies_in_training_shards_rejected(self):
        ds = synth_anomaly_dataset(2, 6, 4, 4, 6.0, np.random.default_rng(2))
        part = partition(ds, SCHEME_IID, 2, np.random.default_rng(3))
        with pytest.raises(DataError, match="anomaly classes"):
            build_client_shards(part, CircuitSpec(2, 1))

    def test_centroid_scoring_needs_training_context(self):
        _, val = split_synth(0)
        ctx = build_validation_context(val, CircuitSpec(2, 1), frozenset({0, 1}))
        with pytest.raises(ConfigError):
            evaluate_global(
                CircuitSpec(2, 1), random_params(0), ctx, SCORE_CENTROID, 0.5
            )

    def test_non_finite_validation_loss_raises(self):
        # Finite head weights at the float limit: the score gap between the
        # classes overflows, so a class-1 row has log-probability -inf.
        from qfedsim.data import LabeledDataset

        spec = CircuitSpec(2, 1)
        rng = np.random.default_rng(4)
        val = LabeledDataset(rng.uniform(0.1, 1.0, size=(8, 4)), [0, 0, 0, 1, 1, 1, 2, 2],
                             frozenset({0, 1}), frozenset({2}))
        ctx = build_validation_context(val, spec, frozenset({0, 1}))
        params = ModelParams(np.zeros((1, 2)), np.array([[1e308] * 4, [-1e308] * 4]),
                             np.zeros(2))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="non-finite validation loss"):
                evaluate_global(spec, params, ctx, SCORE_MAX_PROB, THRESHOLD_YOUDEN)

    def test_fixed_zero_threshold_flags_everything(self):
        _, val = split_synth(0)
        ctx = build_validation_context(val, CircuitSpec(2, 1), frozenset({0, 1}))
        out = evaluate_global(CircuitSpec(2, 1), random_params(0), ctx, SCORE_MAX_PROB, 0.0)
        n_anom = int(ctx.anomaly_labels.sum())
        n_norm = int(ctx.anomaly_labels.size - n_anom)
        assert out["me_pct"] == pytest.approx(0.0)
        assert out["fe_pct"] == pytest.approx(100.0 * n_norm / (n_norm + n_anom))


class TestRunRound:
    def test_single_client_round_is_plain_local_training(self):
        config, part, val = make_setup(n_clients=1, seed=9)
        shards = build_client_shards(part, config.spec)
        ctx = build_validation_context(val, config.spec, part.dataset.normal_classes)
        start = init_params(config.spec, 2, derive_rng(config.master_seed, STAGE_INIT))
        new_global, record = run_round(0, config, start, shards, ctx)
        direct = train_on_encoded(
            config.spec, start, shards[0].encoded, shards[0].labels, config.train,
            start, config.shots, config.noise[0], client_rng(config.master_seed, 0, 0),
        )
        assert np.array_equal(new_global.to_vector(), direct.params.to_vector())
        assert record.client_losses == (float(direct.loss_trace[-1]),)

    def test_zero_eta_round_returns_same_params(self):
        config, part, val = make_setup(eta=0.0, seed=11)
        shards = build_client_shards(part, config.spec)
        ctx = build_validation_context(val, config.spec, part.dataset.normal_classes)
        start = init_params(config.spec, 2, derive_rng(config.master_seed, STAGE_INIT))
        new_global, record = run_round(0, config, start, shards, ctx)
        assert np.array_equal(new_global.to_vector(), start.to_vector())
        assert record.params_checksum == params_checksum(start)

    def test_client_failures_name_client_and_round(self):
        config, part, val = make_setup(seed=13)
        shards = build_client_shards(part, config.spec)
        ctx = build_validation_context(val, config.spec, part.dataset.normal_classes)
        start = init_params(config.spec, 2, derive_rng(config.master_seed, STAGE_INIT))
        poisoned = [ClientShard(shards[0].encoded, shards[0].labels + 99), shards[1]]
        with pytest.raises(LabelError, match="client 0, round 3"):
            run_round(3, config, start, poisoned, ctx)

    def test_validation_failures_name_the_round(self):
        # Class-0 rows train to a finite loss under head weights at the float
        # limit, but the validation set's class-1 rows overflow (see
        # test_non_finite_validation_loss_raises).
        from qfedsim.data import LabeledDataset

        config, _, _ = make_setup(n_clients=1, eta=0.0, seed=17)
        spec = config.spec
        rng = np.random.default_rng(4)
        val = LabeledDataset(rng.uniform(0.1, 1.0, size=(8, 4)), [0, 0, 0, 1, 1, 1, 2, 2],
                             frozenset({0, 1}), frozenset({2}))
        ctx = build_validation_context(val, spec, frozenset({0, 1}))
        shard = ClientShard(ctx.encoded[:3], np.zeros(3, dtype=np.int64))
        params = ModelParams(np.zeros((1, 2)), np.array([[1e308] * 4, [-1e308] * 4]),
                             np.zeros(2))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="round 0: non-finite validation loss"):
                run_round(0, config, params, [shard], ctx)

    def test_shard_count_mismatch_rejected(self):
        config, part, val = make_setup(seed=15)
        shards = build_client_shards(part, config.spec)
        ctx = build_validation_context(val, config.spec, part.dataset.normal_classes)
        start = init_params(config.spec, 2, derive_rng(config.master_seed, STAGE_INIT))
        with pytest.raises(ConfigError):
            run_round(0, config, start, shards[:1], ctx)


class TestRunFederation:
    def test_deterministic_under_master_seed(self):
        config, part, val = make_setup(seed=21)
        a = run_federation(config, part, val)
        b = run_federation(config, part, val)
        assert np.array_equal(a.final_params.to_vector(), b.final_params.to_vector())
        assert [r.params_checksum for r in a.records] == [
            r.params_checksum for r in b.records
        ]

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
            assert r.payload_bits == payload_bits(config.spec.quantum_param_count, 32)

    def test_eval_accounting_sums_client_gradient_work(self):
        config, part, val = make_setup(rounds=2, epochs=2, seed=27)
        history = run_federation(config, part, val)
        d = config.spec.quantum_param_count
        n_train = sum(part.shard_sizes())
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
        assert lines[0].startswith("round,params_checksum,val_loss")
        assert "client_loss_0" in lines[0] and "client_loss_1" in lines[0]
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
