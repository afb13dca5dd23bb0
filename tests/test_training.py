"""Config validation, loss, evaluation identities, the loop, and sweeps."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_separable_dataset, micro_config

from slimrnn import (
    ConfigError,
    LabeledDataset,
    NumericError,
    Rng,
    bce_loss,
    evaluate,
    run_sweep,
    split_train_val,
    train,
)
from slimrnn import training
from slimrnn.layers import SentimentModel
from slimrnn.training import (
    EVAL_CHUNK,
    SWEEP_AXES,
    ExperimentConfig,
    coerce_axis_value,
)


class TestBceLoss:
    def test_half_probability_gives_log_two(self):
        loss, grad = bce_loss(0.5, 1)
        assert loss == pytest.approx(0.6931471805599453, abs=1e-16)
        assert grad == pytest.approx(-2.0, abs=1e-12)

    def test_grad_at_half_for_negative_label(self):
        _, grad = bce_loss(0.5, 0)
        assert grad == pytest.approx(2.0, abs=1e-12)

    def test_clamped_extremes_stay_finite(self):
        for p, y in ((0.0, 1), (1.0, 0), (0.0, 0), (1.0, 1)):
            loss, grad = bce_loss(p, y)
            assert np.isfinite(loss) and np.isfinite(grad)
        assert bce_loss(0.0, 1)[0] == pytest.approx(-np.log(1e-7))

    @given(st.floats(1e-6, 1 - 1e-6), st.sampled_from([0, 1]))
    @settings(max_examples=80, deadline=None)
    def test_loss_nonnegative_and_grad_signed(self, p, y):
        loss, grad = bce_loss(p, y)
        assert loss >= 0.0
        assert (grad < 0) == (y == 1)

    def test_grad_matches_finite_difference(self):
        from slimrnn.gradcheck import finite_diff

        p = np.array([0.3])
        (numeric,) = finite_diff(lambda: bce_loss(p[0], 1)[0], [p], 1e-7)
        assert numeric[0] == pytest.approx(bce_loss(0.3, 1)[1], rel=1e-6)


class TestExperimentConfig:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"seed": 1, "learning_rate": 0.1, "bs": 2})
        message = str(err.value)
        assert "learning_rate" in message and "bs" in message

    def test_from_dict_requires_seed(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"variant": "lstm0"})

    def test_round_trip(self):
        config = micro_config(extra_dense=True)
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone == config

    def test_field_validation(self):
        with pytest.raises(ConfigError):
            micro_config(variant="lstm9")
        with pytest.raises(ConfigError):
            micro_config(epochs=0)
        with pytest.raises(ConfigError):
            micro_config(batch_size=0)
        with pytest.raises(ConfigError):
            micro_config(lstm_position="sideways").model_spec()

    def test_build_produces_model(self):
        model = micro_config().build(Rng(0))
        assert isinstance(model, SentimentModel)


class TestEvaluate:
    def test_confusion_identities(self, separable_dataset):
        model = micro_config(vocab_size=12).build(Rng(1))
        result = evaluate(model, separable_dataset)
        n = result.n
        assert n == len(separable_dataset)
        total = (result.true_positive + result.false_positive
                 + result.true_negative + result.false_negative)
        assert total == n
        assert result.overall_accuracy == pytest.approx(
            100.0 * (result.true_positive + result.true_negative) / n)
        pos = result.true_positive + result.false_negative
        assert result.positive_accuracy == pytest.approx(
            100.0 * result.true_positive / pos)

    def test_overall_is_weighted_mean_of_class_recalls(self, separable_dataset):
        model = micro_config(vocab_size=12).build(Rng(2))
        r = evaluate(model, separable_dataset)
        pos = r.true_positive + r.false_negative
        neg = r.true_negative + r.false_positive
        weighted = (r.positive_accuracy * pos + r.negative_accuracy * neg) / r.n
        assert r.overall_accuracy == pytest.approx(weighted)

    def test_chunks_match_records_one_at_a_time(self, monkeypatch):
        rng = Rng(3)
        n = 2 * EVAL_CHUNK + 5
        dataset = LabeledDataset((rng.uniform((n, 8)) * 12).astype(np.int64),
                                 (rng.uniform(n) < 0.5).astype(np.int64))
        model = micro_config(vocab_size=12).build(Rng(4))
        ps = np.array([model.forward(seq) for seq in dataset.sequences])
        pred, pos = ps > 0.5, dataset.labels == 1

        batch_sizes = []
        forward = SentimentModel.forward

        def spy(self, ids, training=False, rng=None):
            batch_sizes.append(len(ids))
            return forward(self, ids, training, rng)

        monkeypatch.setattr(SentimentModel, "forward", spy)
        result = evaluate(model, dataset)
        assert batch_sizes == [EVAL_CHUNK, EVAL_CHUNK, 5]
        assert (result.true_positive, result.false_negative) == (
            int(np.sum(pred & pos)), int(np.sum(~pred & pos)))
        assert (result.true_negative, result.false_positive) == (
            int(np.sum(~pred & ~pos)), int(np.sum(pred & ~pos)))
        expected_loss = float(np.mean(bce_loss(ps, dataset.labels)[0]))
        assert result.mean_loss == pytest.approx(expected_loss, rel=1e-12)


class TestTrain:
    def test_separable_data_is_learned(self, separable_dataset):
        config = micro_config(vocab_size=12, epochs=30, split_ratio=1 / 9)
        model, report = train(config, separable_dataset,
                              stop_at_train_accuracy=100.0)
        assert report.epochs[-1].train_accuracy == 100.0
        assert report.epochs[-1].train_loss < report.epochs[0].train_loss

    def test_identical_samples_batch_loss_equals_single_loss(self):
        row = np.zeros(8, dtype=np.int64)
        row[-3:] = (1, 2, 3)
        ds_rows = np.tile(row, (10, 1))
        from slimrnn import LabeledDataset

        ds = LabeledDataset(ds_rows, np.ones(10, dtype=np.int64))
        config = micro_config(vocab_size=12, epochs=1, batch_size=8, split_ratio=0.2)
        _, report = train(config, ds)
        # all training rows identical, single batch: epoch loss is the
        # pre-update loss of that one repeated sample
        reference = micro_config(vocab_size=12).build(Rng(config.seed).derive(0))
        p = reference.forward(row, training=False)
        expected, _ = bce_loss(p, 1)
        assert report.epochs[0].train_loss == pytest.approx(expected, abs=1e-12)

    def test_metrics_report_deterministic_and_serializable(self, separable_dataset):
        config = micro_config(vocab_size=12, epochs=3, spatial_dropout=0.3)
        _, report_a = train(config, separable_dataset)
        _, report_b = train(config, separable_dataset)
        assert report_a.to_json() == report_b.to_json()
        parsed = json.loads(report_a.to_json())
        assert parsed["config"]["seed"] == config.seed
        assert len(parsed["epochs"]) == 3
        assert parsed["final"]["n"] == report_a.val_size

    def test_seed_changes_the_run(self, separable_dataset):
        _, a = train(micro_config(vocab_size=12), separable_dataset)
        _, b = train(micro_config(vocab_size=12, seed=99), separable_dataset)
        assert a.to_json() != b.to_json()

    def test_divergence_reported_with_location(self, separable_dataset, monkeypatch):
        config = micro_config(vocab_size=12)
        monkeypatch.setattr(SentimentModel, "forward",
                            lambda self, ids, training=False, rng=None: float("nan"))
        with pytest.raises(NumericError) as err:
            train(config, separable_dataset)
        assert "epoch 0" in str(err.value) and "batch 0" in str(err.value)

    def test_final_reuses_last_epoch_evaluation(self, separable_dataset, monkeypatch):
        calls = []
        real_evaluate = training.evaluate

        def counting(model, dataset):
            calls.append(len(dataset))
            return real_evaluate(model, dataset)

        monkeypatch.setattr(training, "evaluate", counting)
        config = micro_config(vocab_size=12, epochs=3)
        model, report = train(config, separable_dataset)
        assert len(calls) == config.epochs
        _, val = split_train_val(separable_dataset, config.split_ratio,
                                 Rng(config.seed).derive(1))
        assert report.final == real_evaluate(model, val)

    def test_partial_final_batch_is_trained(self, separable_dataset):
        # 27 train rows with batch 8 leaves a final batch of 3
        config = micro_config(vocab_size=12, batch_size=8, epochs=1, split_ratio=0.25)
        model, report = train(config, separable_dataset)
        assert report.train_size == 27
        assert len(report.epochs) == 1

    def test_early_stop_respects_budget(self, separable_dataset):
        config = micro_config(vocab_size=12, epochs=200)
        _, report = train(config, separable_dataset, stop_at_train_accuracy=100.0)
        assert len(report.epochs) < 200


class TestSweep:
    def test_rows_follow_values(self, separable_dataset):
        base = micro_config(vocab_size=12, epochs=1)
        result = run_sweep(base, "batch_size", ["4", "8"], separable_dataset)
        assert [row.value for row in result.rows] == [4, 8]
        assert len(result.reports) == 2
        assert all(r.config["seed"] == base.seed for r in result.reports)

    def test_single_value_degenerates_to_one_run(self, separable_dataset):
        base = micro_config(vocab_size=12, epochs=1)
        result = run_sweep(base, "variant", ["lstm6"], separable_dataset)
        assert len(result.rows) == 1
        direct_model, direct = train(
            base.__class__(**{**base.to_dict(), "variant": "lstm6"}),
            separable_dataset)
        assert result.rows[0].overall_accuracy == direct.final.overall_accuracy

    def test_table_layout(self, separable_dataset):
        base = micro_config(vocab_size=12, epochs=1)
        result = run_sweep(base, "split", [0.25, 0.4], separable_dataset)
        table = result.format_table()
        header, rule, *body = table.splitlines()
        assert header.split() == ["split", "Positive", "Negative", "Overall"]
        assert len(body) == 2
        assert body[0].startswith("0.25")

    def test_axis_validation_and_coercion(self):
        assert set(SWEEP_AXES) == {"variant", "lstm_position", "extra_dense",
                                   "lr", "optimizer", "batch_size", "split"}
        assert coerce_axis_value("lr", "1e-3") == pytest.approx(1e-3)
        assert coerce_axis_value("batch_size", "64") == 64
        assert coerce_axis_value("extra_dense", "true") is True
        assert coerce_axis_value("extra_dense", "False") is False
        assert coerce_axis_value("variant", "lstm2") == "lstm2"
        with pytest.raises(ConfigError):
            coerce_axis_value("epochs", "5")
        with pytest.raises(ConfigError):
            coerce_axis_value("batch_size", "sixteen")
        with pytest.raises(ConfigError):
            coerce_axis_value("extra_dense", "maybe")

    def test_empty_values_rejected(self, separable_dataset):
        with pytest.raises(ConfigError):
            run_sweep(micro_config(), "lr", [], separable_dataset)
