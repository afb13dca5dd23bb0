"""Config validation, loss, evaluation identities, the loop, and sweeps."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DenseReference, make_separable_dataset, micro_config

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
from slimrnn.training import EVAL_CHUNK, ExperimentConfig, sweep_configs

# A tuple field, and the four fields the CSV is read and encoded by.
NOT_AXES = ("extra_dense_dims", "text_column", "label_column", "vocab_size", "maxlen")


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

    @pytest.mark.parametrize("y", [0, 1])
    def test_grad_matches_complex_step(self, y):
        from slimrnn.gradcheck import complex_step

        p = np.array([0.3 + 0j])
        (numeric,) = complex_step(lambda: bce_loss(p[0], y)[0], [p])
        assert numeric[0] == pytest.approx(bce_loss(0.3, y)[1], rel=1e-6)


class TestExperimentConfig:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"seed": 1, "learning_rate": 0.1, "bs": 2})
        message = str(err.value)
        assert "learning_rate" in message and "bs" in message

    @pytest.mark.parametrize("key,value", [
        ("epochs", "3"), ("seed", 1.5), ("lr", True), ("extra_dense", 1),
        ("variant", 0), ("clip_norm", "off"), ("extra_dense_dims", [64, "32"]),
        ("variant", 3), ("clip_norm", "5"), ("alpha", None), ("extra_dense_dims", "64"),
        ("seed", "1"), ("batch_size", 4.5), ("hidden", 2.5), ("extra_dense", 2),
    ])
    def test_from_dict_rejects_wrong_types(self, key, value):
        """Every way a config is built runs the same type check: directly, by
        replace, from JSON, and as a sweep value (a string would be parsed
        first, so only other values reach the check there)."""
        paths = [
            lambda: ExperimentConfig(**{"seed": 1, key: value}),
            lambda: dataclasses.replace(ExperimentConfig(seed=1), **{key: value}),
            lambda: ExperimentConfig.from_dict({"seed": 1, key: value}),
        ]
        if not isinstance(value, str) and key != "extra_dense_dims":
            paths.append(lambda: sweep_configs(ExperimentConfig(seed=1), key, [value]))
        messages = set()
        for build in paths:
            with pytest.raises(ConfigError) as err:
                build()
            messages.add(str(err.value))
        assert len(messages) == 1
        assert key in messages.pop()

    @pytest.mark.parametrize("key,value,name", [
        ("epochs", "3", "int"), ("lr", True, "float"), ("extra_dense", 1, "bool"),
        ("variant", 0, "str"), ("clip_norm", "3", "float | None"),
        ("extra_dense_dims", [64, "32"], "tuple[int, ...]"),
    ])
    def test_type_error_names_the_annotation(self, key, value, name):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{"seed": 1, key: value})
        assert str(err.value) == f"config {key}: expected {name}, got {value!r}"

    @pytest.mark.parametrize("key,value", [
        ("clip_norm", 0), ("clip_norm", -1.0), ("clip_norm", float("nan")),
        ("clip_norm", float("inf")), ("lr", float("nan")), ("lr", float("inf")),
    ])
    def test_from_dict_rejects_non_finite_lr_and_clip_norm_off_values(self, key, value):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(json.loads(json.dumps({"seed": 1, key: value})))
        assert key in str(err.value)

    @pytest.mark.parametrize("key,value", [
        ("optimizer", "adamw"), ("lr", 0.0), ("lr", -1.0),
    ])
    def test_rejects_unknown_optimizer_and_non_positive_lr(self, key, value):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(seed=1, **{key: value})
        assert key in str(err.value)

    @pytest.mark.parametrize("overrides, key", [
        ({"vocab_size": 1}, "vocab_size"),
        ({"embed_dim": 0}, "embed_dim"),
        ({"conv_filters": 0}, "conv_filters"),
        ({"kernel_size": 0}, "kernel_size"),
        ({"pool_size": 0}, "pool_size"),
        ({"hidden": 0}, "hidden"),
        ({"maxlen": 0}, "maxlen"),
        ({"maxlen": -5}, "maxlen"),
        ({"extra_dense_dims": (8, 0)}, "extra_dense_dims"),
        ({"extra_dense_dims": (-1,)}, "extra_dense_dims"),
        ({"split_ratio": 0.0}, "split_ratio"),
        ({"split_ratio": 1.0}, "split_ratio"),
        ({"spatial_dropout": 1.0}, "spatial_dropout"),
        ({"dense_dropout": -0.1}, "dense_dropout"),
        ({"alpha": 1.5}, "alpha"),
        ({"alpha": -1.0, "variant": "lstm6"}, "alpha"),
        ({"maxlen": 2}, "kernel_size"),
        ({"pool_size": 12}, "pool_size"),
        ({"forget_bias": float("nan")}, "forget_bias"),
        ({"forget_bias": float("inf")}, "forget_bias"),
        ({"forget_bias": -float("inf")}, "forget_bias"),
    ])
    def test_rejects_out_of_range_sizes_and_rates(self, overrides, key):
        with pytest.raises(ConfigError) as err:
            micro_config(**overrides)
        assert key in str(err.value)

    def test_from_dict_accepts_json_numbers_and_lists(self):
        config = ExperimentConfig.from_dict(
            {"seed": 1, "lr": 1, "clip_norm": None, "extra_dense_dims": [8, 4]})
        assert config.extra_dense_dims == (8, 4)

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
            micro_config(lstm_position="sideways")

    def test_frozen(self):
        config = micro_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.epochs = 3
        assert dataclasses.replace(config, epochs=3).epochs == 3

    def test_readme_config_table_matches_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:3] for line in section.splitlines()
                if line.startswith("| `")]
        table = {key.strip().strip("`"): cell.strip() for key, cell in rows}
        defaults = ExperimentConfig(seed=0).to_dict()
        assert table.keys() == defaults.keys()
        assert table.pop("seed") == "required"
        for key, cell in table.items():
            assert json.loads(cell.strip("`")) == defaults[key], key

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
        config = micro_config(vocab_size=12, epochs=24, split_ratio=1 / 9)
        model, report = train(config, separable_dataset)
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

    @pytest.mark.parametrize("clip_norm", [None, 5.0])
    def test_non_finite_gradient_stops_before_the_step(self, separable_dataset,
                                                       monkeypatch, clip_norm):
        models = []
        real_backward = SentimentModel.backward

        def poisoned(self, d_loss):
            grads = real_backward(self, d_loss)
            models.append(self)
            self.conv.grads["bias"][0] = np.nan
            return grads

        monkeypatch.setattr(SentimentModel, "backward", poisoned)
        with pytest.raises(NumericError) as err:
            train(micro_config(vocab_size=12, clip_norm=clip_norm), separable_dataset)
        assert "epoch 0 batch 0" in str(err.value) and "norm" in str(err.value)
        for _, arr in models[0].named_params():
            assert np.all(np.isfinite(arr))

    @pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
    def test_row_sparse_step_equals_whole_table_run(self, monkeypatch, kind):
        # Even ids of a 300-row table: odd rows never get a gradient, and the
        # rows that do sit apart, where a norm summed over them alone would
        # differ in the last bits from the whole-table sum (numpy's pairwise
        # order depends on where the nonzero entries sit). A clip norm of
        # 1e-3 fires on every batch.
        rng = np.random.default_rng(4)
        data = LabeledDataset(rng.integers(0, 150, size=(36, 8)) * 2, np.arange(36) % 2)
        config = micro_config(optimizer=kind, clip_norm=1e-3, epochs=3,
                              vocab_size=300, embed_dim=16)
        fast_model, fast = train(config, data)

        fired = []
        real_clip = training.clip_by_global_norm

        def reference_clip(grads, max_norm, rows=None):
            norm = real_clip(grads, max_norm)  # no row sets: scales whole tensors
            fired.append(norm > max_norm)
            return norm

        monkeypatch.setattr(training, "clip_by_global_norm", reference_clip)
        monkeypatch.setattr(training, "make_optimizer", DenseReference)
        slow_model, slow = train(config, data)
        assert all(fired)
        assert fast.to_json() == slow.to_json()
        for (name, a), (_, b) in zip(fast_model.named_params(), slow_model.named_params()):
            assert a.tobytes() == b.tobytes(), name

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

    @pytest.mark.parametrize("axis,values,cells", [
        ("clip_norm", "null,2.5", ["null", "2.5"]),
        ("extra_dense", "true,false", ["true", "false"]),
    ])
    def test_table_spells_null_and_booleans_as_json(
            self, separable_dataset, axis, values, cells):
        base = micro_config(vocab_size=12, epochs=1)
        result = run_sweep(base, axis, values.split(","), separable_dataset)
        body = result.format_table().splitlines()[2:]
        assert [line.split()[0] for line in body] == cells
        assert [row["value"] for row in result.as_dict()["rows"]] == json.loads(f"[{values}]")

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_every_field_but_a_tuple_or_data_field_is_an_axis(self, name):
        base = ExperimentConfig(seed=7)
        default = getattr(base, name)
        text = "null" if default is None else str(default)
        if name in NOT_AXES:
            with pytest.raises(ConfigError, match=f"cannot sweep {name}"):
                sweep_configs(base, name, [text])
        else:
            [(value, config)] = sweep_configs(base, name, [text])
            assert config == base
            assert value == default and type(value) is type(default)

    @pytest.mark.parametrize("axis", ["kernel", "split_ratios", "Variant", ""])
    def test_unknown_axis(self, axis):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            sweep_configs(micro_config(), axis, ["1"])

    @pytest.mark.parametrize("axis,raw,expected", [
        ("split", "0.25", 0.25), ("split_ratio", "0.25", 0.25), ("lr", "1", 1.0),
        ("batch_size", " 64 ", 64), ("seed", "3", 3), ("extra_dense", "yes", True),
        ("extra_dense", "0", False), ("bidirectional_tail", "FALSE", False),
        ("clip_norm", "null", None), ("clip_norm", "2.5", 2.5),
        ("variant", "LSTM3", "LSTM3"), ("optimizer", "SGD", "SGD"),
    ])
    def test_strings_follow_the_annotation(self, axis, raw, expected):
        [(value, config)] = sweep_configs(micro_config(), axis, [raw])
        assert value == expected and type(value) is type(expected)
        assert getattr(config, "split_ratio" if axis == "split" else axis) == expected

    @pytest.mark.parametrize("axis,raw", [
        ("batch_size", "sixteen"), ("batch_size", "4.5"), ("seed", "1.5"),
        ("extra_dense", "maybe"), ("extra_dense", "null"), ("lr", "null"),
        ("hidden", "null"), ("clip_norm", "none"),
    ])
    def test_unparsable_string_rejected(self, axis, raw):
        with pytest.raises(ConfigError, match=f"{axis} value"):
            sweep_configs(micro_config(), axis, [raw])

    def test_empty_values_rejected(self, separable_dataset):
        with pytest.raises(ConfigError):
            run_sweep(micro_config(), "lr", [], separable_dataset)

    @pytest.mark.parametrize("axis,values", [
        ("optimizer", ["adam", "adamw"]), ("variant", ["lstm0", "lstm1", "lstm9"]),
        ("lr", ["0.01", "-1"]), ("split", ["0.3", "0.5", "1.5"]),
        ("batch_size", [8, 4.5]), ("lr", [0.01, True]), ("extra_dense", [False, 2]),
        ("variant", ["lstm0", 3]),
    ])
    def test_bad_last_value_rejected_before_any_training(
            self, separable_dataset, monkeypatch, axis, values):
        calls = []
        monkeypatch.setattr(training, "train", lambda *args, **kw: calls.append(args))
        with pytest.raises(ConfigError):
            run_sweep(micro_config(), axis, values, separable_dataset)
        assert calls == []
