"""Command-line behaviour, exercised in process through cli.main().

Captures stdout/stderr with redirect_* instead of capsys so the suite
behaves the same whether pytest capture is on or off.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURE_CSV, MICRO_DEFAULTS, join_checkpoint, split_checkpoint

from slimrnn import ConfigError, ExperimentConfig, Variant, atomic, cli, gradcheck, training
from slimrnn.training import EpochMetrics, MetricsReport


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_config(directory, drop=(), **overrides):
    cfg = dict(MICRO_DEFAULTS)
    cfg.update(overrides)
    for key in drop:
        cfg.pop(key, None)
    path = directory / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_train")
    config_path = write_config(base)
    out_dir = base / "run"
    code, out, err = run_cli(["train", "--config", config_path,
                              "--data", str(FIXTURE_CSV), "--out", str(out_dir)])
    assert code == cli.EXIT_OK, err
    return out_dir, out


class TestCountParams:
    def test_baseline_dims(self):
        code, out, _ = run_cli(["count-params", "lstm0", "128", "64"])
        assert code == cli.EXIT_OK
        assert out.strip() == "49408"

    def test_slimmest_variant(self):
        code, out, _ = run_cli(["count-params", "lstm6", "128", "64"])
        assert code == cli.EXIT_OK
        assert out.strip() == "12352"

    def test_unknown_variant_is_config_error(self):
        code, _, err = run_cli(["count-params", "lstm9", "4", "4"])
        assert code == cli.EXIT_CONFIG
        assert "lstm9" in err


class TestUsageErrors:
    def test_no_subcommand(self):
        code, _, err = run_cli([])
        assert code == cli.EXIT_CONFIG
        assert err

    def test_unknown_subcommand(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == cli.EXIT_CONFIG

    def test_missing_required_flag(self):
        code, _, _ = run_cli(["train"])  # --data is required
        assert code == cli.EXIT_CONFIG


class TestTrain:
    def test_exit_and_summary(self, trained_run):
        _, out = trained_run
        assert "artifacts in" in out
        assert "Overall" in out

    def test_artifacts_exist(self, trained_run):
        out_dir, _ = trained_run
        for name in ("checkpoint.bin", "metrics.json", "curves.csv",
                     "manifest.json"):
            assert (out_dir / name).is_file(), name

    def test_manifest_fields(self, trained_run):
        out_dir, _ = trained_run
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest) == {"config_sha256", "seed", "dataset",
                                 "started_at", "finished_at", "outputs"}
        assert manifest["seed"] == MICRO_DEFAULTS["seed"]
        assert len(manifest["config_sha256"]) == 64
        assert manifest["dataset"]["rows"] == 62
        assert len(manifest["dataset"]["sha256"]) == 64
        assert manifest["dataset"]["path"].endswith("fixture_tweets.csv")
        assert manifest["outputs"] == {"checkpoint": "checkpoint.bin",
                                       "metrics": "metrics.json",
                                       "curves": "curves.csv"}

    def test_metrics_reference_manifest(self, trained_run):
        out_dir, _ = trained_run
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["manifest"] == "manifest.json"
        assert len(metrics["epochs"]) == MICRO_DEFAULTS["epochs"]

    def test_curves_shape(self, trained_run):
        out_dir, _ = trained_run
        lines = (out_dir / "curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 1 + MICRO_DEFAULTS["epochs"]
        first = lines[1].split(",")
        assert first[0] == "0"
        float(first[1]), float(first[2])

    def test_rerun_is_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path, epochs=1, extra_dense=True,
                                   extra_dense_dims=[8, 4])
        blobs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            code, _, err = run_cli(["train", "--config", config_path,
                                    "--data", str(FIXTURE_CSV),
                                    "--out", str(out_dir)])
            assert code == cli.EXIT_OK, err
            blobs.append((out_dir / "metrics.json").read_bytes())
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["config"]["extra_dense_dims"] == [8, 4]

    def test_unknown_config_key(self, tmp_path):
        config_path = write_config(tmp_path, learning_rate=0.1)
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(FIXTURE_CSV),
                                "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        assert "learning_rate" in err

    def test_wrongly_typed_config_value(self, tmp_path):
        config_path = write_config(tmp_path, epochs="3")
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(FIXTURE_CSV),
                                "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        assert "epochs" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_non_finite_config_value(self, tmp_path):
        config_path = write_config(tmp_path, clip_norm=float("nan"))  # written as NaN
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(FIXTURE_CSV),
                                "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        assert "clip_norm" in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides", [
        {"vocab_size": 1}, {"embed_dim": 0}, {"kernel_size": 0}, {"pool_size": 0},
        {"maxlen": 0}, {"maxlen": -5}, {"extra_dense_dims": [0], "extra_dense": True},
        {"extra_dense_dims": [-1], "extra_dense": True}, {"split_ratio": 1.5},
        {"spatial_dropout": 1.0}, {"alpha": 1.5}, {"maxlen": 2},
        {"forget_bias": float("nan")}, {"forget_bias": float("inf")},
    ], ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()))
    def test_out_of_range_config_value(self, tmp_path, overrides):
        config_path = write_config(tmp_path, **overrides)
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(FIXTURE_CSV),
                                "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_config_that_is_not_utf8(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b'{"seed": 7, "variant": "lstm\xff"}')
        code, _, err = run_cli(["train", "--config", str(config_path),
                                "--data", str(FIXTURE_CSV),
                                "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_missing_data_file(self, tmp_path):
        config_path = write_config(tmp_path)
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(tmp_path / "absent.csv"),
                                "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_DATA
        assert "absent.csv" in err


    @pytest.mark.parametrize("payload", [
        "text,sentiment\ncaf\xe9 au lait,Positive\n".encode("latin-1"),
        ('text,sentiment\n"' + "a" * 200_000 + '",Positive\n').encode("utf-8"),
    ], ids=["not-utf8", "csv-field-too-large"])
    def test_unreadable_csv_is_data_error(self, tmp_path, payload):
        data = tmp_path / "bad.csv"
        data.write_bytes(payload)
        config_path = write_config(tmp_path)
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_DATA
        assert "bad.csv" in err

    def test_identical_across_blas_thread_counts(self, tmp_path):
        """Reference layer sizes, so OpenBLAS splits the larger GEMMs across
        threads when it may; the outputs must not depend on that split."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 5, "epochs": 2, "vocab_size": 400}))
        src = str(Path(cli.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "slimrnn.cli", "train",
                            "--config", str(config_path), "--data", str(FIXTURE_CSV),
                            "--out", str(out_dir)],
                           env=env, check=True, capture_output=True, timeout=300)
            digests.append([hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                            for name in ("metrics.json", "checkpoint.bin")])
        assert digests[0] == digests[1]


def test_failed_writes_keep_previous_files(tmp_path):
    metrics, curves = tmp_path / "metrics.json", tmp_path / "curves.csv"
    metrics.write_text("old metrics\n")
    curves.write_text("old curves\n")
    with pytest.raises(TypeError):
        cli._write_json(str(metrics), {"a": 1, "b": object()})
    report = MetricsReport(config={}, train_size=1, val_size=1, epochs=[
        EpochMetrics(0, 0.5, 50.0, 0.5, 50.0), EpochMetrics(1, "bad", 50.0, 0.5, 50.0)])
    with pytest.raises(ValueError):
        cli._write_curves(str(curves), report)
    assert metrics.read_text() == "old metrics\n"
    assert curves.read_text() == "old curves\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curves.csv", "metrics.json"]


class TestSeedResolution:
    def test_flag_overrides_file(self, tmp_path):
        config_path = write_config(tmp_path, epochs=1)
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(["train", "--config", config_path,
                              "--data", str(FIXTURE_CSV),
                              "--out", str(out_dir), "--seed", "99"])
        assert code == cli.EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_file_seed_without_flag(self, tmp_path):
        config_path = write_config(tmp_path, seed=5, epochs=1)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(FIXTURE_CSV), "--out", str(out_dir)])
        assert code == cli.EXIT_OK, err
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_no_seed_anywhere(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SLIMRNN_SEED", "23")  # the environment is no source
        config_path = write_config(tmp_path, drop=("seed",))
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(FIXTURE_CSV),
                                "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        assert err == "error: no seed: pass --seed or set it in the config\n"
        assert not (tmp_path / "run").exists()


class TestEval:
    def test_eval_against_fixture(self, trained_run, tmp_path):
        out_dir, _ = trained_run
        code, out, err = run_cli(["eval",
                                  "--checkpoint", str(out_dir / "checkpoint.bin"),
                                  "--data", str(FIXTURE_CSV),
                                  "--out", str(tmp_path)])
        assert code == cli.EXIT_OK, err
        payload = json.loads((tmp_path / "eval_metrics.json").read_text())
        assert payload["final"]["n"] == 52  # fixture keeps 52 binary rows
        assert "Overall" in out

    def test_missing_checkpoint(self, tmp_path):
        code, _, _ = run_cli(["eval", "--checkpoint", str(tmp_path / "no.json"),
                              "--data", str(FIXTURE_CSV)])
        assert code == cli.EXIT_DATA

    @staticmethod
    def _set_shape(header, shape):
        header["params"][-2][1] = shape  # head.bias, shape [1]
        return header

    @pytest.mark.parametrize("corrupt, code", [
        (lambda h, t: join_checkpoint([h], t), cli.EXIT_DATA),
        (lambda h, t: join_checkpoint({**h, "params": 5}, t), cli.EXIT_DATA),
        (lambda h, t: join_checkpoint(TestEval._set_shape(h, "ab"), t), cli.EXIT_DATA),
        (lambda h, t: join_checkpoint(TestEval._set_shape(h, [[1]]), t), cli.EXIT_DATA),
        (lambda h, t: join_checkpoint(TestEval._set_shape(h, [1.0]), t), cli.EXIT_DATA),
        (lambda h, t: join_checkpoint(h, t)[:-1], cli.EXIT_DATA),
        (lambda h, t: join_checkpoint(
            {**h, "vocabulary": {"capacity": 40, "word_to_id": []}}, t), cli.EXIT_DATA),
        (lambda h, t: join_checkpoint({**h, "config": 5}, t), cli.EXIT_CONFIG),
        (lambda h, t: join_checkpoint(
            json.dumps(h).encode().replace(b'"format_version"', b'"\xff"'), t), cli.EXIT_DATA),
        (lambda h, t: json.dumps(h).encode(), cli.EXIT_DATA),
    ], ids=["top-level-list", "params-number", "shape-string", "shape-nested",
            "shape-float", "tensor-bytes-truncated", "word_to_id-list", "config-number",
            "not-utf8", "format-1"])
    def test_malformed_checkpoint(self, trained_run, tmp_path, corrupt, code):
        out_dir, _ = trained_run
        header, tensors = split_checkpoint((out_dir / "checkpoint.bin").read_bytes())
        path = tmp_path / "bad.bin"
        path.write_bytes(corrupt(header, tensors))
        got, _, err = run_cli(["eval", "--checkpoint", str(path),
                               "--data", str(FIXTURE_CSV), "--out", str(tmp_path)])
        assert got == code
        assert err.startswith("error: ") and "Traceback" not in err


class TestSweep:
    def test_batch_size_axis(self, tmp_path):
        config_path = write_config(tmp_path, epochs=1)
        out_dir = tmp_path / "sweep"
        code, out, err = run_cli(["sweep", "--config", config_path,
                                  "--data", str(FIXTURE_CSV),
                                  "--out", str(out_dir),
                                  "--axis", "batch_size", "--values", "4,8"])
        assert code == cli.EXIT_OK, err
        payload = json.loads((out_dir / "sweep.json").read_text())
        assert payload["axis"] == "batch_size"
        assert [row["value"] for row in payload["rows"]] == [4, 8]
        assert (out_dir / "manifest.json").is_file()
        assert "Positive" in out and "Overall" in out

    def test_bad_last_value_exits_before_any_training(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "train", lambda *args, **kw: calls.append(args))
        out_dir = tmp_path / "sweep"
        code, _, err = run_cli(["sweep", "--config", write_config(tmp_path),
                                "--data", str(FIXTURE_CSV), "--out", str(out_dir),
                                "--axis", "optimizer", "--values", "adam,adamw"])
        assert code == cli.EXIT_CONFIG
        assert "adamw" in err and "Traceback" not in err
        assert calls == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides, axis, values", [
        ({}, "split", "0.3,0.5,1.5"),
        ({"alpha": 1.5}, "variant", "lstm0,lstm1,lstm6"),
    ])
    def test_out_of_range_value_exits_before_any_training(self, tmp_path, monkeypatch,
                                                           overrides, axis, values):
        calls = []
        monkeypatch.setattr(training, "train", lambda *args, **kw: calls.append(args))
        out_dir = tmp_path / "sweep"
        code, _, err = run_cli(["sweep", "--config", write_config(tmp_path, **overrides),
                                "--data", str(FIXTURE_CSV), "--out", str(out_dir),
                                "--axis", axis, "--values", values])
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: ") and "Traceback" not in err
        assert calls == []
        assert not (out_dir / "sweep.json").exists()

    @pytest.mark.parametrize("axis, values, expected", [
        ("seed", "1,2", [1, 2]), ("hidden", "3,5", [3, 5]),
        ("bidirectional_tail", "no,yes", [False, True]), ("clip_norm", "null,2.5", [None, 2.5]),
    ])
    def test_any_field_axis(self, tmp_path, axis, values, expected):
        out_dir = tmp_path / "sweep"
        code, out, err = run_cli(["sweep", "--config", write_config(tmp_path, epochs=1),
                                  "--data", str(FIXTURE_CSV), "--out", str(out_dir),
                                  "--axis", axis, "--values", values])
        assert code == cli.EXIT_OK, err
        payload = json.loads((out_dir / "sweep.json").read_text())
        assert [row["value"] for row in payload["rows"]] == expected
        assert out.splitlines()[0].split()[0] == axis

    @pytest.mark.parametrize("axis", ["kernel", "maxlen", "vocab_size", "text_column",
                                      "label_column", "extra_dense_dims"])
    def test_bad_axis(self, tmp_path, monkeypatch, axis):
        reads = []
        monkeypatch.setattr(cli, "ingest_csv", lambda *args: reads.append(args))
        out_dir = tmp_path / "sweep"
        code, _, err = run_cli(["sweep", "--config", write_config(tmp_path),
                                "--data", str(FIXTURE_CSV), "--out", str(out_dir),
                                "--axis", axis, "--values", "3,5"])
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: ") and axis in err and "Traceback" not in err
        assert reads == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("values", [",", " , ,"])
    def test_empty_values_exit_before_making_out(self, tmp_path, values):
        out_dir = tmp_path / "sweep"
        code, _, err = run_cli(["sweep", "--config", write_config(tmp_path),
                                "--data", str(FIXTURE_CSV), "--out", str(out_dir),
                                "--axis", "variant", "--values", values])
        assert code == cli.EXIT_CONFIG
        assert "at least one value" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_axis_help_names_exactly_the_refused_fields(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.main(["sweep", "--help"])
        listed = re.search(r"; not ((?:\w+, )*\w+) or (\w+)", " ".join(out.getvalue().split()))
        base = ExperimentConfig(seed=0)
        refused = []
        for field in dataclasses.fields(base):
            try:
                training.sweep_configs(base, field.name, ["1"])
            except ConfigError as exc:
                if str(exc).startswith("cannot sweep"):
                    refused.append(field.name)
        assert sorted(listed.group(1).split(", ") + [listed.group(2)]) == sorted(refused)


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_out_that_cannot_be_a_directory_fails_before_any_work(
        command, trained_run, tmp_path, monkeypatch):
    calls = []
    record = lambda *args, **kw: calls.append(args)  # noqa: E731
    monkeypatch.setattr(cli, "train", record)
    monkeypatch.setattr(training, "train", record)
    monkeypatch.setattr(cli, "evaluate", record)
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    data = ["--data", str(FIXTURE_CSV), "--out", str(blocker)]
    argv = {
        "train": ["train", "--config", write_config(tmp_path)] + data,
        "eval": ["eval", "--checkpoint", str(trained_run[0] / "checkpoint.bin")] + data,
        "sweep": ["sweep", "--config", write_config(tmp_path)] + data
                 + ["--axis", "batch_size", "--values", "4,8"],
    }[command]
    code, out, err = run_cli(argv)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: ") and str(blocker) in err and "Traceback" not in err
    assert calls == [] and out == ""
    assert blocker.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("fault", ["write", "memory"])
def test_a_failed_write_or_allocation_is_one_error_line(fault, tmp_path, monkeypatch):
    """A write refused at its final rename (after a full training run), or
    memory that runs out, ends in exit 1 and one error line, and leaves no
    temporary file in the output directory."""
    if fault == "write":
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)
        monkeypatch.setattr(atomic.os, "replace", refuse)
    else:
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 116. TiB for an array")
        monkeypatch.setattr(cli, "train", exhaust)
    out_dir = tmp_path / "run"
    code, out, err = run_cli(["train", "--config", write_config(tmp_path),
                              "--data", str(FIXTURE_CSV), "--out", str(out_dir)])
    assert code == cli.EXIT_CONFIG
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err and out == ""
    assert ("checkpoint.bin" if fault == "write" else "out of memory: Unable") in err
    assert list(out_dir.iterdir()) == []


class TestGradcheckCommand:
    def test_scopes_follow_the_variants(self):
        assert cli.GRADCHECK_SCOPES == ("all", "model", "lstm0", "lstm1", "lstm2",
                                        "lstm3", "lstm4", "lstm5", "lstm6")

    def test_single_scope_passes(self):
        code, out, _ = run_cli(["gradcheck", "lstm6"])
        assert code == cli.EXIT_OK
        assert "lstm6" in out.lower()

    def test_unknown_scope(self):
        code, _, _ = run_cli(["gradcheck", "lstm9"])
        assert code == cli.EXIT_CONFIG

    def test_tolerance_is_not_an_option(self, monkeypatch):
        calls = []
        for name in ("calibrate_oracle", "check_all", "check_module"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kw: calls.append(name))
        code, out, err = run_cli(["gradcheck", "lstm6", "--tol", "1e-6"])
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: ") and "--tol" in err and "Traceback" not in err
        assert out == "" and calls == []

    @pytest.mark.parametrize("scope, targets", [
        ("all", [v.value for v in Variant] + ["model"]), ("model", ["model"])])
    def test_checks_run_on_the_fixed_seeds(self, monkeypatch, scope, targets):
        calls = []

        def record(target, seeds):
            calls.append((target, tuple(seeds)))
            return gradcheck.GradReport(target, gradcheck.TOL, [])
        monkeypatch.setattr(gradcheck, "check_variant",
                            lambda variant, seeds: record(variant.value, seeds))
        monkeypatch.setattr(gradcheck, "check_model", lambda seeds: record("model", seeds))
        code, out, _ = run_cli(["gradcheck", scope])
        assert code == cli.EXIT_OK
        assert calls == [(target, gradcheck.SEEDS) for target in targets]
        assert f"model: PASS (tol {gradcheck.TOL:g}" in out
