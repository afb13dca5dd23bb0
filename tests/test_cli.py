"""Command-line behaviour, exercised in process through cli.main().

Captures stdout/stderr with redirect_* instead of capsys so the suite
behaves the same whether pytest capture is on or off.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURE_CSV, MICRO_DEFAULTS

from slimrnn import cli


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
        for name in ("checkpoint.json", "metrics.json", "curves.csv",
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
        assert manifest["outputs"] == {"checkpoint": "checkpoint.json",
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
        config_path = write_config(tmp_path, epochs=1)
        blobs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            code, _, err = run_cli(["train", "--config", config_path,
                                    "--data", str(FIXTURE_CSV),
                                    "--out", str(out_dir)])
            assert code == cli.EXIT_OK, err
            blobs.append((out_dir / "metrics.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_unknown_config_key(self, tmp_path):
        config_path = write_config(tmp_path, learning_rate=0.1)
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(FIXTURE_CSV),
                                "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        assert "learning_rate" in err

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
                            for name in ("metrics.json", "checkpoint.json")])
        assert digests[0] == digests[1]


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

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "23")
        config_path = write_config(tmp_path, drop=("seed",), epochs=1)
        out_dir = tmp_path / "run"
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(FIXTURE_CSV),
                                "--out", str(out_dir)])
        assert code == cli.EXIT_OK, err
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 23

    def test_env_invalid(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "not-a-number")
        config_path = write_config(tmp_path, drop=("seed",))
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(FIXTURE_CSV),
                                "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        assert cli.SEED_ENV in err

    def test_no_seed_anywhere(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        config_path = write_config(tmp_path, drop=("seed",))
        code, _, err = run_cli(["train", "--config", config_path,
                                "--data", str(FIXTURE_CSV),
                                "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_CONFIG
        assert "seed" in err.lower()


class TestEval:
    def test_eval_against_fixture(self, trained_run, tmp_path):
        out_dir, _ = trained_run
        code, out, err = run_cli(["eval",
                                  "--checkpoint", str(out_dir / "checkpoint.json"),
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

    def test_bad_axis(self, tmp_path):
        config_path = write_config(tmp_path)
        code, _, _ = run_cli(["sweep", "--config", config_path,
                              "--data", str(FIXTURE_CSV),
                              "--axis", "kernel_size", "--values", "3,5"])
        assert code == cli.EXIT_CONFIG


class TestGradcheckCommand:
    def test_single_scope_passes(self):
        code, out, _ = run_cli(["gradcheck", "lstm6"])
        assert code == cli.EXIT_OK
        assert "lstm6" in out.lower()

    def test_unknown_scope(self):
        code, _, _ = run_cli(["gradcheck", "lstm9"])
        assert code == cli.EXIT_CONFIG
