"""Command-line entry point.

Subcommands: train, eval, sweep, gradcheck, count-params. Every command is
non-interactive and exits 0 on success, 1 on usage/config problems, 2 on
data problems, and 3 on numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import sys

from .atomic import atomic_write
from .cells import Variant, count_params
from .errors import ConfigError, DataError, NumericError, ShapeError
from .gradcheck import calibrate_oracle, check_all, check_module
from .textdata import build_vocab, encode_dataset, ingest_csv, select_binary
from .training import (
    ExperimentConfig,
    MetricsReport,
    evaluate,
    run_sweep,
    sweep_configs,
    train,
)
from . import checkpoint as ckpt

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SEED_ENV = "SLIMRNN_SEED"

GRADCHECK_SCOPES = ("all", "model", *(v.value.lower() for v in Variant))


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1, not 2)."""

    def error(self, message):
        raise ConfigError(message)


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot open config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return raw


def _resolve_config(args) -> ExperimentConfig:
    """Merge config file, --seed, and the SLIMRNN_SEED fallback."""
    raw = _read_config_file(args.config) if args.config else {}
    if args.seed is not None:
        raw["seed"] = args.seed
    if "seed" not in raw:
        env = os.environ.get(SEED_ENV)
        if env is not None:
            try:
                raw["seed"] = int(env)
            except ValueError:
                raise ConfigError(f"{SEED_ENV}={env!r} is not an integer") from None
    if "seed" not in raw:
        raise ConfigError(f"no seed: pass --seed, set it in the config, or export {SEED_ENV}")
    return ExperimentConfig.from_dict(raw)


def _load_dataset(path: str, config: ExperimentConfig, vocab=None):
    """CSV -> (dataset, vocab, ingest report). Builds a vocab unless given one."""
    records, report = ingest_csv(path, config.text_column, config.label_column)
    binary = select_binary(records)
    if vocab is None:
        vocab = build_vocab([r.text for r in binary], capacity=config.vocab_size)
    dataset = encode_dataset(binary, vocab, config.maxlen)
    return dataset, vocab, report


def _make_out_dir(path: str) -> str:
    """Made before any work, so a path that cannot be one fails at once."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None
    return path


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_sha256(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: str, payload: dict) -> None:
    with atomic_write(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _write_manifest(out_dir: str, config: ExperimentConfig, data_path: str,
                    row_count: int, started: str, outputs: dict) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "config_sha256": _config_sha256(config),
        "seed": config.seed,
        "dataset": {
            "path": os.path.abspath(data_path),
            "rows": row_count,
            "sha256": _file_sha256(data_path),
        },
        "started_at": started,
        "finished_at": _utc_now(),
        "outputs": outputs,
    })


def _write_curves(path: str, report: MetricsReport) -> None:
    with atomic_write(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epoch", "loss", "accuracy"])
        for e in report.epochs:
            writer.writerow([e.epoch, f"{e.train_loss:.10g}", f"{e.train_accuracy:.10g}"])


def _eval_table(result) -> str:
    rows = [
        ("Overall", f"{result.overall_accuracy:.2f}%", f"{result.n}"),
        ("Positive", f"{result.positive_accuracy:.2f}%",
         f"{result.true_positive + result.false_negative}"),
        ("Negative", f"{result.negative_accuracy:.2f}%",
         f"{result.true_negative + result.false_positive}"),
    ]
    lines = [f"{'class':<10}{'accuracy':>10}{'records':>10}"]
    lines.extend(f"{name:<10}{acc:>10}{count:>10}" for name, acc, count in rows)
    return "\n".join(lines)


def cmd_train(args) -> int:
    started = _utc_now()
    config = _resolve_config(args)
    dataset, vocab, ingest = _load_dataset(args.data, config)
    out_dir = _make_out_dir(args.out)
    model, report = train(config, dataset)

    ckpt.save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), model, config, vocab)
    metrics = {"manifest": "manifest.json"} | report.as_dict()
    _write_json(os.path.join(out_dir, "metrics.json"), metrics)
    _write_curves(os.path.join(out_dir, "curves.csv"), report)
    _write_manifest(out_dir, config, args.data, ingest.total_rows, started, {
        "checkpoint": "checkpoint.bin",
        "metrics": "metrics.json",
        "curves": "curves.csv",
    })

    final = report.final
    print(f"trained {config.variant} for {config.epochs} epochs "
          f"on {report.train_size}+{report.val_size} records")
    print(_eval_table(final))
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, config, vocab = ckpt.load_checkpoint(args.checkpoint)
    if vocab is None:
        raise DataError(f"checkpoint {args.checkpoint} carries no vocabulary; cannot tokenize")
    dataset, _, _ = _load_dataset(args.data, config, vocab=vocab)
    _make_out_dir(args.out)
    result = evaluate(model, dataset)
    report = MetricsReport(config=config.to_dict(), train_size=0,
                           val_size=len(dataset), final=result)
    _write_json(os.path.join(args.out, "eval_metrics.json"), report.as_dict())
    print(_eval_table(result))
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = _utc_now()
    config = _resolve_config(args)
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    sweep_configs(config, args.axis, values)  # ConfigError before --out is made
    dataset, _, ingest = _load_dataset(args.data, config)
    out_dir = _make_out_dir(args.out)
    result = run_sweep(config, args.axis, values, dataset)

    _write_json(os.path.join(out_dir, "sweep.json"),
                {"manifest": "manifest.json"} | result.as_dict())
    _write_manifest(out_dir, config, args.data, ingest.total_rows, started,
                    {"sweep": "sweep.json"})
    print(result.format_table())
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    calibration = calibrate_oracle()
    if not calibration.passed:
        for line in calibration.lines():
            print(line)
        print("gradient oracle failed self-calibration", file=sys.stderr)
        return EXIT_NUMERIC
    reports = check_all() if args.scope == "all" else [check_module(args.scope)]
    for report in reports:
        for line in report.lines():
            print(line)
    if all(r.passed for r in reports):
        return EXIT_OK
    print("gradient check failed", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_count_params(args) -> int:
    variant = Variant.parse(args.variant)
    print(count_params(variant, args.d, args.n))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="slimrnn",
                     description="Slim LSTM variants: train, evaluate, and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write run artifacts")
    p_train.add_argument("--config", help="flat JSON config file")
    p_train.add_argument("--data", required=True, help="CSV dataset")
    p_train.add_argument("--out", default="run", help="output directory (default: run)")
    p_train.add_argument("--seed", type=int, help=f"RNG seed (fallback: ${SEED_ENV})")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a CSV")
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint.bin from train")
    p_eval.add_argument("--data", required=True, help="CSV dataset")
    p_eval.add_argument("--out", default=".", help="directory for eval_metrics.json")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="train once per value of one config axis")
    p_sweep.add_argument("--config", help="flat JSON config file")
    p_sweep.add_argument("--data", required=True, help="CSV dataset")
    p_sweep.add_argument("--out", default="sweep", help="output directory")
    p_sweep.add_argument("--seed", type=int, help=f"RNG seed (fallback: ${SEED_ENV})")
    p_sweep.add_argument("--axis", required=True,
                         help="config field to sweep (seed, variant, lr, hidden, ...; "
                              "split for split_ratio); not extra_dense_dims, text_column, "
                              "label_column, vocab_size or maxlen")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_grad = sub.add_parser("gradcheck", help="complex-step gradient verification")
    p_grad.add_argument("scope", nargs="?", default="all", choices=GRADCHECK_SCOPES,
                        help="what to check (default: all)")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_count = sub.add_parser("count-params", help="trainable parameter count for a cell")
    p_count.add_argument("variant", help="lstm0 .. lstm6")
    p_count.add_argument("d", type=int, help="input dimension")
    p_count.add_argument("n", type=int, help="hidden dimension")
    p_count.set_defaults(func=cmd_count_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ShapeError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
