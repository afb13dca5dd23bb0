"""The benchmark's three workloads, their output checks and failure ledger.

Each workload drives slimrnn only through its public functions, looked up on
the package at call time (``s.train``), so a traced run can wrap them. Every
library call that can fail and every output check is one operation in the
ledger; a ``SlimRnnError`` or a failed check is counted there, never raised.

Sizes. A reference-size sample costs about 11 ms forward plus backward on
one core, and comparing two commits takes about twenty runs of each
workload, so a run stays under a minute. Each timed operation is short
enough for a run to hold several and report their median:

- train-ref: 690 rows give about 400 training records. 4 epochs at batch
  32 are 52 Adam steps, which the learnable task needs before its
  validation loss falls clearly below ln 2, so one ``train()`` plus
  ``save_checkpoint`` takes about 18 s and a run holds two.
- sweep-variants: 140 rows give about 80 training records per variant; one
  epoch at batch 8 makes a seven-variant ``run_sweep()`` about 9 s.
- eval-checkpoint: a brief untimed ``train()`` on 120 rows makes the
  reference-size checkpoint; 1,500 rows to evaluate make one
  ``load_checkpoint`` plus ``evaluate()`` about 3.5 s.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import statistics
import time

import numpy as np

import gen
from spans import VARIANTS, per_layer_metrics

LN2 = math.log(2.0)

TRAIN_REF_ROWS, TRAIN_REF_EPOCHS = 690, 4
SWEEP_ROWS, SWEEP_EPOCHS = 140, 1
EVAL_TRAIN_ROWS, EVAL_ROWS = 120, 1500
SETUP_BLOCK = 5  # set-up repeats in a row, on one CPU

# Finite-difference spot check at the repo's end-to-end tolerance, applied
# only where the analytic gradient sits far above the roundoff floor
# (machine epsilon * |loss| / step, about 2e-10 at this step).
FD_EPS = 1e-6
FD_TOL = 1e-4
FD_MIN_GRAD = 1e-5
FD_MIN_COORDS = 4


def now() -> float:
    return time.perf_counter()


class Ledger:
    """Operations attempted and failed, with a line per failure."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, what: str, fn, *args, weight: int = 1, **kwargs):
        """Run one library call; returns (ok, result)."""
        self.attempted += weight
        try:
            return True, fn(*args, **kwargs)
        except self.error_type as exc:
            self.failed += weight
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return False, None

    def check(self, what: str, fn) -> bool:
        """Run one output check; ``fn`` returns (passed, detail)."""
        self.attempted += 1
        try:
            passed, detail = fn()
        except self.error_type as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        if not passed:
            self.failed += 1
            self.failures.append(f"check {what}: {detail}")
        return passed


@dataclasses.dataclass
class Context:
    s: object  # the slimrnn package
    seed: int
    seconds: float
    work_dir: str
    ledger: Ledger
    tracer: object | None  # a spans.Tracer in traced runs
    cpus: list[int] = dataclasses.field(
        default_factory=lambda: sorted(os.sched_getaffinity(0)))

    def pin(self, k: int) -> None:
        """Run on the k-th allowed CPU, in turn. The CPUs of a shared machine
        differ in speed and a process left alone tends to stay on one, so
        rotating makes every run sample every CPU."""
        os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})

    def unpin(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    @contextlib.contextmanager
    def traced(self, on: bool):
        """Install the tracer's wrappers for the block when ``on``."""
        if not (on and self.tracer):
            yield
            return
        self.tracer.install(self.s)
        try:
            yield
        finally:
            self.tracer.uninstall()

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)


def window(ctx: Context, minimum: int):
    """Yield, for each timed operation, whether to trace it: until
    ``ctx.seconds`` have passed and at least ``minimum`` operations have
    started. Each operation runs on the next CPU in turn. A traced run
    traces every second operation and moves to the next CPU after each
    untraced/traced pair, so the pair it compares shares a CPU."""
    start = now()
    k = 0
    try:
        while k < minimum or now() - start < ctx.seconds:
            ctx.pin(k // 2 if ctx.tracer else k)
            yield bool(ctx.tracer) and k % 2 == 1
            k += 1
    finally:
        ctx.unpin()


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def load_dataset(ctx: Context, csv_path: str, config, vocab=None):
    """Ingest, select, build a vocabulary (unless given one) and encode, as
    ``slimrnn train`` and ``slimrnn eval`` do. Returns (dataset, vocab), or
    (None, None) when a step failed."""
    s, ledger = ctx.s, ctx.ledger
    ok, out = ledger.op("ingest", s.ingest_csv, csv_path, config.text_column, config.label_column)
    ok, binary = ledger.op("select", s.select_binary, out[0]) if ok else (False, None)
    if ok and vocab is None:
        ok, vocab = ledger.op("vocabulary", s.build_vocab, [r.text for r in binary],
                              capacity=config.vocab_size)
    ok, dataset = ledger.op("encode", s.encode_dataset, binary, vocab, config.maxlen) if ok else (False, None)
    return (dataset, vocab) if ok else (None, None)


class Setup:
    """The timed set-up: ``load_dataset`` on the workload's CSV.

    It runs in blocks of SETUP_BLOCK repeats: one block on each CPU before
    the timed window, and one after each timed operation, on that
    operation's CPU. Its median so samples the whole run rather than one
    moment of a machine whose speed drifts. A traced run traces one block
    before the window, for the textdata spans.
    """

    def __init__(self, ctx: Context, csv_path: str, config, vocab=None):
        self.ctx, self.csv_path, self.config, self.vocab = ctx, csv_path, config, vocab
        self.times: list[float] = []

    def block(self):
        """Returns (dataset, vocab) from the block, or (None, None)."""
        for _ in range(SETUP_BLOCK):
            t0 = now()
            dataset, vocab = load_dataset(self.ctx, self.csv_path, self.config, self.vocab)
            self.times.append(now() - t0)
            if dataset is None:
                break
        return dataset, vocab

    def first(self):
        """The blocks before the window; returns (dataset, vocab) or (None, None)."""
        with self.ctx.traced(True):
            try:
                for k in range(1 if self.ctx.tracer else len(self.ctx.cpus)):
                    self.ctx.pin(k)
                    dataset, vocab = self.block()
                    if dataset is None:
                        break
            finally:
                self.ctx.unpin()
        return dataset, vocab

    @property
    def seconds(self) -> float:
        return median(self.times)


def shifted_diff(s, loss, view, sign: int) -> float:
    """One-sided difference over [x, x + 2h] (sign 1) or [x - 2h, x] (sign
    -1): the central difference taken at x moved by one step."""
    orig = view.copy()
    view[...] = orig + sign * FD_EPS
    try:
        return float(s.finite_diff(loss, [view], eps=FD_EPS)[0][0])
    finally:
        view[...] = orig


def spot_check(s, model, seq, label: int):
    """Finite differences against the analytic gradient at each tensor's
    largest-gradient coordinate, where that gradient clears FD_MIN_GRAD.

    ReLU and max-pool make the loss piecewise smooth; a zero ReLU output
    tied in a pool window even puts a kink exactly at the current point.
    Where a kink lies within a step, the one-sided differences on either
    side disagree by at least as much as the central difference is off, so
    a coordinate whose one-sided differences disagree by FD_TOL or more is
    left out. A wrong analytic gradient on a smooth coordinate still fails.
    """
    model.zero_grads()
    p = model.forward(seq, training=False)
    _, d_p = s.bce_loss(p, label)
    model.backward(d_p)
    grads = model.grads

    def loss() -> float:
        return s.bce_loss(model.forward(seq, training=False), label)[0]

    checked, skipped, worst = 0, 0, (0.0, "")
    for name, arr in model.named_params():
        flat_grad = grads[name].reshape(-1)
        k = int(np.argmax(np.abs(flat_grad)))
        if abs(flat_grad[k]) <= FD_MIN_GRAD:
            continue
        analytic = float(flat_grad[k])
        view = arr.reshape(-1)[k:k + 1]
        if not np.shares_memory(view, arr):
            return False, f"{name} is not contiguous; cannot perturb in place"
        ahead, behind = shifted_diff(s, loss, view, 1), shifted_diff(s, loss, view, -1)
        if s.relative_error(np.array(ahead), np.array(behind)) >= FD_TOL:
            skipped += 1
            continue
        central = s.finite_diff(loss, [view], eps=FD_EPS)[0]
        error = float(s.relative_error(np.array(analytic), central)[0])
        checked += 1
        worst = max(worst, (error, name))
    model.zero_grads()
    if checked < FD_MIN_COORDS:
        return False, f"only {checked} coordinates away from kinks, {skipped} skipped"
    return worst[0] < FD_TOL, (f"{checked} coordinates ({skipped} near kinks), "
                               f"worst {worst[0]:.3e} at {worst[1]}")


def params_equal(a, b) -> tuple[bool, str]:
    pa, pb = dict(a.named_params()), dict(b.named_params())
    if pa.keys() != pb.keys():
        return False, "parameter names differ"
    bad = [name for name in pa if not np.array_equal(pa[name], pb[name])]
    return not bad, f"differ: {bad[:3]}"


def loss_check(reports, limit: float = LN2) -> tuple[bool, str]:
    losses = [r.final.mean_loss for r in reports]
    return (bool(losses) and all(math.isfinite(x) and x < limit for x in losses),
            f"final val losses {[round(x, 5) for x in losses]}, limit {limit:.5f}")


def all_same(values) -> tuple[bool, str]:
    return len(values) >= 2 and len(set(values)) == 1, f"{len(set(values))} distinct of {len(values)}"


def overhead(traced: list[float], plain: list[float]) -> float:
    return median(traced) / median(plain) - 1.0 if traced and plain else 0.0


# -- workloads ---------------------------------------------------------------
# Each returns (end-to-end values, workload-level per-layer values, details).

def train_ref(ctx: Context):
    s, ledger = ctx.s, ctx.ledger
    config = s.ExperimentConfig(seed=ctx.seed, epochs=TRAIN_REF_EPOCHS)
    csv_path = ctx.path("train.csv")
    gen.write_csv(csv_path, ctx.seed, "train", TRAIN_REF_ROWS)
    setup = Setup(ctx, csv_path, config)
    dataset, vocab = setup.first()
    if dataset is None:
        return {}, {}, {}

    rates, plain, traced, reports, outputs, save_times = [], [], [], [], [], []
    ckpt = ctx.path("checkpoint.json")
    for on in window(ctx, minimum=2):
        model = out = None  # one model alive at a time, as in `slimrnn train`
        with ctx.traced(on):
            t0 = now()
            ok, out = ledger.op("train", s.train, config, dataset)
            elapsed = now() - t0
            if not ok:
                continue
            model, report = out
            t0 = now()
            saved, _ = ledger.op("checkpoint save", s.save_checkpoint, ckpt, model, config, vocab)
            save_times.append(now() - t0)
        setup.block()
        (traced if on else plain).append(elapsed)
        rates.append(report.train_size * len(report.epochs) / elapsed)
        reports.append(report)
        outputs.append(report.to_json() + (sha256(ckpt) if saved else "unsaved"))

    ledger.check("determinism", lambda: all_same(outputs))
    ledger.check("val loss", lambda: loss_check(reports))
    if model is not None:
        ok, out = ledger.op("checkpoint load", s.load_checkpoint, ckpt) if saved else (False, None)
        if ok:
            loaded = out[0]
            ledger.check("checkpoint params", lambda: params_equal(loaded, model))
            _, val = s.split_train_val(dataset, config.split_ratio, s.Rng(config.seed).derive(1))
            ok_a, a = ledger.op("evaluate", s.evaluate, loaded, val)
            ok_b, b = ledger.op("evaluate", s.evaluate, model, val)
            if ok_a and ok_b:
                ledger.check("evaluate after load", lambda: (a == b, f"{a} vs {b}"))
        ledger.check("gradient spot check", lambda: spot_check(
            s, model, dataset.sequences[0], int(dataset.labels[0])))

    end_to_end = {"setup_s": setup.seconds, "samples_per_s": median(rates)}
    layer = {"training.val_loss": float(np.mean([r.final.mean_loss for r in reports]))
             if reports else 0.0,
             "checkpoint.bytes": float(os.path.getsize(ckpt)) if save_times else 0.0,
             "trace.overhead_ratio": overhead(traced, plain)}
    details = {"setup_s": setup.times, "train_calls": len(reports), "train_s": plain + traced,
               "samples_per_call": [r.train_size * len(r.epochs) for r in reports],
               "val_loss": [r.final.mean_loss for r in reports],
               "checkpoint_save_s": save_times}
    return end_to_end, layer, details


def sweep_variants(ctx: Context):
    s, ledger = ctx.s, ctx.ledger
    base = s.ExperimentConfig(seed=ctx.seed, lstm_position=s.LSTM_THEN_CNN,
                              batch_size=8, vocab_size=2000, epochs=SWEEP_EPOCHS)
    csv_path = ctx.path("train.csv")
    gen.write_csv(csv_path, ctx.seed, "sweep", SWEEP_ROWS)
    setup = Setup(ctx, csv_path, base)
    dataset, _ = setup.first()
    if dataset is None:
        return {}, {}, {}

    rates, plain, traced, results = [], [], [], []
    for on in window(ctx, minimum=2):
        with ctx.traced(on):
            t0 = now()
            ok, result = ledger.op("sweep", s.run_sweep, base, "variant", list(VARIANTS),
                                   dataset, weight=len(VARIANTS))
            elapsed = now() - t0
        setup.block()
        if ok:
            (traced if on else plain).append(elapsed)
            rates.append(sum(r.train_size * len(r.epochs) for r in result.reports) / elapsed)
            results.append(result)

    ledger.check("determinism", lambda: all_same(
        ["".join(r.to_json() for r in res.reports) for res in results]))
    reports = results[0].reports if results else []
    # Too few steps for every variant to learn; the ln 2 check is train-ref's.
    ledger.check("val loss", lambda: loss_check(reports, limit=math.inf))
    for variant in VARIANTS:
        config = dataclasses.replace(base, variant=variant)
        model = config.build(s.Rng(config.seed).derive(0))
        ledger.check(f"gradient spot check {variant}", lambda: spot_check(
            s, model, dataset.sequences[0], int(dataset.labels[0])))

    end_to_end = {"setup_s": setup.seconds, "samples_per_s": median(rates)}
    layer = {"training.val_loss": float(np.mean([r.final.mean_loss for r in reports]))
             if reports else 0.0,
             "checkpoint.bytes": 0.0,
             "trace.overhead_ratio": overhead(traced, plain)}
    details = {"setup_s": setup.times, "sweeps": len(results), "sweep_s": plain + traced,
               "val_loss": {row.value: rep.final.mean_loss
                            for row, rep in zip(results[0].rows, reports)} if results else {}}
    return end_to_end, layer, details


def eval_checkpoint(ctx: Context):
    s, ledger = ctx.s, ctx.ledger
    config = s.ExperimentConfig(seed=ctx.seed, epochs=1)
    # Untimed preparation: a brief reference-size training run and its checkpoint.
    train_csv, eval_csv, ckpt = ctx.path("train.csv"), ctx.path("eval.csv"), ctx.path("checkpoint.json")
    gen.write_csv(train_csv, ctx.seed, "train", EVAL_TRAIN_ROWS)
    gen.write_csv(eval_csv, ctx.seed, "eval", EVAL_ROWS)
    train_ds, vocab = load_dataset(ctx, train_csv, config)
    ok, out = ledger.op("train", s.train, config, train_ds) if train_ds else (False, None)
    if not ok:
        return {}, {}, {}
    trained = out[0]
    ok, _ = ledger.op("checkpoint save", s.save_checkpoint, ckpt, trained, config, vocab)
    ok, out = ledger.op("checkpoint load", s.load_checkpoint, ckpt) if ok else (False, None)
    if not ok:
        return {}, {}, {}
    ckpt_config, ckpt_vocab = out[1], out[2]

    setup = Setup(ctx, eval_csv, ckpt_config, vocab=ckpt_vocab)
    dataset, _ = setup.first()
    if dataset is None:
        return {}, {}, {}

    rates, load_s, plain, traced, results = [], [], [], [], []
    for on in window(ctx, minimum=2):
        loaded = out = None  # one loaded model alive at a time, as in `slimrnn eval`
        with ctx.traced(on):
            t0 = now()
            ok, out = ledger.op("checkpoint load", s.load_checkpoint, ckpt)
            t1 = now()
            if not ok:
                continue
            loaded = out[0]
            ok, result = ledger.op("evaluate", s.evaluate, loaded, dataset)
            t2 = now()
        setup.block()
        if not ok:
            continue
        load_s.append(t1 - t0)
        rates.append(len(dataset) / (t2 - t1))
        (traced if on else plain).append(t2 - t0)
        results.append(json.dumps(result.as_dict(), sort_keys=True))
        ledger.check("checkpoint params", lambda: params_equal(loaded, trained))

    ledger.check("determinism", lambda: all_same(results))
    ok, in_memory = ledger.op("evaluate", s.evaluate, trained, dataset)
    if ok and results:
        expected = json.dumps(in_memory.as_dict(), sort_keys=True)
        ledger.check("evaluate after load", lambda: (results[0] == expected,
                                                     f"{results[0]} vs {expected}"))
    if loaded is not None:
        ledger.check("gradient spot check", lambda: spot_check(
            s, loaded, dataset.sequences[0], int(dataset.labels[0])))

    end_to_end = {"setup_s": setup.seconds, "samples_per_s": median(rates)}
    layer = {"training.val_loss": 0.0,
             "checkpoint.bytes": float(os.path.getsize(ckpt)),
             "trace.overhead_ratio": overhead(traced, plain)}
    details = {"setup_s": setup.times, "evaluations": len(results), "records": len(dataset),
               "checkpoint_load_s": load_s}
    return end_to_end, layer, details


WORKLOADS = {
    "train-ref": train_ref,
    "sweep-variants": sweep_variants,
    "eval-checkpoint": eval_checkpoint,
}


def run(ctx: Context, name: str):
    """Run one workload; returns (end-to-end, per-layer, details). Per-layer
    values come from the tracer's spans in a traced run, else are empty."""
    end_to_end, layer, details = WORKLOADS[name](ctx)
    if ctx.tracer:
        derived, notes = per_layer_metrics(ctx.tracer.spans)
        layer = derived | layer
        details["trace"] = notes
    return end_to_end, layer, details
