"""Spans recorded from outside the library, and the per-layer metrics
derived from them.

``Tracer.install`` wraps the public layer classes' methods and the
module-level names their callers look up (``slimrnn.layers.sequence_forward``
is what ``Recurrent`` calls, ``slimrnn.training.evaluate`` is what ``train``
calls, and so on); ``Tracer.uninstall`` restores every original. While
installed, each wrapped call appends one span: name, start, end, parent span
and run id, plus a few counts measured at the same boundary. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Layer class -> the role its instance plays in SentimentModel.
_ROLE_BY_CLASS = {
    "Embedding": "embedding",
    "Conv1D": "conv",
    "MaxPool1D": "pool",
    "Recurrent": "rnn",
    "Bidirectional": "tail",
}

LAYER_ROLES = ("embedding", "spatial_dropout", "conv", "pool", "rnn", "tail", "head")
VARIANTS = tuple(f"lstm{k}" for k in range(7))
TAIL_PERCENTILES = (99, 95, 90, 75)


def _role(layer) -> str:
    kind = type(layer).__name__
    if kind == "Dropout":
        return "spatial_dropout" if layer.mode == "spatial" else "dropout"
    if kind == "Dense":
        return "head" if layer.activation == "sigmoid" else "dense"
    return _ROLE_BY_CLASS[kind]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "meta")

    def __init__(self, name, start, parent, run):
        self.name, self.start, self.end = name, start, start
        self.parent, self.run, self.meta = parent, run, None

    def as_dict(self) -> dict:
        return {"name": self.name, "start_ns": self.start, "end_ns": self.end,
                "parent": self.parent, "run": self.run, "meta": self.meta}


class Tracer:
    """Span store plus the patch table that feeds it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, name, meta=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``name`` is the span name, or a function of the call's first argument
        that returns it. ``meta(args, result)`` gives the span's counts; it
        runs after the span closes, so counting costs the span no time.
        """
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        name_of = name if callable(name) else (lambda first: name)

        def wrapper(*args, **kwargs):
            span = self._open(name_of(args[0] if args else None))
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if meta is not None:
                span.meta = meta(args, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self, s) -> None:
        """Wrap slimrnn's layers, cells, optimizers, training, checkpoint and
        textdata entry points, as reached from the package and from the
        modules that call them."""
        layers, training, optimizers = s.layers, s.training, s.optimizers
        for cls in (layers.Embedding, layers.Dropout, layers.Conv1D, layers.MaxPool1D,
                    layers.Recurrent, layers.Bidirectional, layers.Dense):
            self._patch(cls, "forward", lambda layer: f"layers.{_role(layer)}.fwd")
            self._patch(cls, "backward", lambda layer: f"layers.{_role(layer)}.bwd")
        self._patch(layers.SentimentModel, "forward", "layers.model.fwd")
        self._patch(layers.SentimentModel, "backward", "layers.model.bwd")
        self._patch(layers.SentimentModel, "zero_grads", "layers.zero_grads")

        def cell_meta(args, result):
            # args: (params, xs or caches, ...); one row or cache per step
            return {"steps": len(args[1]), "variant": args[0].variant.value.lower()}

        self._patch(layers, "sequence_forward", "cells.fwd", cell_meta)
        self._patch(layers, "sequence_backward", "cells.bwd", cell_meta)
        self._patch(training, "clip_by_global_norm", "optimizers.clip",
                    lambda args, norm: {"fired": bool(norm > args[1] > 0.0)})

        def step_meta(args, result):
            # The step reads the gradients and leaves them as they were.
            table = args[2].get("embedding.table")
            if table is None:
                return None
            return {"rows_touched": int(np.count_nonzero(table.any(axis=1))),
                    "rows_updated": int(table.shape[0])}

        self._patch(optimizers.Optimizer, "apply_update", "optimizers.step", step_meta)
        for owner in (s, training):
            self._patch(owner, "train", "training.train")
            self._patch(owner, "evaluate", "training.evaluate")
        self._patch(s, "run_sweep", "training.run_sweep")
        self._patch(s, "save_checkpoint", "checkpoint.save")
        self._patch(s, "load_checkpoint", "checkpoint.load")
        self._patch(s, "ingest_csv", "textdata.ingest", lambda args, result: {
            "rows": result[1].total_rows, "skipped": result[1].skipped_rows})
        self._patch(s, "build_vocab", "textdata.vocab")
        self._patch(s, "encode_dataset", "textdata.encode")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(), separators=(",", ":")))
                handle.write("\n")


# -- derivation ------------------------------------------------------------

def _ms(ns: float) -> float:
    return ns / 1e6


def _us(ns: float) -> float:
    return ns / 1e3


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover.
    Children of one parent never overlap, because calls nest."""
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.end - sp.start
    return own


def batch_durations(spans: list[Span]) -> list[int]:
    """A batch runs from the start of zero_grads to the end of the next
    apply_update."""
    out, opened = [], None
    for sp in spans:  # spans are stored in start order
        if sp.name == "layers.zero_grads":
            opened = sp.start
        elif sp.name == "optimizers.step" and opened is not None:
            out.append(sp.end - opened)
            opened = None
    return out


def tail_percentile(count: int) -> int | None:
    """The highest listed percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (100 - p) / 100 >= 10:
            return p
    return None


def per_layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict]:
    """Per-layer values keyed by metric name (without the trace overhead and
    workload-level entries, which the workload adds), plus notes such as the
    tail percentile used. A layer that did not run reads 0."""
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def total(name: str) -> int:
        return sum(sp.end - sp.start for sp in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def mean_ms(name: str) -> float:
        n = count(name)
        return _ms(total(name) / n) if n else 0.0

    m: dict[str, float] = {}
    notes: dict = {}

    def with_meta(name: str) -> list[Span]:
        """Spans whose call returned; a call that raised carries no counts."""
        return [sp for sp in by_name.get(name, ()) if sp.meta]

    ingests = with_meta("textdata.ingest")
    rows = sum(sp.meta["rows"] for sp in ingests)
    m["textdata.ingest_ms"] = mean_ms("textdata.ingest")
    m["textdata.vocab_ms"] = mean_ms("textdata.vocab")
    m["textdata.encode_ms"] = mean_ms("textdata.encode")
    m["textdata.rows_skipped_ratio"] = (
        sum(sp.meta["skipped"] for sp in ingests) / rows if rows else 0.0)

    fwd_samples = count("layers.model.fwd")
    bwd_samples = count("layers.model.bwd")
    for role in (*LAYER_ROLES, "model"):
        m[f"layers.{role}.fwd_us"] = (
            _us(total(f"layers.{role}.fwd") / fwd_samples) if fwd_samples else 0.0)
        m[f"layers.{role}.bwd_us"] = (
            _us(total(f"layers.{role}.bwd") / bwd_samples) if bwd_samples else 0.0)
    own = self_times(spans)
    model_self = sum(own[k] for k, sp in enumerate(spans)
                     if sp.name in ("layers.model.fwd", "layers.model.bwd"))
    m["layers.model.self_us"] = _us(model_self / fwd_samples) if fwd_samples else 0.0
    m["layers.zero_grads_ms"] = mean_ms("layers.zero_grads")

    for direction in ("fwd", "bwd"):
        cell_spans = with_meta(f"cells.{direction}")
        steps = sum(sp.meta["steps"] for sp in cell_spans)
        m[f"cells.{direction}_step_us"] = (
            _us(sum(sp.end - sp.start for sp in cell_spans) / steps) if steps else 0.0)
        if direction == "fwd":
            m["cells.steps_per_sample"] = steps / fwd_samples if fwd_samples else 0.0
        rnn_name = f"layers.rnn.{direction}"
        for variant in VARIANTS:
            mine = [sp for sp in cell_spans if sp.meta["variant"] == variant
                    and sp.parent is not None and spans[sp.parent].name == rnn_name]
            steps_v = sum(sp.meta["steps"] for sp in mine)
            m[f"cells.{variant}.{direction}_step_us"] = (
                _us(sum(sp.end - sp.start for sp in mine) / steps_v) if steps_v else 0.0)

    steps = by_name.get("optimizers.step", [])
    clips = with_meta("optimizers.clip")
    m["optimizers.clip_ms"] = mean_ms("optimizers.clip")
    m["optimizers.step_ms"] = mean_ms("optimizers.step")
    m["optimizers.steps"] = float(len(steps))
    m["optimizers.clip_fired_ratio"] = (
        sum(sp.meta["fired"] for sp in clips) / len(clips) if clips else 0.0)
    touched = [sp.meta["rows_touched"] / sp.meta["rows_updated"] for sp in steps if sp.meta]
    m["optimizers.embedding_rows_touched_ratio"] = float(np.mean(touched)) if touched else 0.0

    batches = batch_durations(spans)
    p = tail_percentile(len(batches))
    notes["batches"] = len(batches)
    notes["batch_tail_percentile"] = p
    m["training.batch_ms_p50"] = _ms(float(np.percentile(batches, 50))) if batches else 0.0
    m["training.batch_ms_tail"] = (
        _ms(float(np.percentile(batches, p))) if p is not None else m["training.batch_ms_p50"])

    train_ids = {k for k, sp in enumerate(spans) if sp.name == "training.train"}
    inner_evals = [sp for sp in by_name.get("training.evaluate", []) if sp.parent in train_ids]
    m["training.eval_calls"] = len(inner_evals) / len(train_ids) if train_ids else 0.0
    m["training.eval_ms"] = (
        _ms(sum(sp.end - sp.start for sp in inner_evals) / len(inner_evals))
        if inner_evals else 0.0)

    m["checkpoint.save_ms"] = mean_ms("checkpoint.save")
    m["checkpoint.load_ms"] = mean_ms("checkpoint.load")
    return m, notes
