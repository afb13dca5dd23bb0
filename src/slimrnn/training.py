"""Experiment configuration, the training loop, evaluation, and sweeps.

One seed drives everything through derived streams: 0 builds the model,
1 shuffles the train/val split, 2 spawns the per-epoch shuffles, and 3
feeds dropout. Per batch of B records, stream 3 first yields the spatial
dropout mask [B, embed_dim] (row b for batch row b), then one mask
[B, width] per extra dense layer, in stack order. Two runs from the same
seed and data produce identical numbers, so metrics reports serialize
byte-for-byte the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .cells import DEFAULT_ALPHA, DEFAULT_FORGET_BIAS, Variant
from .errors import ConfigError, NumericError
from .layers import CNN_THEN_LSTM, EVAL_CHUNK, LSTM_THEN_CNN, SentimentModel
from .optimizers import clip_by_global_norm, make_optimizer
from .rng import Rng
from .textdata import LabeledDataset, split_train_val

P_CLAMP = 1e-7
THRESHOLD = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs besides the data itself, the model's sizes and
    switches included. ``seed`` is mandatory. Every field is checked against
    its annotation, then its range, at each construction (directly, by
    ``from_dict`` or by ``dataclasses.replace``), so a bad value raises
    ConfigError before any data is read or any model is built."""

    seed: int
    variant: str = "lstm0"
    lstm_position: str = CNN_THEN_LSTM
    extra_dense: bool = False
    bidirectional_tail: bool = True
    optimizer: str = "adam"
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    split_ratio: float = 0.33
    clip_norm: float | None = 5.0
    vocab_size: int = 20000
    embed_dim: int = 128
    conv_filters: int = 64
    kernel_size: int = 5
    pool_size: int = 4
    hidden: int = 64
    maxlen: int = 32
    spatial_dropout: float = 0.4
    dense_dropout: float = 0.2
    extra_dense_dims: tuple[int, ...] = (64, 32, 16)
    alpha: float = DEFAULT_ALPHA
    forget_bias: float = DEFAULT_FORGET_BIAS
    text_column: str = "text"
    label_column: str = "sentiment"

    def __post_init__(self):
        for key, (fits, name) in _CHECKS.items():
            value = getattr(self, key)
            if not fits(value):
                raise ConfigError(f"config {key}: expected {name}, got {value!r}")
        Variant.parse(self.variant)  # raises ConfigError on junk
        if self.lstm_position not in (CNN_THEN_LSTM, LSTM_THEN_CNN):
            raise ConfigError(
                f"lstm_position must be {CNN_THEN_LSTM!r} or {LSTM_THEN_CNN!r}, "
                f"got {self.lstm_position!r}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        make_optimizer(self.optimizer, self.lr)  # ConfigError on junk or lr not in (0, inf)
        # train clips when the norm exceeds clip_norm > 0, so 0, a negative
        # value or NaN would switch clipping off silently; null is the way.
        if self.clip_norm is not None and not 0.0 < self.clip_norm < math.inf:
            raise ConfigError(
                f"clip_norm must be null or finite and > 0, got {self.clip_norm}")
        object.__setattr__(self, "extra_dense_dims", tuple(self.extra_dense_dims))
        if self.vocab_size < 2:
            raise ConfigError(
                f"vocab_size must be >= 2 (the padding id and one word), got {self.vocab_size}")
        for key in ("embed_dim", "conv_filters", "kernel_size", "pool_size", "hidden",
                    "maxlen"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not all(width >= 1 for width in self.extra_dense_dims):
            raise ConfigError(
                f"extra_dense_dims entries must be >= 1, got {list(self.extra_dense_dims)}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        for key in ("spatial_dropout", "dense_dropout"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        # For every variant, so a variant sweep cannot fail at its lstm6 run.
        if not -1.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (-1, 1), got {self.alpha}")
        if not math.isfinite(self.forget_bias):
            raise ConfigError(f"forget_bias must be finite, got {self.forget_bias}")
        conv_out = self.maxlen - self.kernel_size + 1  # the rnn preserves length
        if conv_out < 1:
            chain = "embedding->conv" if self.lstm_position == CNN_THEN_LSTM else "rnn->conv"
            raise ConfigError(
                f"{chain}: sequence length {self.maxlen} shorter than kernel_size "
                f"{self.kernel_size}")
        if conv_out // self.pool_size < 1:
            raise ConfigError(
                f"conv->pool: conv output length {conv_out} < pool_size {self.pool_size}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if "seed" not in raw:
            raise ConfigError("config must set a seed")
        return cls(**raw)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["extra_dense_dims"] = list(self.extra_dense_dims)
        return out

    def build(self, rng: Rng) -> SentimentModel:
        return SentimentModel(self, rng)


_HINTS = get_type_hints(ExperimentConfig)


def _checker(hint):
    """A predicate: whether a config value fits the field annotation. An int
    is a float, a list is a tuple, and a bool is not a number."""
    if get_origin(hint) is UnionType:
        options = [_checker(arg) for arg in get_args(hint)]
        return lambda value: any(fits(value) for fits in options)
    if get_origin(hint) is tuple:
        item = _checker(get_args(hint)[0])
        return lambda value: isinstance(value, (list, tuple)) and all(map(item, value))
    if hint is bool:
        return lambda value: isinstance(value, bool)
    kinds = (int, float) if hint is float else hint
    return lambda value: isinstance(value, kinds) and not isinstance(value, bool)


# Per field: its checker, built once here, and the type name its error shows.
_CHECKS = {key: (_checker(hint), hint.__name__ if isinstance(hint, type) else str(hint))
           for key, hint in _HINTS.items()}


def bce_loss(p, y):
    """Binary cross-entropy on clamped probabilities; returns (loss, dL/dp),
    elementwise when p and y are arrays."""
    pc = np.clip(p, P_CLAMP, 1.0 - P_CLAMP)
    loss = -(y * np.log(pc) + (1 - y) * np.log(1.0 - pc))
    grad = (pc - y) / (pc * (1.0 - pc))
    return loss, grad


@dataclass
class EvalResult:
    """Confusion counts plus recall-style accuracies, all in percent."""

    n: int
    mean_loss: float
    overall_accuracy: float
    positive_accuracy: float
    negative_accuracy: float
    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(model: SentimentModel, dataset: LabeledDataset) -> EvalResult:
    """Score every record at threshold 0.5; per-class accuracy is recall.

    ``model.predict`` gives the probabilities of plain forwards over
    EVAL_CHUNK records at a time, in order, while skipping the all-padding
    prefix the records share in most of them. The confusion cells are
    counted over all records at once; the loss is summed over the same
    EVAL_CHUNK-record groups in order, so the result keeps every bit. The
    model keeps nothing for a backward afterwards."""
    n = len(dataset)
    p, y = model.predict(dataset.sequences), dataset.labels
    loss = bce_loss(p, y)[0]
    total_loss = 0.0
    for start in range(0, n, EVAL_CHUNK):
        total_loss += float(np.sum(loss[start:start + EVAL_CHUNK]))
    pred, pos = p > THRESHOLD, y == 1
    tp = int(np.sum(pred & pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    fp = int(np.sum(pred & ~pos))
    pos_total, neg_total = tp + fn, tn + fp
    return EvalResult(
        n=n,
        mean_loss=total_loss / n if n else 0.0,
        overall_accuracy=100.0 * (tp + tn) / n if n else 0.0,
        positive_accuracy=100.0 * tp / pos_total if pos_total else 0.0,
        negative_accuracy=100.0 * tn / neg_total if neg_total else 0.0,
        true_positive=tp,
        false_positive=fp,
        true_negative=tn,
        false_negative=fn,
    )


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


@dataclass
class MetricsReport:
    """Per-epoch curves plus the final validation scores for one run."""

    config: dict
    train_size: int
    val_size: int
    epochs: list[EpochMetrics] = field(default_factory=list)
    final: EvalResult | None = None

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def train(config: ExperimentConfig,
          dataset: LabeledDataset) -> tuple[SentimentModel, MetricsReport]:
    """Split, build, and run minibatch training; returns the trained model
    and its metrics.

    Each batch is one forward and one backward pass of the model. Training
    accuracy is measured on the fly from the (dropout-active) training
    forward passes. The final partial batch is trained like any other; each
    sample's loss gradient is scaled by 1/batch so updates use the
    batch-mean gradient. A non-finite probability, loss or gradient norm
    raises NumericError before the weights are touched. Clipping and the
    optimizer step visit only the embedding rows that can move (see
    ``optimizers``).
    """
    root = Rng(config.seed)
    train_ds, val_ds = split_train_val(dataset, config.split_ratio, root.derive(1))
    model = config.build(root.derive(0))
    shuffles = root.derive(2)
    dropout_rng = root.derive(3)
    optimizer = make_optimizer(config.optimizer, config.lr)
    params = dict(model.named_params())
    max_norm = 0.0 if config.clip_norm is None else config.clip_norm  # 0 only measures

    report = MetricsReport(config=config.to_dict(),
                           train_size=len(train_ds), val_size=len(val_ds))
    n = len(train_ds)
    for epoch in range(config.epochs):
        order = shuffles.derive(epoch).permutation(n)
        epoch_loss = 0.0
        correct = 0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            batch = order[start:start + config.batch_size]
            model.zero_grads()
            y = train_ds.labels[batch]
            p = model.forward(train_ds.sequences[batch], training=True, rng=dropout_rng)
            loss, d_p = bce_loss(p, y)
            if not (np.all(np.isfinite(loss)) and np.all(np.isfinite(p))):
                raise NumericError(
                    f"training diverged at epoch {epoch} batch {batch_index}: "
                    f"non-finite probability or loss in a batch of {len(batch)}")
            model.backward(d_p / len(batch))
            epoch_loss += float(np.sum(loss))
            correct += int(np.sum((p > THRESHOLD) == (y == 1)))
            grads, ends = model.grads, model.row_ends
            norm = clip_by_global_norm(grads, max_norm, ends)
            if not np.isfinite(norm):
                raise NumericError(
                    f"training diverged at epoch {epoch} batch {batch_index}: "
                    f"gradient norm is {norm}")
            optimizer.apply_update(params, grads, ends)
        val = evaluate(model, val_ds)
        report.epochs.append(EpochMetrics(
            epoch=epoch,
            train_loss=epoch_loss / n,
            train_accuracy=100.0 * correct / n,
            val_loss=val.mean_loss,
            val_accuracy=val.overall_accuracy,
        ))
    report.final = val  # the model has not changed since the last epoch's evaluation
    return model, report


# Fields that decide how the CSV is read and encoded: a sweep trains every
# value on one encoded dataset, so they cannot be its axis.
_DATA_FIELDS = ("text_column", "label_column", "vocab_size", "maxlen")
_TUPLE_FIELDS = tuple(key for key, hint in _HINTS.items() if get_origin(hint) is tuple)
# The fields a sweep refuses as its axis: the tuples, which a comma list
# cannot carry, and the _DATA_FIELDS. `slimrnn sweep --help` lists them.
REFUSED_AXES = _TUPLE_FIELDS + _DATA_FIELDS
_BOOLS = dict.fromkeys(("true", "1", "yes"), True) | dict.fromkeys(("false", "0", "no"), False)


def _parse_value(axis: str, raw: str, hint):
    """A CLI string as a value of the field annotated ``hint``."""
    raw = raw.strip()
    kinds = get_args(hint) or (hint,)  # float | None -> (float, NoneType)
    if raw == "null" and type(None) in kinds:
        return None
    kind = kinds[0]
    try:
        return _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{axis} value {raw!r} is not a valid {kind.__name__}") from None


@dataclass
class SweepRow:
    value: object
    positive_accuracy: float
    negative_accuracy: float
    overall_accuracy: float


@dataclass
class SweepResult:
    """One row per swept value, columns Positive / Negative / Overall."""

    axis: str
    rows: list[SweepRow]
    reports: list[MetricsReport]

    def as_dict(self) -> dict:
        return {"axis": self.axis, "rows": [asdict(row) for row in self.rows]}

    def format_table(self) -> str:
        header = (self.axis, "Positive", "Negative", "Overall")
        body = [  # None and booleans spelled as in sweep.json and --values
            (json.dumps(row.value) if row.value is None or isinstance(row.value, bool)
             else str(row.value),
             f"{row.positive_accuracy:.2f}",
             f"{row.negative_accuracy:.2f}",
             f"{row.overall_accuracy:.2f}")
            for row in self.rows
        ]
        widths = [max(len(line[col]) for line in [header, *body])
                  for col in range(4)]
        def fmt(line):
            return "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        rule = "  ".join("-" * w for w in widths)
        return "\n".join([fmt(header), rule, *map(fmt, body)])


def sweep_configs(base: ExperimentConfig, axis: str,
                  values: list) -> list[tuple[object, ExperimentConfig]]:
    """Each value, a string converted by its field's annotation, with its
    config built and checked. The axis is any config field (``split`` names
    ``split_ratio``) except the REFUSED_AXES. A bad axis, an empty list or a
    bad value anywhere raises ConfigError here."""
    key = "split_ratio" if axis == "split" else axis
    hint = _HINTS.get(key)
    if hint is None:
        raise ConfigError(f"unknown sweep axis {axis!r}: not a config field")
    if key in _TUPLE_FIELDS:
        raise ConfigError(f"cannot sweep {axis}: a comma list cannot carry a tuple")
    if key in _DATA_FIELDS:
        raise ConfigError(f"cannot sweep {axis}: every value trains on one dataset, "
                          f"read and encoded with the base config's {key}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    values = [_parse_value(axis, raw, hint) if isinstance(raw, str) else raw
              for raw in values]
    return [(value, replace(base, **{key: value})) for value in values]


def run_sweep(base: ExperimentConfig, axis: str, values: list,
              dataset: LabeledDataset) -> SweepResult:
    """Train once per value, every other field (the seed too, unless it is
    the axis) held fixed. A bad value raises ConfigError before the first
    run starts."""
    rows = []
    reports = []
    for value, config in sweep_configs(base, axis, values):
        report = train(config, dataset)[1]  # let each model go before the next is built
        final = report.final
        rows.append(SweepRow(value, final.positive_accuracy,
                             final.negative_accuracy, final.overall_accuracy))
        reports.append(report)
    return SweepResult(axis=axis, rows=rows, reports=reports)
