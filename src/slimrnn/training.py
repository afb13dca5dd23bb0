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
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .cells import DEFAULT_ALPHA, DEFAULT_FORGET_BIAS, Variant
from .errors import ConfigError, NumericError
from .layers import (
    CNN_THEN_LSTM,
    ModelHyper,
    ModelSpec,
    SentimentModel,
    build_model,
)
from .optimizers import clip_by_global_norm, make_optimizer
from .rng import Rng
from .textdata import LabeledDataset, split_train_val

P_CLAMP = 1e-7
THRESHOLD = 0.5
# Records per evaluation forward pass. A forward pass keeps its activations
# for backward, so a fixed chunk bounds evaluation memory for any dataset.
EVAL_CHUNK = 32


@dataclass
class ExperimentConfig:
    """Everything a run needs besides the data itself. ``seed`` is mandatory."""

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
        Variant.parse(self.variant)  # raises ConfigError on junk
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        self.extra_dense_dims = tuple(self.extra_dense_dims)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
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

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            variant=Variant.parse(self.variant),
            lstm_position=self.lstm_position,
            extra_dense=self.extra_dense,
            bidirectional_tail=self.bidirectional_tail,
            alpha=self.alpha,
            forget_bias=self.forget_bias,
        )

    def model_hyper(self) -> ModelHyper:
        return ModelHyper(
            vocab_size=self.vocab_size,
            embed_dim=self.embed_dim,
            conv_filters=self.conv_filters,
            kernel_size=self.kernel_size,
            pool_size=self.pool_size,
            hidden=self.hidden,
            maxlen=self.maxlen,
            spatial_dropout=self.spatial_dropout,
            dense_dropout=self.dense_dropout,
            extra_dense_dims=self.extra_dense_dims,
        )

    def build(self, rng: Rng) -> SentimentModel:
        return build_model(self.model_spec(), self.model_hyper(), rng)


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
    """Score every record at threshold 0.5, EVAL_CHUNK records per forward
    pass; per-class accuracy is recall."""
    tp = fp = tn = fn = 0
    total_loss = 0.0
    for start in range(0, len(dataset), EVAL_CHUNK):
        p = model.forward(dataset.sequences[start:start + EVAL_CHUNK], training=False)
        y = dataset.labels[start:start + EVAL_CHUNK]
        total_loss += float(np.sum(bce_loss(p, y)[0]))
        pred, pos = p > THRESHOLD, y == 1
        tp += int(np.sum(pred & pos))
        fn += int(np.sum(~pred & pos))
        tn += int(np.sum(~pred & ~pos))
        fp += int(np.sum(pred & ~pos))
    n = len(dataset)
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
        return {
            "config": self.config,
            "train_size": self.train_size,
            "val_size": self.val_size,
            "epochs": [asdict(e) for e in self.epochs],
            "final": self.final.as_dict() if self.final else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def train(config: ExperimentConfig, dataset: LabeledDataset,
          stop_at_train_accuracy: float | None = None,
          ) -> tuple[SentimentModel, MetricsReport]:
    """Split, build, and run minibatch training; returns the trained model
    and its metrics.

    Each batch is one forward and one backward pass of the model. Training
    accuracy is measured on the fly from the (dropout-active) training
    forward passes. The final partial batch is trained like any other; each
    sample's loss gradient is scaled by 1/batch so updates use the
    batch-mean gradient. ``stop_at_train_accuracy`` ends the run early
    once the epoch's training accuracy reaches that percentage (used by
    capacity probes; epochs is still the hard budget).
    """
    root = Rng(config.seed)
    train_ds, val_ds = split_train_val(dataset, config.split_ratio, root.derive(1))
    model = config.build(root.derive(0))
    shuffles = root.derive(2)
    dropout_rng = root.derive(3)
    optimizer = make_optimizer(config.optimizer, config.lr)
    params = dict(model.named_params())

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
            grads = model.grads
            if config.clip_norm is not None:
                clip_by_global_norm(grads, config.clip_norm)
            optimizer.apply_update(params, grads)
        val = evaluate(model, val_ds)
        train_accuracy = 100.0 * correct / n
        report.epochs.append(EpochMetrics(
            epoch=epoch,
            train_loss=epoch_loss / n,
            train_accuracy=train_accuracy,
            val_loss=val.mean_loss,
            val_accuracy=val.overall_accuracy,
        ))
        if (stop_at_train_accuracy is not None
                and train_accuracy >= stop_at_train_accuracy):
            break
    report.final = val  # the model has not changed since the last epoch's evaluation
    return model, report


SWEEP_AXES = ("variant", "lstm_position", "extra_dense", "lr", "optimizer",
              "batch_size", "split")

_AXIS_FIELD = {axis: axis for axis in SWEEP_AXES} | {"split": "split_ratio"}


def coerce_axis_value(axis: str, raw):
    """Turn a CLI string into the right type for the swept config field."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick one of {', '.join(SWEEP_AXES)}")
    if isinstance(raw, str):
        raw = raw.strip()
        if axis in ("lr", "split"):
            try:
                return float(raw)
            except ValueError:
                raise ConfigError(f"{axis} value {raw!r} is not a number") from None
        if axis == "batch_size":
            try:
                return int(raw)
            except ValueError:
                raise ConfigError(f"batch_size value {raw!r} is not an integer") from None
        if axis == "extra_dense":
            lowered = raw.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ConfigError(f"extra_dense value {raw!r} is not a boolean")
    return raw


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
        return {
            "axis": self.axis,
            "rows": [
                {
                    "value": row.value,
                    "positive_accuracy": row.positive_accuracy,
                    "negative_accuracy": row.negative_accuracy,
                    "overall_accuracy": row.overall_accuracy,
                }
                for row in self.rows
            ],
        }

    def format_table(self) -> str:
        header = (self.axis, "Positive", "Negative", "Overall")
        body = [
            (str(row.value),
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


def run_sweep(base: ExperimentConfig, axis: str, values: list,
              dataset: LabeledDataset) -> SweepResult:
    """Train once per value, everything else (seed included) held fixed."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick one of {', '.join(SWEEP_AXES)}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows = []
    reports = []
    for raw in values:
        value = coerce_axis_value(axis, raw)
        config = replace(base, **{_AXIS_FIELD[axis]: value})
        report = train(config, dataset)[1]  # let each model go before the next is built
        final = report.final
        rows.append(SweepRow(value, final.positive_accuracy,
                             final.negative_accuracy, final.overall_accuracy))
        reports.append(report)
    return SweepResult(axis=axis, rows=rows, reports=reports)
