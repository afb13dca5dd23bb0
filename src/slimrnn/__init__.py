"""slimrnn: slim LSTM gate variants with hand-written training, from scratch.

Seven cell variants (lstm0 through lstm6) share one cell-state recurrence
and differ only in how the input/forget/output gates are computed, trading
parameters for capacity. Everything runs on float64 numpy with explicit
backward passes verified against a complex-step oracle.
"""

from .cells import (
    DEFAULT_ALPHA,
    CellParams,
    CellState,
    Variant,
    count_params,
    init_params,
    sequence_backward,
    sequence_forward,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, NumericError, ShapeError, SlimRnnError
from .gradcheck import (
    GradReport,
    calibrate_oracle,
    check_all,
    check_model,
    check_module,
    check_variant,
    finite_diff,
    relative_error,
)
from .layers import CNN_THEN_LSTM, LSTM_THEN_CNN, SentimentModel
from .optimizers import SGD, Adam, RMSprop, clip_by_global_norm, make_optimizer
from .rng import Rng
from .textdata import (
    LabeledDataset,
    Vocabulary,
    build_vocab,
    encode_dataset,
    ingest_csv,
    normalize_text,
    select_binary,
    split_train_val,
    tokenize,
)
from .training import (
    EvalResult,
    ExperimentConfig,
    MetricsReport,
    SweepResult,
    bce_loss,
    evaluate,
    run_sweep,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHA",
    "CNN_THEN_LSTM",
    "LSTM_THEN_CNN",
    "Adam",
    "CellParams",
    "CellState",
    "ConfigError",
    "DataError",
    "EvalResult",
    "ExperimentConfig",
    "GradReport",
    "LabeledDataset",
    "MetricsReport",
    "NumericError",
    "RMSprop",
    "Rng",
    "SGD",
    "SentimentModel",
    "ShapeError",
    "SlimRnnError",
    "SweepResult",
    "Variant",
    "Vocabulary",
    "bce_loss",
    "build_vocab",
    "calibrate_oracle",
    "check_all",
    "check_model",
    "check_module",
    "check_variant",
    "clip_by_global_norm",
    "count_params",
    "encode_dataset",
    "evaluate",
    "finite_diff",
    "ingest_csv",
    "init_params",
    "load_checkpoint",
    "make_optimizer",
    "normalize_text",
    "relative_error",
    "run_sweep",
    "save_checkpoint",
    "select_binary",
    "sequence_backward",
    "sequence_forward",
    "split_train_val",
    "tokenize",
    "train",
]
