"""Shared fixtures: the bundled CSV corpus, a separable synthetic token
dataset, a micro experiment config sized for fast runs, and helpers that
take a checkpoint file apart and put it back together."""

import json
import math
import mmap
from pathlib import Path

import numpy as np
import pytest

from slimrnn import ExperimentConfig, LabeledDataset, Rng

FIXTURE_CSV = Path(__file__).parent / "data" / "fixture_tweets.csv"

POSITIVE_TOKENS = (1, 2, 3, 4, 5)
NEGATIVE_TOKENS = (6, 7, 8, 9, 10)


def make_separable_dataset(total: int = 36, maxlen: int = 8,
                           seed: int = 7) -> LabeledDataset:
    """Alternating labels; each class draws tokens from its own disjoint pool,
    so any model with a working pipeline can fit it perfectly."""
    rng = Rng(seed)
    rows, labels = [], []
    for k in range(total):
        y = k % 2
        pool = POSITIVE_TOKENS if y else NEGATIVE_TOKENS
        length = 3 + int(rng.uniform(()) * (maxlen - 3))
        row = np.zeros(maxlen, dtype=np.int64)
        row[-length:] = [pool[int(rng.uniform(()) * len(pool))] for _ in range(length)]
        rows.append(row)
        labels.append(y)
    return LabeledDataset(np.stack(rows), np.array(labels, dtype=np.int64))


MICRO_DEFAULTS = dict(
    seed=11,
    optimizer="adam",
    lr=0.01,
    batch_size=8,
    epochs=2,
    split_ratio=0.25,
    vocab_size=40,
    embed_dim=6,
    conv_filters=4,
    kernel_size=3,
    pool_size=2,
    hidden=4,
    maxlen=8,
    spatial_dropout=0.0,
    dense_dropout=0.0,
)


def micro_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**MICRO_DEFAULTS, **overrides})


def split_checkpoint(data: bytes) -> tuple[dict, list[bytes]]:
    """A checkpoint file's header and each tensor's bytes, in order, read by
    the layout alone: 8 bytes of little-endian header length, the JSON
    header, then 8 bytes per float64 of each ``params`` shape."""
    length = int.from_bytes(data[:8], "little")
    header, at, tensors = json.loads(data[8:8 + length]), 8 + length, []
    for _, shape in header["params"]:
        tensors.append(data[at:at + 8 * math.prod(shape)])
        at += len(tensors[-1])
    assert at == len(data)
    return header, tensors


def join_checkpoint(header, tensors) -> bytes:
    """The checkpoint file for a header (a JSON value dumped with sorted
    keys, or bytes taken as they are) and the tensors' bytes."""
    text = header if isinstance(header, bytes) else json.dumps(header, sort_keys=True).encode()
    return len(text).to_bytes(8, "little") + text + b"".join(tensors)


@pytest.fixture
def fixture_csv() -> str:
    return str(FIXTURE_CSV)


@pytest.fixture
def separable_dataset() -> LabeledDataset:
    return make_separable_dataset()


class DenseReference:
    """SGD, RMSprop and Adam written out over whole tensors, ignoring any
    row ends: the reference the row-sparse optimizer step must match bit for
    bit."""

    def __init__(self, kind: str, lr: float, rho: float = 0.9, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.kind, self.lr, self.rho = kind, lr, rho
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: dict = {}
        self.v: dict = {}

    def apply_update(self, params, grads, ends=None):
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            if self.kind == "sgd":
                p -= self.lr * g
                continue
            v = self.v.setdefault(name, np.zeros_like(p))
            if self.kind == "rmsprop":
                v *= self.rho
                v += (1.0 - self.rho) * g * g
                p -= self.lr * g / (np.sqrt(v) + self.eps)
                continue
            m = self.m.setdefault(name, np.zeros_like(p))
            bc1 = 1.0 - self.beta1 ** self.t
            bc2 = 1.0 - self.beta2 ** self.t
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def assert_in_mapped_pages(arr: np.ndarray) -> None:
    """Where private anonymous maps exist, ``arr``'s memory is an
    ``mmap.mmap`` (``numeric.mapped_zeros``), not an ``np.zeros`` block:
    follow ``.base`` to the buffer ``np.frombuffer`` wrapped."""
    if not hasattr(mmap, "MAP_PRIVATE"):
        return
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    assert isinstance(arr, memoryview) and isinstance(arr.obj, mmap.mmap), type(arr)
