"""Checkpoint files, format 2: a JSON header, then raw tensor bytes.

The first 8 bytes give the header's length as a little-endian integer. The
header is UTF-8 JSON with sorted keys: ``format_version`` 2, ``config``,
``dtype`` (``"<f8"``), ``params`` (a list of ``[name, shape]`` pairs in
``named_params`` order) and ``vocabulary`` (``capacity`` and ``word_to_id``,
or null). Each tensor's little-endian float64 bytes follow in that order,
and the file ends there, so a round trip restores weights bit for bit on
any platform. The header holds no byte offsets: they follow from the shapes.

A save writes each tensor straight from the array's memory. A load reads the
file front to back, so a pipe loads the same way as a file: it reads the
header, checks a regular file's size against it before it builds anything,
rebuilds the model from the config, and reads each tensor with ``readinto``
straight into the model's own array.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys

import numpy as np

from .atomic import atomic_write
from .errors import DataError
from .rng import Rng
from .textdata import Vocabulary
from .training import ExperimentConfig

FORMAT_VERSION = 2
DTYPE = "<f8"

# The header is read this many bytes at a time, so a forged length fails at
# the end of the file instead of asking for that much memory at once.
HEADER_BLOCK = 1 << 20
# Words per call of the C JSON encoder: its list of pieces for the whole
# vocabulary would take about 4 MB at 20,000 words.
VOCAB_SLICE = 2048


def save_checkpoint(path: str, model, config: ExperimentConfig,
                    vocab: Vocabulary | None = None) -> None:
    """Write the checkpoint atomically: a failed write keeps the old file."""
    params = list(model.named_params())
    text = json.dumps({
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "dtype": DTYPE,
        "params": [[name, list(arr.shape)] for name, arr in params],
        "vocabulary": None if vocab is None else {"capacity": vocab.capacity,
                                                  "word_to_id": {}},
    }, sort_keys=True)
    if vocab is not None:  # word_to_id sorts last, so its "{}" is followed by "}}"
        words = sorted(vocab.word_to_id)
        text = text[:-3] + ", ".join(
            json.dumps({w: vocab.word_to_id[w] for w in words[i:i + VOCAB_SLICE]})[1:-1]
            for i in range(0, len(words), VOCAB_SLICE)) + text[-3:]
    header = text.encode("utf-8")
    with atomic_write(path, binary=True) as handle:
        handle.write(len(header).to_bytes(8, "little"))
        handle.write(header)
        for _, arr in params:  # a view, unless arr is not contiguous little-endian float64
            handle.write(np.ascontiguousarray(arr, dtype=DTYPE))


def _read_header(handle, path: str) -> dict:
    """The checked header. A regular file whose size differs from the one
    the header describes fails here, before the model is built."""
    prefix = handle.read(8)
    if len(prefix) < 8:
        raise DataError(f"checkpoint {path} ends inside its header length")
    length = int.from_bytes(prefix, "little")
    if prefix[:1] == b"{" and length >> 56:  # a format-1 JSON text; "{" alone is a valid low byte
        raise DataError(f"checkpoint {path} is format 1, which is no longer read; "
                        f"train the model again")
    info = os.fstat(handle.fileno())
    size = info.st_size if stat.S_ISREG(info.st_mode) else None
    if size is not None and 8 + length > size:
        raise DataError(f"checkpoint {path}: header length {length} runs past the end of the file")
    text = bytearray()
    while len(text) < length:
        block = handle.read(min(HEADER_BLOCK, length - len(text)))
        if not block:
            raise DataError(f"checkpoint {path} ends inside its header")
        text += block
    try:
        header = json.loads(text.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"checkpoint {path}: header is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path}: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise DataError(f"checkpoint {path}: header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format_version {version!r}")
    if header.get("dtype") != DTYPE:
        raise DataError(f"unsupported checkpoint dtype {header.get('dtype')!r}")
    if "config" not in header or "params" not in header:
        raise DataError("checkpoint is missing config or params")
    params = header["params"]
    if not isinstance(params, list) or not all(
            isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) for p in params):
        raise DataError("checkpoint params is not a list of [name, shape] pairs")
    for name, shape in params:
        if not isinstance(shape, list) or not all(type(k) is int and k >= 0 for k in shape):
            raise DataError(f"checkpoint tensor {name!r}: shape {shape!r} is not a list of "
                            f"non-negative ints")
    end = 8 + length + sum(np.dtype(DTYPE).itemsize * math.prod(shape) for _, shape in params)
    if size is not None and size != end:
        raise DataError(f"checkpoint {path} is {size} bytes; its header describes {end}")
    return header


def _read_tensors(handle, path: str, stored: list, expected: list) -> None:
    """Read each stored tensor into the model's array (C-contiguous float64)
    after checking that names, order and shapes match the model's. A short
    read, or a byte after the last tensor, is an error even from a pipe."""
    names, model_names = [name for name, _ in stored], [name for name, _ in expected]
    if names != model_names:
        raise DataError(f"checkpoint params do not match the model's names in order: "
                        f"missing={sorted(set(model_names) - set(names))} "
                        f"extra={sorted(set(names) - set(model_names))}")
    for (name, shape), (_, arr) in zip(stored, expected):
        if tuple(shape) != arr.shape:
            raise DataError(f"checkpoint tensor {name!r} has shape {tuple(shape)}, "
                            f"model expects {arr.shape}")
        if handle.readinto(memoryview(arr).cast("B")) != arr.nbytes:
            raise DataError(f"checkpoint {path} ends inside tensor {name!r}")
        if sys.byteorder != "little":
            arr.byteswap(inplace=True)
    if handle.read(1):
        raise DataError(f"checkpoint {path} has bytes after its last tensor")


def load_checkpoint(path: str):
    """Rebuild (model, config, vocab) from a checkpoint file.

    The model is constructed from the stored config and then every tensor
    is overwritten in place with the stored bytes.
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from None
    with handle:
        try:
            header = _read_header(handle, path)
            config = ExperimentConfig.from_dict(header["config"])
            model = config.build(Rng(config.seed).derive(0))
            _read_tensors(handle, path, header["params"], list(model.named_params()))
        except OSError as exc:
            raise DataError(f"cannot read checkpoint {path}: {exc}") from None

    vocab = None
    if header.get("vocabulary"):
        v = header["vocabulary"]
        try:
            vocab = Vocabulary({str(w): int(i) for w, i in v["word_to_id"].items()},
                               int(v["capacity"]))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"checkpoint vocabulary is malformed: {exc}") from None
    return model, config, vocab
