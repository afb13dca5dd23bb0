"""Checkpoint files: JSON carrying config, vocabulary, and parameter blobs.

Every tensor is serialized as base64 over its little-endian float64 bytes,
so a save/load round trip restores weights bit for bit on any platform.

The text is one JSON object (``format_version``, ``config``, ``params`` as
name -> {shape, base64 data}, ``vocabulary`` or null) dumped with sorted keys
and indent 2, plus a newline. Neither direction holds a tensor's whole text
next to its array. A save streams each tensor's base64 into the file
SAVE_CHUNK_BYTES of raw bytes at a time. A load decodes each blob
LOAD_CHUNK_CHARS characters at a time, strictly (any character outside the
base64 alphabet, or misplaced padding, is an error), straight into the new
model's own array, and drops the blob's text once it is decoded.
"""

from __future__ import annotations

import base64
import json
import sys

import numpy as np

from .atomic import atomic_write
from .errors import DataError
from .rng import Rng
from .textdata import Vocabulary
from .training import ExperimentConfig

FORMAT_VERSION = 1

# Both multiples of a base64 quantum (3 bytes, 4 characters), so every chunk
# but a tensor's last encodes or decodes without padding.
SAVE_CHUNK_BYTES = 3 << 16
LOAD_CHUNK_CHARS = 4 << 16


def _le_bytes(arr: np.ndarray) -> np.ndarray:
    """The tensor's little-endian float64 bytes; a view when ``arr`` already
    is contiguous little-endian float64."""
    return np.ascontiguousarray(arr, dtype="<f8").reshape(-1).view(np.uint8)


def _payload(model, config: ExperimentConfig, vocab: Vocabulary | None) -> dict:
    """The checkpoint object, each tensor's data still its array."""
    return {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "params": {name: {"shape": list(arr.shape), "data": arr}
                   for name, arr in model.named_params()},
        "vocabulary": None if vocab is None else {"capacity": vocab.capacity,
                                                  "word_to_id": vocab.word_to_id},
    }


def _write_base64(handle, arr: np.ndarray) -> None:
    raw = _le_bytes(arr)
    for start in range(0, raw.size, SAVE_CHUNK_BYTES):
        handle.write(base64.b64encode(raw[start:start + SAVE_CHUNK_BYTES]).decode("ascii"))


def _write_json(handle, payload: dict) -> None:
    """``json.dump(payload, handle, sort_keys=True, indent=2)`` for a payload
    whose tensor data are still arrays, each written as its base64 string.

    The encoder is a generator that calls ``default`` for an array just
    before it yields that value's text: here the empty string's ``""``,
    which is replaced by the quoted, streamed base64.
    """
    pending = []

    def defer(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        pending.append(obj)
        return ""

    for chunk in json.JSONEncoder(sort_keys=True, indent=2, default=defer).iterencode(payload):
        if pending:
            handle.write('"')
            _write_base64(handle, pending.pop())
            handle.write('"')
        else:
            handle.write(chunk)


def save_checkpoint(path: str, model, config: ExperimentConfig,
                    vocab: Vocabulary | None = None) -> None:
    """Write the checkpoint atomically: a failed write keeps the old file."""
    with atomic_write(path) as handle:
        _write_json(handle, _payload(model, config, vocab))
        handle.write("\n")


def _decode_into(arr: np.ndarray, blob, name: str) -> None:
    """Overwrite ``arr`` (C-contiguous float64) with a stored tensor, after
    checking that the blob's shape and text length fit it."""
    if not isinstance(blob, dict):
        raise DataError(f"checkpoint tensor {name!r} is not an object")
    shape, data = blob.get("shape"), blob.get("data")
    if not isinstance(shape, list) or not all(type(k) is int and k >= 0 for k in shape):
        raise DataError(
            f"checkpoint tensor {name!r}: shape {shape!r} is not a list of "
            f"non-negative ints")
    if tuple(shape) != arr.shape:
        raise DataError(
            f"checkpoint tensor {name!r} has shape {tuple(shape)}, "
            f"model expects {arr.shape}")
    out = memoryview(arr).cast("B")
    if not isinstance(data, str) or len(data) != 4 * -(-out.nbytes // 3):
        raise DataError(
            f"checkpoint tensor {name!r}: data is not {out.nbytes} bytes of base64")
    for start in range(0, len(data), LOAD_CHUNK_CHARS):
        at = start // 4 * 3
        try:
            raw = base64.b64decode(data[start:start + LOAD_CHUNK_CHARS], validate=True)
        except ValueError as exc:
            raise DataError(f"checkpoint tensor {name!r} is malformed: {exc}") from None
        if len(raw) != min(LOAD_CHUNK_CHARS // 4 * 3, out.nbytes - at):
            raise DataError(
                f"checkpoint tensor {name!r}: base64 decodes to the wrong number of bytes")
        out[at:at + len(raw)] = raw
    if sys.byteorder != "little":
        arr.byteswap(inplace=True)


def load_checkpoint(path: str):
    """Rebuild (model, config, vocab) from a checkpoint file.

    The model is constructed from the stored config and then every tensor
    is overwritten in place with the stored bytes.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from None

    if not isinstance(payload, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format_version {version!r}")
    if "config" not in payload or "params" not in payload:
        raise DataError("checkpoint is missing config or params")
    stored = payload.pop("params")
    if not isinstance(stored, dict):
        raise DataError("checkpoint params is not an object")

    config = ExperimentConfig.from_dict(payload["config"])
    model = config.build(Rng(config.seed).derive(0))

    expected = dict(model.named_params())
    missing = sorted(set(expected) - set(stored))
    extra = sorted(set(stored) - set(expected))
    if missing or extra:
        raise DataError(
            f"checkpoint params do not match the model: missing={missing} extra={extra}")
    for name, arr in expected.items():
        _decode_into(arr, stored.pop(name), name)

    vocab = None
    if payload.get("vocabulary"):
        v = payload["vocabulary"]
        try:
            vocab = Vocabulary({str(w): int(i) for w, i in v["word_to_id"].items()},
                               int(v["capacity"]))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"checkpoint vocabulary is malformed: {exc}") from None
    return model, config, vocab
