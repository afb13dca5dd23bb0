"""Checkpoint files: JSON carrying config, vocabulary, and parameter blobs.

Every tensor is serialized as base64 over its little-endian float64 bytes,
so a save/load round trip restores weights bit for bit on any platform.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .atomic import atomic_write
from .errors import DataError
from .rng import Rng
from .textdata import Vocabulary
from .training import ExperimentConfig

FORMAT_VERSION = 1


def _encode_array(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii"),
    }


def _decode_array(blob: dict, name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(blob["data"])
        shape = tuple(blob["shape"])
        flat = np.frombuffer(raw, dtype="<f8")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint tensor {name!r} is malformed: {exc}") from None
    if flat.size != int(np.prod(shape, dtype=np.int64)):
        raise DataError(
            f"checkpoint tensor {name!r}: {flat.size} values do not fill shape {shape}")
    return flat.reshape(shape).astype(np.float64).copy()


def checkpoint_payload(model, config: ExperimentConfig,
                       vocab: Vocabulary | None = None) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "params": {name: _encode_array(arr) for name, arr in model.named_params()},
        "vocabulary": None,
    }
    if vocab is not None:
        payload["vocabulary"] = {
            "capacity": vocab.capacity,
            "word_to_id": vocab.word_to_id,
        }
    return payload


def save_checkpoint(path: str, model, config: ExperimentConfig,
                    vocab: Vocabulary | None = None) -> None:
    """Write the checkpoint atomically: a failed write keeps the old file."""
    with atomic_write(path) as handle:
        json.dump(checkpoint_payload(model, config, vocab), handle,
                  sort_keys=True, indent=2)
        handle.write("\n")


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

    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format_version {version!r}")
    if "config" not in payload or "params" not in payload:
        raise DataError("checkpoint is missing config or params")

    config = ExperimentConfig.from_dict(payload["config"])
    model = config.build(Rng(config.seed).derive(0))

    stored = payload["params"]
    expected = dict(model.named_params())
    missing = sorted(set(expected) - set(stored))
    extra = sorted(set(stored) - set(expected))
    if missing or extra:
        raise DataError(
            f"checkpoint params do not match the model: missing={missing} extra={extra}")
    for name, arr in expected.items():
        loaded = _decode_array(stored[name], name)
        if loaded.shape != arr.shape:
            raise DataError(
                f"checkpoint tensor {name!r} has shape {loaded.shape}, "
                f"model expects {arr.shape}")
        arr[...] = loaded

    vocab = None
    if payload.get("vocabulary"):
        v = payload["vocabulary"]
        try:
            vocab = Vocabulary({str(w): int(i) for w, i in v["word_to_id"].items()},
                               int(v["capacity"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"checkpoint vocabulary is malformed: {exc}") from None
    return model, config, vocab
