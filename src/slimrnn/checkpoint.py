"""Checkpoint files: JSON carrying config, vocabulary, and parameter blobs.

Every tensor is serialized as base64 over its little-endian float64 bytes,
so a save/load round trip restores weights bit for bit on any platform.

The text is one JSON object (``format_version``, ``config``, ``params`` as
name -> {shape, base64 data}, ``vocabulary`` or null) dumped with sorted keys
and indent 2, plus a newline. Neither direction holds the file's text or a
tensor's whole text. A save streams each tensor's base64 into the file
SAVE_CHUNK_BYTES of raw bytes at a time. A load reads the file twice,
LOAD_CHUNK_CHARS bytes at a time: once to find each long blob's byte span,
then to copy the rest into a skeleton, the JSON text with each long blob
replaced by a placeholder. It parses the skeleton, builds the model, and
decodes each blob from its span, LOAD_CHUNK_CHARS characters at a time,
strictly (any character outside the base64 alphabet, or misplaced padding,
is an error), straight into the model's own array. A short blob, or one
written with JSON escapes, is parsed with the skeleton and decoded from the
parsed string.
"""

from __future__ import annotations

import base64
import io
import json
import secrets
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

# A "data" string at least this long and free of JSON escapes is not parsed:
# the load notes where its text lies in the file and decodes it from there.
# Every weight matrix of the reference model is this long; its bias vectors
# and 1x128 head are not.
INLINE_CHARS = 1 << 13


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


def _blob_spans(handle) -> list[tuple[int, int]]:
    """Pass one: read the file, LOAD_CHUNK_CHARS bytes at a time and holding
    no text, for the (offset, length) of each streamed blob: the value of a
    ``"data"`` key of at least INLINE_CHARS characters and no escape, or one
    that the file ends inside."""
    spans, tail = [], b""  # tail: the last 4 bytes before the chunk
    base = pos = key = 0  # base: the chunk's file offset
    start = None  # file offset of the open string's first character
    while chunk := handle.read(LOAD_CHUNK_CHARS):
        while True:
            if start is None:  # between strings
                at = chunk.find(b'"', pos)
                if key:  # 1 after a "data" string, 2 after its colon (a value follows)
                    gap = chunk[pos:at if at >= 0 else None].strip(b" \t\n\r")
                    if key == 1 and gap[:1] == b":":
                        key, gap = 2, gap[1:]
                    key = 0 if gap else key
                if at < 0:
                    break
                start, escaped, pos = base + at + 1, False, at + 1
            # in a string, which ends at the first quote not escaped
            at = chunk.find(b'"', pos)
            while (slash := chunk.find(b"\\", pos, at if at >= 0 else None)) >= 0:
                escaped, pos = True, slash + 2  # skip the escaped character
                if pos > at >= 0:
                    at = chunk.find(b'"', pos)
            if at < 0:
                break
            length = base + at - start
            if key == 2 and not escaped and length >= INLINE_CHARS:
                spans.append((start, length))
            key = int(length == 4 and (tail + chunk[max(at - 4, 0):at])[-4:] == b"data")
            start, pos = None, at + 1
        base, pos = base + len(chunk), max(pos - len(chunk), 0)
        tail = (tail + chunk[-4:])[-4:]
    if start is not None and key == 2:  # the file ends inside a "data" value
        spans.append((start, base - start))
    return spans


def _skeleton(handle, token: str) -> tuple[str, dict[str, tuple[int, int]]]:
    """Pass two: (skeleton, spans) of a seekable checkpoint file. The
    skeleton is the file's text with each streamed blob replaced by a
    placeholder string, ``"\\u0000"`` + ``token`` + a count; ``spans`` maps
    each placeholder to the blob's (offset, length). A file cannot forge a
    placeholder, because ``token`` is drawn anew for each load, and the NUL
    that starts one sets it apart from any base64 text."""
    blobs = _blob_spans(handle)
    handle.seek(0)
    text, spans = bytearray(), {}
    for offset, length in blobs:
        text += handle.read(offset - handle.tell())
        placeholder = f"\0{token}{len(spans)}"
        spans[placeholder] = (offset, length)
        text += json.dumps(placeholder)[1:-1].encode("ascii")
        handle.seek(offset + length)
    text += handle.read()
    return text.decode("utf-8"), spans


def _decode_into(arr: np.ndarray, blob, name: str, handle,
                 spans: dict[str, tuple[int, int]]) -> None:
    """Overwrite ``arr`` (C-contiguous float64) with a stored tensor, after
    checking that the blob's shape and text length fit it. A placeholder's
    text is read from ``handle`` at its span."""
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
    span = spans.get(data) if isinstance(data, str) else None
    if span is not None:
        offset, length = span
        handle.seek(offset)
    else:
        length = len(data) if isinstance(data, str) else None
    if length != 4 * -(-out.nbytes // 3):
        raise DataError(
            f"checkpoint tensor {name!r}: data is not {out.nbytes} bytes of base64")
    for start in range(0, length, LOAD_CHUNK_CHARS):
        at = start // 4 * 3
        chunk = (data[start:start + LOAD_CHUNK_CHARS] if span is None
                 else handle.read(min(LOAD_CHUNK_CHARS, length - start)))
        try:
            raw = base64.b64decode(chunk, validate=True)
        except ValueError as exc:
            raise DataError(f"checkpoint tensor {name!r} is malformed: {exc}") from None
        if len(raw) != min(LOAD_CHUNK_CHARS // 4 * 3, out.nbytes - at):
            raise DataError(
                f"checkpoint tensor {name!r}: base64 decodes to the wrong number of bytes")
        out[at:at + len(raw)] = raw
    if sys.byteorder != "little":
        arr.byteswap(inplace=True)


def _read_skeleton(handle, path: str):
    """(payload, spans): the file's JSON, each streamed blob a placeholder."""
    try:
        text, spans = _skeleton(handle, secrets.token_hex(16))
        return json.loads(text), spans
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"checkpoint {path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from None


def load_checkpoint(path: str):
    """Rebuild (model, config, vocab) from a checkpoint file.

    The model is constructed from the stored config and then every tensor
    is overwritten in place with the stored bytes.
    """
    try:
        handle = open(path, "rb")
        if not handle.seekable():  # a pipe: held whole, since the load reads it twice
            with handle:
                handle = io.BytesIO(handle.read())
    except OSError as exc:
        raise DataError(f"cannot open checkpoint {path}: {exc}") from None
    with handle:
        payload, spans = _read_skeleton(handle, path)
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
        try:
            for name, arr in expected.items():
                _decode_into(arr, stored.pop(name), name, handle, spans)
        except OSError as exc:
            raise DataError(f"cannot read checkpoint {path}: {exc}") from None

    vocab = None
    if payload.get("vocabulary"):
        v = payload["vocabulary"]
        try:
            vocab = Vocabulary({str(w): int(i) for w, i in v["word_to_id"].items()},
                               int(v["capacity"]))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"checkpoint vocabulary is malformed: {exc}") from None
    return model, config, vocab
