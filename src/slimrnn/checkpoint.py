"""Checkpoint files: JSON carrying config, vocabulary, and parameter blobs.

Every tensor is serialized as base64 over its little-endian float64 bytes,
so a save/load round trip restores weights bit for bit on any platform.

The text is one JSON object (``format_version``, ``config``, ``params`` as
name -> {shape, base64 data}, ``vocabulary`` or null) dumped with sorted keys
and indent 2, plus a newline. Neither direction holds the file's text or a
tensor's whole text. A save streams each tensor's base64 into the file
SAVE_CHUNK_BYTES of raw bytes at a time. A load streams too: it reads the
file once, LOAD_CHUNK_CHARS bytes at a time, into a skeleton, the JSON text
with each long blob replaced by a placeholder and the blob's byte span in
the file noted. It parses the skeleton, builds the model, and decodes each
blob from its span, LOAD_CHUNK_CHARS characters at a time, strictly (any
character outside the base64 alphabet, or misplaced padding, is an error),
straight into the model's own array. A short blob, or one written with JSON
escapes, is parsed with the skeleton and decoded from the parsed string.
"""

from __future__ import annotations

import base64
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


_JSON_WS = b" \t\n\r"


def _after_data_key(state: int, gap: bytes) -> int:
    """The key state after ``gap``, text between two strings: 1 right after
    a ``"data"`` string, 2 once a colon has followed it (the next string is
    its value), 0 on anything else."""
    gap = gap.strip(_JSON_WS)
    if state == 1 and gap[:1] == b":":
        state, gap = 2, gap[1:]
    return 0 if gap else state


def _skeleton(handle, token: str) -> tuple[str, dict[str, tuple[int, int]]]:
    """Read the checkpoint file once, LOAD_CHUNK_CHARS bytes at a time, into
    (skeleton, spans).

    The skeleton is the file's text with each streamed blob (the value of a
    ``"data"`` key of at least INLINE_CHARS characters and no escape)
    replaced by a placeholder string, ``"\\u0000"`` + ``token`` + a count.
    ``spans`` maps each placeholder to the (offset, length) of the text it
    replaced. A file cannot forge a placeholder, because ``token`` is drawn
    anew for each load, and the NUL that starts one sets it apart from any
    base64 text. String ends are found with ``bytearray.find``; of a
    streamed blob only the current chunk is held.
    """
    text, spans, buf = bytearray(), {}, bytearray()
    base = 0  # file offset of buf[0]; buf holds what is read but not yet moved on

    def read() -> bool:
        chunk = handle.read(LOAD_CHUNK_CHARS)
        buf.extend(chunk)
        return bool(chunk)

    def take(n: int, keep: bool = True) -> None:
        """Move buf[:n] into the skeleton, or drop it."""
        nonlocal base
        if keep:
            text.extend(buf[:n])
        del buf[:n]
        base += n

    pos = key = 0
    while True:
        quote = buf.find(b'"', pos)
        if quote < 0:
            key = key and _after_data_key(key, buf[pos:])
            take(len(buf))
            pos = 0
            if read():
                continue
            return text.decode("utf-8"), spans
        key = key and _after_data_key(key, buf[pos:quote])
        stream = key == 2
        if stream:
            take(quote + 1)
        begin = 0 if stream else quote + 1  # the string's first character in buf
        offset, pos = base + begin, begin
        while True:
            end = buf.find(b'"', pos)
            if stream and buf.find(b"\\", pos, len(buf) if end < 0 else end) >= 0:
                stream = False  # an escape: keep the string inline
                if base != offset:  # read the dropped part again
                    handle.seek(offset)
                    take(len(buf), keep=False)
                    base, pos = offset, 0
                    read()
                    continue
            if end >= 0:
                start = end
                while start > begin and buf[start - 1] == 0x5C:  # a backslash
                    start -= 1
                if (end - start) % 2 == 0:
                    break
                pos = end + 1
                continue
            if stream and base + len(buf) - offset >= INLINE_CHARS:
                take(len(buf), keep=False)
            else:
                take(begin)
                begin = 0
            pos = len(buf)
            if not read():  # the file ends inside the string
                take(len(buf))
                return text.decode("utf-8"), spans
        length = base + end - offset
        key = int(length == 4 and buf[end - 4:end] == b"data")
        if stream and length >= INLINE_CHARS:
            placeholder = f"\0{token}{len(spans)}"
            spans[placeholder] = (offset, length)
            text.extend(json.dumps(placeholder)[1:].encode("ascii"))
            take(end + 1, keep=False)
            pos = 0
        else:
            pos = end + 1


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
