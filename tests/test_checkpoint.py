"""Checkpoint serialization: bit-exact restore and malformed-file handling."""

import contextlib
import hashlib
import json
import os
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import (join_checkpoint, make_separable_dataset, micro_config,
                      split_checkpoint)

from slimrnn import checkpoint
from slimrnn import (
    ConfigError,
    DataError,
    ExperimentConfig,
    Rng,
    Vocabulary,
    load_checkpoint,
    save_checkpoint,
    train,
)


def checkpoint_bytes(model, config: ExperimentConfig, vocab=None) -> bytes:
    """The file save_checkpoint must write, built in memory: the header
    through json.dumps (sorted keys), each tensor through ``tobytes``."""
    params = list(model.named_params())
    return join_checkpoint({
        "format_version": 2,
        "config": config.to_dict(),
        "dtype": "<f8",
        "params": [[name, list(arr.shape)] for name, arr in params],
        "vocabulary": None if vocab is None else {"capacity": vocab.capacity,
                                                  "word_to_id": vocab.word_to_id},
    }, [arr.astype("<f8").tobytes() for _, arr in params])


@pytest.fixture(scope="module")
def trained():
    config = micro_config(vocab_size=12, epochs=2)
    dataset = make_separable_dataset()
    model, _ = train(config, dataset)
    vocab = Vocabulary({"good": 1, "bad": 2}, capacity=12)
    return model, config, vocab, dataset


@pytest.fixture
def saved(trained, tmp_path):
    """(header, tensors' bytes) of the trained model's checkpoint."""
    model, config, vocab, _ = trained
    path = tmp_path / "saved.bin"
    save_checkpoint(str(path), model, config, vocab)
    return split_checkpoint(path.read_bytes())


def param_index(header, name: str) -> int:
    return [n for n, _ in header["params"]].index(name)


def load_bytes(tmp_path, data: bytes):
    path = tmp_path / "edited.bin"
    path.write_bytes(data)
    return load_checkpoint(str(path))


def load_from_pipe(tmp_path, data: bytes):
    """load_checkpoint of a named pipe that a thread fills with ``data``."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(data), daemon=True)
    writer.start()
    try:
        return load_checkpoint(str(pipe))
    finally:
        writer.join(timeout=60)
        assert not writer.is_alive()


def test_round_trip_is_bit_exact(trained, tmp_path):
    model, config, vocab, dataset = trained
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(str(path), model, config, vocab)
    restored, config2, vocab2 = load_checkpoint(str(path))

    assert config2 == config
    assert vocab2.word_to_id == vocab.word_to_id
    assert vocab2.capacity == vocab.capacity
    for (name_a, a), (name_b, b) in zip(model.named_params(),
                                        restored.named_params()):
        assert name_a == name_b
        np.testing.assert_array_equal(a, b)
    for seq in dataset.sequences[:10]:
        assert model.forward(seq) == restored.forward(seq)  # exact, not approx


def test_round_trip_without_vocabulary(trained, tmp_path):
    model, config, _, _ = trained
    path = tmp_path / "bare.bin"
    save_checkpoint(str(path), model, config)
    _, _, vocab = load_checkpoint(str(path))
    assert vocab is None


def test_header_is_plain_json(trained, saved):
    model, config, _, _ = trained
    header, tensors = saved
    assert header["format_version"] == 2
    assert header["dtype"] == "<f8"
    assert header["config"]["variant"] == config.variant
    assert header["params"] == [[name, list(arr.shape)] for name, arr in model.named_params()]
    assert header["params"][-1] == ["head.weights", [1, 8]]  # bidirectional tail doubles hidden=4
    assert tensors[-1] == dict(model.named_params())["head.weights"].astype("<f8").tobytes()


def test_save_is_atomic(trained, tmp_path, monkeypatch):
    """A write that fails inside a tensor keeps the old file and leaves no
    temporary file behind."""
    model, config, vocab, _ = trained
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(str(path), model, config, vocab)
    before = path.read_bytes()
    assert before == checkpoint_bytes(model, config, vocab)

    real_atomic_write = checkpoint.atomic_write
    writes = []

    @contextlib.contextmanager
    def failing_atomic_write(target, **kwargs):
        with real_atomic_write(target, **kwargs) as handle:
            def write(data):
                writes.append(data)
                if len(writes) == 4:  # after the length, the header and the first tensor
                    handle.write(bytes(data)[:5])
                    raise OSError("disk full")
                return handle.write(data)
            yield types.SimpleNamespace(write=write)

    monkeypatch.setattr(checkpoint, "atomic_write", failing_atomic_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(str(path), model, config, vocab)
    assert len(writes) == 4
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]


def test_missing_file():
    with pytest.raises(DataError):
        load_checkpoint("/no/such/checkpoint.bin")


def test_format_1_is_refused_by_name(saved, tmp_path):
    """A format 1 file is one JSON document, so its first byte is ``{``."""
    header, _ = saved
    with pytest.raises(DataError, match="format 1, which is no longer read"):
        load_bytes(tmp_path, json.dumps(header, sort_keys=True, indent=2).encode())


def test_header_length_with_a_brace_low_byte_loads(trained, tmp_path):
    """A header length of 123 mod 256 starts the file with ``{``, the byte
    that also opens a format 1 file; such a format 2 file still loads."""
    model, config, _, _ = trained
    for pad in range(256):
        vocab = Vocabulary({"good": 1, "bad": 2, "x" * pad: 3}, capacity=12)
        data = checkpoint_bytes(model, config, vocab)
        if data[:1] == b"{":
            break
    assert data[:1] == b"{"
    path = tmp_path / "brace.bin"
    save_checkpoint(str(path), model, config, vocab)
    assert path.read_bytes() == data
    restored, _, vocab2 = load_checkpoint(str(path))
    assert vocab2.word_to_id == vocab.word_to_id
    for (name, a), (_, b) in zip(model.named_params(), restored.named_params()):
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("edit, message", [
    (lambda h: json.dumps(h).encode().replace(b'"dtype"', b'"\xff"'), "not UTF-8"),
    (lambda h: b"not json {{{", "not valid JSON"),
    (lambda h: [h], "not a JSON object"),
    (lambda h: {**h, "dtype": ">f8"}, "dtype"),
    (lambda h: {**h, "dtype": "<f4"}, "dtype"),
    (lambda h: {k: v for k, v in h.items() if k != "config"}, "missing config"),
    (lambda h: {**h, "params": 5}, "pairs"),
    (lambda h: {**h, "params": [p + [0] for p in h["params"]]}, "pairs"),
    (lambda h: {**h, "params": [[1, s] for _, s in h["params"]]}, "pairs"),
], ids=["not-utf8", "not-json", "not-object", "big-endian", "float32", "no-config",
        "params-number", "triples", "name-number"])
def test_damaged_header_detected(saved, tmp_path, edit, message):
    header, tensors = saved
    with pytest.raises(DataError, match=message):
        load_bytes(tmp_path, join_checkpoint(edit(header), tensors))


def test_bad_config_is_a_config_error(saved, tmp_path):
    header, tensors = saved
    with pytest.raises(ConfigError):
        load_bytes(tmp_path, join_checkpoint({**header, "config": 5}, tensors))


def test_wrong_version(saved, tmp_path):
    header, tensors = saved
    with pytest.raises(DataError) as err:
        load_bytes(tmp_path, join_checkpoint({**header, "format_version": 99}, tensors))
    assert "99" in str(err.value)


def test_missing_tensor_detected(saved, tmp_path):
    header, tensors = saved
    at = param_index(header, "rnn.W_c")
    del header["params"][at], tensors[at]
    with pytest.raises(DataError) as err:
        load_bytes(tmp_path, join_checkpoint(header, tensors))
    assert "rnn.W_c" in str(err.value)


@pytest.mark.parametrize("edit", [
    lambda params, tensors: (params + [["extra", [1]]], tensors + [bytes(8)]),
    lambda params, tensors: (params[1::-1] + params[2:], tensors[1::-1] + tensors[2:]),
    lambda params, tensors: (params[:1] + params, tensors[:1] + tensors),
], ids=["extra", "reordered", "repeated"])
def test_names_must_match_the_model_in_order(saved, tmp_path, edit):
    header, tensors = saved
    params, tensors = edit(header["params"], tensors)
    with pytest.raises(DataError, match="names in order"):
        load_bytes(tmp_path, join_checkpoint({**header, "params": params}, tensors))


# head.weights holds 8 floats. The file-size check catches only "too-large";
# each other shape must fail a check on the shape itself.
@pytest.mark.parametrize("shape, message", [
    ([8, 1], "model expects"),
    ([1.0, 8], "non-negative ints"),  # (1.0, 8) == (1, 8) in Python
    ([-1, -8], "non-negative ints"),
    ("ab", "non-negative ints"),
    ([[1], 8], "non-negative ints"),
    ([True, 8], "non-negative ints"),
    ([2, 8], "header describes"),
], ids=["transposed", "float", "negative", "string", "nested", "bool", "too-large"])
def test_tampered_shape_detected(saved, tmp_path, shape, message):
    header, tensors = saved
    header["params"][param_index(header, "head.weights")][1] = shape
    with pytest.raises(DataError, match=message):
        load_bytes(tmp_path, join_checkpoint(header, tensors))


@pytest.mark.parametrize("source", [
    "file",
    pytest.param("pipe", marks=pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                                  reason="needs named pipes")),
])
@pytest.mark.parametrize("damage", [
    lambda data: data[:-1],
    lambda data: data + b"\0",
    lambda data: (1 << 62).to_bytes(8, "little") + data[8:],
    lambda data: data[:5],
], ids=["one-byte-short", "one-trailing-byte", "forged-header-length", "inside-length"])
def test_wrong_byte_count_detected(saved, tmp_path, source, damage):
    """A file checks its size against the header before the model is built;
    a pipe cannot, and fails at the short read or the extra byte instead."""
    data = damage(join_checkpoint(*saved))
    with pytest.raises(DataError):
        if source == "pipe":
            load_from_pipe(tmp_path, data)
        else:
            load_bytes(tmp_path, data)


def test_words_with_quotes_and_backslashes_round_trip(trained, tmp_path):
    """Escaped quotes, backslashes and non-ASCII words survive the header."""
    model, config, _, _ = trained
    words = ['"data": "', "\\", 'x\\"', "data", '\\"data\\"', "café", "ÿ "]
    vocab = Vocabulary({word: i for i, word in enumerate(words, 1)}, capacity=12)
    path = tmp_path / "words.bin"
    save_checkpoint(str(path), model, config, vocab)
    restored, _, vocab2 = load_checkpoint(str(path))
    assert vocab2.word_to_id == vocab.word_to_id
    for (name, a), (_, b) in zip(model.named_params(), restored.named_params()):
        assert a.tobytes() == b.tobytes(), name


def test_unusual_but_valid_weights_round_trip(tmp_path):
    """Denormals, negative zero, and extreme magnitudes all survive."""
    config = micro_config(vocab_size=12)
    model = config.build(Rng(config.seed).derive(0))
    table = dict(model.named_params())["embedding.table"]
    table[0, 0] = 5e-324
    table[0, 1] = -0.0
    table[1, 0] = 1e308
    path = tmp_path / "edge.bin"
    save_checkpoint(str(path), model, config)
    restored, _, _ = load_checkpoint(str(path))
    got = dict(restored.named_params())["embedding.table"]
    assert got[0, 0] == 5e-324
    assert np.signbit(got[0, 1])
    assert got[1, 0] == 1e308


GOLDEN = Path(__file__).parent / "data" / "micro_checkpoint.bin"
GOLDEN_TENSORS_SHA256 = "e56f633efa38fff2fb99cfa7ec5d0db69d37fa82816c287f68994783d73f45c8"


def test_golden_micro_checkpoint(tmp_path):
    """The committed file was written by save_checkpoint from micro_config()'s
    initial model, ``config.build(Rng(config.seed).derive(0))``, with the
    vocabulary {"good": 1, "bad": 2, "café": 3} at capacity 40. It loads to
    the same tensors and saves to the same bytes, so any change to the file
    format shows here and has to be made on purpose."""
    model, config, vocab = load_checkpoint(str(GOLDEN))
    assert config == micro_config()
    assert vocab.word_to_id == {"good": 1, "bad": 2, "café": 3}
    tensors = b"".join(arr.astype("<f8").tobytes() for _, arr in model.named_params())
    assert hashlib.sha256(tensors).hexdigest() == GOLDEN_TENSORS_SHA256
    path = tmp_path / "again.bin"
    save_checkpoint(str(path), model, config, vocab)
    assert path.read_bytes() == GOLDEN.read_bytes()


# -- the reference-size model: memory and bytes ------------------------------

MB = 1 << 20


def traced_peak(fn):
    """(fn(), peak bytes that tracemalloc saw allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nbytes(arrays) -> int:
    return sum(arr.nbytes for arr in arrays)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The paper's reference model (20000x128 embedding, 2.7M parameters),
    a full vocabulary, and its checkpoint file."""
    config = ExperimentConfig(seed=3)
    model = config.build(Rng(config.seed).derive(0))
    vocab = Vocabulary({f"w{i}": i for i in range(1, config.vocab_size)},
                       config.vocab_size)
    path = tmp_path_factory.mktemp("reference") / "checkpoint.bin"
    save_checkpoint(str(path), model, config, vocab)
    return model, config, vocab, path


def test_reference_save_matches_json_dumps(reference):
    model, config, vocab, path = reference
    assert path.read_bytes() == checkpoint_bytes(model, config, vocab)


def test_build_holds_one_copy_of_each_tensor():
    config = ExperimentConfig(seed=3)
    model, peak = traced_peak(lambda: config.build(Rng(config.seed).derive(0)))
    live = nbytes(arr for _, arr in model.named_params()) + nbytes(model.grads.values())
    assert peak <= live + 2 * MB, (peak / MB, live / MB)


def test_save_streams_every_tensor(reference, tmp_path):
    model, config, vocab, _ = reference
    _, peak = traced_peak(
        lambda: save_checkpoint(str(tmp_path / "c.bin"), model, config, vocab))
    assert peak < 4 * MB, peak / MB


@pytest.mark.parametrize("damage", [
    lambda data: data[:len(data) // 2],
    lambda data: (1 << 62).to_bytes(8, "little") + data[8:],
], ids=["truncated-inside-table", "forged-header-length"])
def test_damaged_reference_file_fails_before_the_build(reference, tmp_path, damage):
    """The size check comes before the model is built, so the reference
    file cut short inside its 20 MB table, or with a header length past its
    end, fails with DataError holding little more than the header."""
    path = tmp_path / "damaged.bin"
    path.write_bytes(damage(reference[3].read_bytes()))
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * MB, peak / MB


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("fixture", ["trained", "reference"])
def test_load_from_a_pipe(request, tmp_path, fixture):
    """A pipe cannot seek or report its size; the load reads it in order
    and gets the same weights as from the file."""
    model, config, vocab = request.getfixturevalue(fixture)[:3]
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(str(path), model, config, vocab)
    restored, _, vocab2 = load_from_pipe(tmp_path, path.read_bytes())
    assert vocab2.word_to_id == vocab.word_to_id
    for (name, a), (_, b) in zip(model.named_params(), restored.named_params()):
        assert a.tobytes() == b.tobytes(), name


def test_load_decodes_in_place(reference):
    """The load holds neither the file nor a copy of a tensor: about the new
    model's parameters and the header."""
    model, _, _, path = reference
    (loaded, _, _), peak = traced_peak(lambda: load_checkpoint(str(path)))
    params = nbytes(arr for _, arr in loaded.named_params())
    assert peak <= params + 8 * MB, (peak / MB, params / MB)
    for (name, a), (_, b) in zip(model.named_params(), loaded.named_params()):
        assert a.tobytes() == b.tobytes(), name
