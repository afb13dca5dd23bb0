"""Checkpoint serialization: bit-exact restore and malformed-file handling."""

import base64
import io
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import make_separable_dataset, micro_config

from slimrnn import checkpoint
from slimrnn import (
    DataError,
    ExperimentConfig,
    Rng,
    Vocabulary,
    load_checkpoint,
    save_checkpoint,
    train,
)


def checkpoint_payload(model, config: ExperimentConfig, vocab=None) -> dict:
    """The checkpoint as one JSON-ready dict, every tensor's base64 text in
    memory: json.dumps of it (sorted keys, indent 2) plus a newline is the
    text save_checkpoint must write."""
    return {
        "format_version": checkpoint.FORMAT_VERSION,
        "config": config.to_dict(),
        "params": {name: {"shape": list(arr.shape),
                          "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}
                   for name, arr in model.named_params()},
        "vocabulary": None if vocab is None else {"capacity": vocab.capacity,
                                                  "word_to_id": vocab.word_to_id},
    }


@pytest.fixture(scope="module")
def trained():
    config = micro_config(vocab_size=12, epochs=2)
    dataset = make_separable_dataset()
    model, _ = train(config, dataset)
    vocab = Vocabulary({"good": 1, "bad": 2}, capacity=12)
    return model, config, vocab, dataset


def test_round_trip_is_bit_exact(trained, tmp_path):
    model, config, vocab, dataset = trained
    path = tmp_path / "checkpoint.json"
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
    path = tmp_path / "bare.json"
    save_checkpoint(str(path), model, config)
    _, _, vocab = load_checkpoint(str(path))
    assert vocab is None


def test_payload_is_plain_json(trained, tmp_path):
    model, config, vocab, _ = trained
    path = tmp_path / "inspect.json"
    save_checkpoint(str(path), model, config, vocab)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 1
    assert payload["config"]["variant"] == config.variant
    blob = payload["params"]["head.weights"]
    assert blob["shape"] == [1, 8]  # bidirectional tail doubles hidden=4
    assert isinstance(blob["data"], str)


def test_save_is_atomic(trained, tmp_path, monkeypatch):
    model, config, vocab, _ = trained
    path = tmp_path / "checkpoint.json"
    save_checkpoint(str(path), model, config, vocab)
    before = path.read_bytes()
    payload = checkpoint_payload(model, config, vocab)
    assert before == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()

    real_b64encode = base64.b64encode
    chunks = []

    def failing(raw):
        chunks.append(raw)
        if len(chunks) == 5:  # conv.bias, the first tensor written, has 11
            raise OSError("disk full")
        return real_b64encode(raw)

    monkeypatch.setattr(checkpoint, "SAVE_CHUNK_BYTES", 3)
    monkeypatch.setattr(checkpoint.base64, "b64encode", failing)
    with pytest.raises(OSError):
        save_checkpoint(str(path), model, config, vocab)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]


@pytest.mark.parametrize("inline_chars", [checkpoint.INLINE_CHARS, 4],
                         ids=["inline", "streamed"])
@pytest.mark.parametrize("save_bytes, load_chars", [(3, 4), (6, 8), (9, 4), (3, 12)])
def test_chunk_sizes_do_not_change_the_file_or_the_weights(trained, tmp_path, monkeypatch,
                                                          save_bytes, load_chars,
                                                          inline_chars):
    model, config, vocab, _ = trained
    reference = tmp_path / "reference.json"
    save_checkpoint(str(reference), model, config, vocab)
    monkeypatch.setattr(checkpoint, "SAVE_CHUNK_BYTES", save_bytes)
    monkeypatch.setattr(checkpoint, "LOAD_CHUNK_CHARS", load_chars)
    monkeypatch.setattr(checkpoint, "INLINE_CHARS", inline_chars)
    path = tmp_path / "chunked.json"
    save_checkpoint(str(path), model, config, vocab)
    assert path.read_bytes() == reference.read_bytes()
    restored, _, _ = load_checkpoint(str(path))
    for (_, a), (_, b) in zip(model.named_params(), restored.named_params()):
        assert a.tobytes() == b.tobytes()


def test_missing_file():
    with pytest.raises(DataError):
        load_checkpoint("/no/such/checkpoint.json")


def test_not_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json {{{")
    with pytest.raises(DataError):
        load_checkpoint(str(path))


def test_wrong_version(trained, tmp_path):
    model, config, vocab, _ = trained
    path = tmp_path / "version.json"
    save_checkpoint(str(path), model, config, vocab)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError) as err:
        load_checkpoint(str(path))
    assert "99" in str(err.value)


def test_missing_tensor_detected(trained, tmp_path):
    model, config, vocab, _ = trained
    path = tmp_path / "missing.json"
    save_checkpoint(str(path), model, config, vocab)
    payload = json.loads(path.read_text())
    del payload["params"]["rnn.W_c"]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError) as err:
        load_checkpoint(str(path))
    assert "rnn.W_c" in str(err.value)


def test_tampered_shape_detected(trained, tmp_path):
    model, config, vocab, _ = trained
    path = tmp_path / "shape.json"
    save_checkpoint(str(path), model, config, vocab)
    payload = json.loads(path.read_text())
    payload["params"]["head.bias"]["shape"] = [2]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError):
        load_checkpoint(str(path))


# A streamed blob is decoded from the file; an inline one, or one with a
# JSON escape (such as the NUL that starts a placeholder), from the parsed text.
@pytest.mark.parametrize("inline_chars", [checkpoint.INLINE_CHARS, 4],
                         ids=["inline", "streamed"])
@pytest.mark.parametrize("tamper", [
    lambda data: data[: len(data) // 2],  # truncated
    lambda data: data[:4] + "!" + data[5:],  # outside the alphabet, same length
    lambda data: data[:4] + "A===" + data[8:],  # padding inside the data
    lambda data: data[:-4] + "AAAA",  # 3 bytes where the last quantum holds fewer
    lambda data: data[:4] + "\u00e9" + data[5:],  # a non-ASCII character
    lambda data: "\0" + data[1:],  # looks like a placeholder
], ids=["truncated", "bad-character", "inner-padding", "overlong-tail", "non-ascii",
        "placeholder"])
def test_tampered_blob_detected(trained, tmp_path, monkeypatch, tamper, inline_chars):
    model, config, vocab, _ = trained
    path = tmp_path / "tampered.json"
    save_checkpoint(str(path), model, config, vocab)
    payload = json.loads(path.read_text())
    blob = payload["params"]["head.weights"]
    blob["data"] = tamper(blob["data"])
    path.write_bytes(json.dumps(payload, ensure_ascii=False).encode())
    monkeypatch.setattr(checkpoint, "INLINE_CHARS", inline_chars)
    with pytest.raises(DataError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("fixture, damage", [
    pytest.param("trained", lambda text, at: text[:at], id="file-truncated"),
    pytest.param("trained", lambda text, at: text[:at] + b"\xff" + text[at + 1:],
                 id="not-utf8"),
    pytest.param("reference", lambda text, at: text[:at], id="reference-file-truncated"),
])
def test_file_damaged_inside_a_streamed_blob(request, tmp_path, monkeypatch, fixture, damage):
    """The load fails with DataError, and a file cut inside a blob is not
    held: the reference file cut inside its 27 MB table stays under 4 MB."""
    model, config, vocab = request.getfixturevalue(fixture)[:3]
    path = tmp_path / "damaged.json"
    save_checkpoint(str(path), model, config, vocab)
    text = path.read_bytes()
    start = text.index(b'"data": "', text.index(b'"embedding.table"')) + len(b'"data": "')
    # 100 characters into the micro table, or halfway into the reference one
    at = start + 100 if fixture == "trained" else (start + text.index(b'"', start)) // 2
    path.write_bytes(damage(text, at))
    if fixture == "trained":
        monkeypatch.setattr(checkpoint, "INLINE_CHARS", 4)
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * MB, peak / MB


@pytest.mark.parametrize("limits", [(None, None), (8, 16)], ids=["default", "small-chunks"])
@pytest.mark.parametrize("rewrite", [
    lambda text: json.dumps(json.loads(text)).encode(),
    lambda text: text.replace(b"/", b"\\/"),
    lambda text: text.replace(b"A", b"\\u0041"),
], ids=["compact", "escaped-slash", "escaped-A"])
def test_rewritten_file_loads_the_same_weights(trained, tmp_path, monkeypatch,
                                               rewrite, limits):
    """The same JSON written differently decodes to the same bytes, whether
    each blob is streamed, kept inline for its escapes, or read again after
    its first chunks were dropped."""
    model, config, vocab, _ = trained
    path = tmp_path / "rewritten.json"
    save_checkpoint(str(path), model, config, vocab)
    path.write_bytes(rewrite(path.read_bytes()))
    if limits[0] is not None:
        monkeypatch.setattr(checkpoint, "LOAD_CHUNK_CHARS", limits[0])
        monkeypatch.setattr(checkpoint, "INLINE_CHARS", limits[1])
    restored, _, vocab2 = load_checkpoint(str(path))
    assert vocab2.word_to_id == vocab.word_to_id
    for (name, a), (_, b) in zip(model.named_params(), restored.named_params()):
        assert a.tobytes() == b.tobytes(), name


def test_skeleton_replaces_only_long_plain_data_values(monkeypatch):
    """Only the value of a "data" key that is long enough and has no escape
    becomes a placeholder, and its span covers its characters exactly."""
    text = (b'{"data": "AAAAAAAA", "a\\"b\\"data": "BBBBBBBB", "abcd": "CCCCCCCC", '
            b'"x": ["data", "DDDDDDDD"], "y": {"data": "EE"}, "z": {"data" :\n"F\\/FFFFFF"}, '
            b'"w": {"data" :\n "GGGGGGGGGG"}}')
    monkeypatch.setattr(checkpoint, "LOAD_CHUNK_CHARS", 4)
    monkeypatch.setattr(checkpoint, "INLINE_CHARS", 4)
    skeleton, spans = checkpoint._skeleton(io.BytesIO(text), "T")
    assert json.loads(skeleton) == {
        "data": "\0T0", "a\"b\"data": "BBBBBBBB", "abcd": "CCCCCCCC",
        "x": ["data", "DDDDDDDD"], "y": {"data": "EE"}, "z": {"data": "F/FFFFFF"},
        "w": {"data": "\0T1"}}
    assert [text[at:at + n] for at, n in spans.values()] == [b"AAAAAAAA", b"GGGGGGGGGG"]


def test_words_with_quotes_and_backslashes_round_trip(trained, tmp_path, monkeypatch):
    """Escaped quotes and backslashes, and words that spell a "data" key,
    do not end a string early or start a streamed blob."""
    model, config, _, _ = trained
    words = ['"data": "', "\\", 'x\\"', "data", '\\"data\\"']
    vocab = Vocabulary({word: i for i, word in enumerate(words, 1)}, capacity=12)
    path = tmp_path / "words.json"
    save_checkpoint(str(path), model, config, vocab)
    monkeypatch.setattr(checkpoint, "LOAD_CHUNK_CHARS", 4)
    monkeypatch.setattr(checkpoint, "INLINE_CHARS", 4)
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
    path = tmp_path / "edge.json"
    save_checkpoint(str(path), model, config)
    restored, _, _ = load_checkpoint(str(path))
    got = dict(restored.named_params())["embedding.table"]
    assert got[0, 0] == 5e-324
    assert np.signbit(got[0, 1])
    assert got[1, 0] == 1e308


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
    path = tmp_path_factory.mktemp("reference") / "checkpoint.json"
    save_checkpoint(str(path), model, config, vocab)
    return model, config, vocab, path


def test_reference_save_matches_json_dumps(reference):
    model, config, vocab, path = reference
    payload = checkpoint_payload(model, config, vocab)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    table = payload["params"]["embedding.table"]["data"]
    assert len(table) > 10 * checkpoint.SAVE_CHUNK_BYTES  # spans many chunks
    assert path.read_bytes() == text.encode()


def test_build_holds_one_copy_of_each_tensor():
    config = ExperimentConfig(seed=3)
    model, peak = traced_peak(lambda: config.build(Rng(config.seed).derive(0)))
    live = nbytes(arr for _, arr in model.named_params()) + nbytes(model.grads.values())
    assert peak <= live + 2 * MB, (peak / MB, live / MB)


def test_save_streams_every_tensor(reference, tmp_path):
    model, config, vocab, _ = reference
    _, peak = traced_peak(
        lambda: save_checkpoint(str(tmp_path / "c.json"), model, config, vocab))
    assert peak < 4 * MB, peak / MB


def test_skeleton_holds_no_blob(reference):
    """Reading the reference file into its skeleton holds the vocabulary's
    text and a chunk or two, never the 27 MB table blob."""
    _, _, _, path = reference
    with open(path, "rb") as handle:
        (_, spans), peak = traced_peak(lambda: checkpoint._skeleton(handle, "t"))
    assert max(n for _, n in spans.values()) > 10 * checkpoint.LOAD_CHUNK_CHARS
    assert peak < 4 * MB, peak / MB


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("fixture", ["trained", "reference"])
def test_load_from_a_pipe(request, tmp_path, fixture):
    """A pipe cannot seek, so the load reads it whole first: it loads the
    same weights as the file."""
    model, config, vocab = request.getfixturevalue(fixture)[:3]
    path, pipe = tmp_path / "checkpoint.json", tmp_path / "pipe"
    save_checkpoint(str(path), model, config, vocab)
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    restored, _, vocab2 = load_checkpoint(str(pipe))
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert vocab2.word_to_id == vocab.word_to_id
    for (name, a), (_, b) in zip(model.named_params(), restored.named_params()):
        assert a.tobytes() == b.tobytes(), name


def test_load_decodes_in_place(reference):
    """The load holds neither the file's text nor a blob's: about the new
    model's parameters and a few chunks."""
    model, _, _, path = reference
    (loaded, _, _), peak = traced_peak(lambda: load_checkpoint(str(path)))
    params = nbytes(arr for _, arr in loaded.named_params())
    assert peak <= params + 8 * MB, (peak / MB, params / MB)
    for (name, a), (_, b) in zip(model.named_params(), loaded.named_params()):
        assert a.tobytes() == b.tobytes(), name
