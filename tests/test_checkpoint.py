"""Checkpoint serialization: bit-exact restore and malformed-file handling."""

import json

import numpy as np
import pytest

from conftest import make_separable_dataset, micro_config

from slimrnn import checkpoint
from slimrnn import (
    DataError,
    Rng,
    Vocabulary,
    load_checkpoint,
    save_checkpoint,
    train,
)


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
    payload = checkpoint.checkpoint_payload(model, config, vocab)
    assert before == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()

    real_payload = checkpoint.checkpoint_payload

    def unserializable(*args):
        broken = real_payload(*args)
        broken["params"]["zzz"] = object()  # sorts last: fails mid-file
        return broken

    monkeypatch.setattr(checkpoint, "checkpoint_payload", unserializable)
    with pytest.raises(TypeError):
        save_checkpoint(str(path), model, config, vocab)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]


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


def test_truncated_blob_detected(trained, tmp_path):
    model, config, vocab, _ = trained
    path = tmp_path / "trunc.json"
    save_checkpoint(str(path), model, config, vocab)
    payload = json.loads(path.read_text())
    blob = payload["params"]["head.weights"]
    blob["data"] = blob["data"][: len(blob["data"]) // 2]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError):
        load_checkpoint(str(path))


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
