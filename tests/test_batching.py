"""Batch-major model: a batch of sequences gives the same probabilities and
the same summed gradients as its rows run one at a time, for every
architecture switch."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from slimrnn import (
    CNN_THEN_LSTM,
    LSTM_THEN_CNN,
    ExperimentConfig,
    Rng,
    SentimentModel,
    ShapeError,
    Variant,
)
from slimrnn.training import bce_loss

MICRO = ExperimentConfig(seed=0, vocab_size=30, embed_dim=5, conv_filters=4,
                         kernel_size=3, pool_size=2, hidden=3, maxlen=9,
                         spatial_dropout=0.0, dense_dropout=0.0,
                         extra_dense_dims=(4, 3))

SWITCHES = list(itertools.product(
    Variant, (CNN_THEN_LSTM, LSTM_THEN_CNN), (True, False), (False, True)))


def shaken_model(**switches):
    """A micro model with every parameter redrawn at O(1) scale, so the
    gradients compared below sit far above roundoff."""
    model = SentimentModel(replace(MICRO, **switches), Rng(40))
    shake = Rng(41)
    for _, arr in model.named_params():
        arr[...] = shake.uniform(arr.shape, -0.7, 0.7)
    return model


@pytest.mark.parametrize(
    "variant,position,tail,extra", SWITCHES,
    ids=[f"{v.value.lower()}-{p}-tail{int(t)}-dense{int(e)}" for v, p, t, e in SWITCHES])
def test_batch_equals_rows_one_at_a_time(variant, position, tail, extra):
    model = shaken_model(variant=variant.value.lower(), lstm_position=position,
                         bidirectional_tail=tail, extra_dense=extra)
    ids = (Rng(42).uniform((4, MICRO.maxlen)) * MICRO.vocab_size).astype(np.int64)
    labels = np.array([1, 0, 1, 1])

    batched = model.forward(ids)
    assert batched.shape == (4,)
    alone = [model.forward(row) for row in ids]
    assert all(isinstance(p, float) for p in alone)
    np.testing.assert_allclose(batched, alone, rtol=1e-12)

    expected = {name: np.zeros_like(arr) for name, arr in model.named_params()}
    for row, label in zip(ids, labels):
        model.zero_grads()
        model.backward(bce_loss(model.forward(row), label)[1])
        for name, grad in model.grads.items():
            expected[name] += grad
    model.zero_grads()
    model.backward(bce_loss(model.forward(ids), labels)[1])
    for name, grad in model.grads.items():
        np.testing.assert_allclose(grad, expected[name], rtol=1e-10, atol=1e-15,
                                   err_msg=name)


def test_backward_rejects_wrong_batch_size():
    model = shaken_model()
    model.forward(np.zeros((3, MICRO.maxlen), dtype=np.int64))
    with pytest.raises(ShapeError):
        model.backward(np.ones(2))


def test_forward_rejects_ids_without_time_axis():
    model = shaken_model()
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 3, MICRO.maxlen), dtype=np.int64))
