"""Evaluation from the end of each record's padding: ``padding_steps``, the
forward from Leads, ``evaluate`` against the plain chunk-by-chunk loop it
replaced, bit for bit, and the BLAS property that equality rests on."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import micro_config

from slimrnn import (
    CNN_THEN_LSTM,
    LSTM_THEN_CNN,
    ConfigError,
    DataError,
    ExperimentConfig,
    LabeledDataset,
    Rng,
    ShapeError,
)
from slimrnn.layers import EVAL_CHUNK, NO_FORWARD, Lead, SentimentModel, padding_steps
from slimrnn.training import THRESHOLD, EvalResult, bce_loss, evaluate

VARIANTS = [f"lstm{k}" for k in range(7)]
POSITIONS = (CNN_THEN_LSTM, LSTM_THEN_CNN)
ARCHITECTURES = list(itertools.product(VARIANTS, POSITIONS, (True, False), (False, True)))
SIZES = (0, 1, 31, 32, 33, 64, 65, 100, 1000)


def plain_evaluate(model: SentimentModel, dataset: LabeledDataset) -> EvalResult:
    """``evaluate`` as it was before the cut: one plain forward per
    EVAL_CHUNK records, in order."""
    tp = fp = tn = fn = 0
    total_loss = 0.0
    for start in range(0, len(dataset), EVAL_CHUNK):
        p = model.forward(dataset.sequences[start:start + EVAL_CHUNK], training=False)
        y = dataset.labels[start:start + EVAL_CHUNK]
        total_loss += float(np.sum(bce_loss(p, y)[0]))
        pred, pos = p > THRESHOLD, y == 1
        tp += int(np.sum(pred & pos))
        fn += int(np.sum(~pred & pos))
        tn += int(np.sum(~pred & ~pos))
        fp += int(np.sum(pred & ~pos))
    n = len(dataset)
    pos_total, neg_total = tp + fn, tn + fp
    return EvalResult(
        n=n,
        mean_loss=total_loss / n if n else 0.0,
        overall_accuracy=100.0 * (tp + tn) / n if n else 0.0,
        positive_accuracy=100.0 * tp / pos_total if pos_total else 0.0,
        negative_accuracy=100.0 * tn / neg_total if neg_total else 0.0,
        true_positive=tp,
        false_positive=fp,
        true_negative=tn,
        false_negative=fn,
    )


def mixed_dataset(n: int, maxlen: int, vocab: int, seed: int) -> LabeledDataset:
    """Rows of every kind: all padding, unpadded, and left-padded to any
    length, with a tenth of the ids after the first word set to zero."""
    rng = Rng(seed)
    ids = (1 + rng.uniform((n, maxlen)) * (vocab - 1)).astype(np.int64)
    ids[rng.uniform((n, maxlen)) < 0.1] = 0
    kind = rng.uniform(n)
    pads = (rng.uniform(n) * (maxlen + 1)).astype(np.int64)
    pads[kind < 0.15] = maxlen
    pads[(kind >= 0.15) & (kind < 0.3)] = 0
    for row, pad in enumerate(pads):
        ids[row, :pad] = 0
        if pad < maxlen:
            ids[row, pad] = max(ids[row, pad], 1)  # the first word ends the padding
    return LabeledDataset(ids, (rng.uniform(n) < 0.5).astype(np.int64))


def reference_config(**overrides) -> ExperimentConfig:
    """The reference layer sizes; a small vocabulary keeps the table cheap."""
    return ExperimentConfig(**{"seed": 3, "vocab_size": 500, **overrides})


def architecture(variant, position, tail, dense) -> dict:
    return dict(variant=variant, lstm_position=position, bidirectional_tail=tail,
                extra_dense=dense)


@pytest.mark.parametrize("variant, position, tail, dense", ARCHITECTURES)
def test_evaluate_keeps_every_bit_at_micro_size(variant, position, tail, dense):
    config = micro_config(**architecture(variant, position, tail, dense))
    model = config.build(Rng(5))
    for n in SIZES:
        dataset = mixed_dataset(n, config.maxlen, config.vocab_size, seed=n)
        assert evaluate(model, dataset) == plain_evaluate(model, dataset), n


@pytest.mark.parametrize("variant, position, tail, dense", ARCHITECTURES)
def test_evaluate_keeps_every_bit_at_reference_size(variant, position, tail, dense):
    config = reference_config(**architecture(variant, position, tail, dense))
    model = config.build(Rng(5))
    dataset = mixed_dataset(100, config.maxlen, config.vocab_size, seed=1)
    assert evaluate(model, dataset) == plain_evaluate(model, dataset)


@pytest.mark.parametrize("position", POSITIONS)
def test_evaluate_keeps_every_bit_at_reference_size_for_every_count(position):
    config = reference_config(lstm_position=position)
    model = config.build(Rng(6))
    for n in SIZES:
        dataset = mixed_dataset(n, config.maxlen, config.vocab_size, seed=n)
        assert evaluate(model, dataset) == plain_evaluate(model, dataset), n


@pytest.mark.parametrize("position, tail", itertools.product(POSITIONS, (True, False)))
def test_evaluate_keeps_every_bit_with_one_pooled_step(position, tail):
    """maxlen 5, kernel 3 and pool 2 leave one pooled step, which every chunk
    keeps, so each later chunk runs from 0-step Leads: the zero start."""
    config = micro_config(maxlen=5, lstm_position=position, bidirectional_tail=tail)
    model = config.build(Rng(12))
    for n in SIZES:
        dataset = mixed_dataset(n, config.maxlen, config.vocab_size, seed=n)
        assert evaluate(model, dataset) == plain_evaluate(model, dataset), n


@pytest.mark.parametrize("maxlen, kernel, pool, pinned", [
    # T_pool 7: a pooled step reads 4 conv outputs of 5 positions each.
    (32, 5, 4, {0: 0, 4: 0, 7: 0, 8: 1, 11: 1, 12: 2, 31: 6, 32: 7}),
    # pool 1: every conv output is its own pooled step.
    (8, 3, 1, {0: 0, 2: 0, 3: 1, 7: 5, 8: 6}),
    # conv output 8 pools to 2 steps and drops a remainder of 2.
    (10, 3, 3, {4: 0, 5: 1, 7: 1, 8: 2, 10: 2}),
])
def test_padding_steps(maxlen, kernel, pool, pinned):
    """j per count of leading PAD_IDs, pinned, and checked against the
    pooled steps whose every input position lies in the padding."""
    pooled = (maxlen - kernel + 1) // pool
    ids = np.ones((maxlen + 1, maxlen), dtype=np.int64)
    for lead in range(maxlen + 1):
        ids[lead, :lead] = 0
        ids[lead, lead + 1::2] = 0  # zeros after the first word do not count
    steps = padding_steps(ids, kernel, pool)
    for lead, j in pinned.items():
        assert steps[lead] == j, lead
    for lead in range(maxlen + 1):
        last_read = [m * pool + pool + kernel - 2 for m in range(pooled)]
        assert steps[lead] == sum(pos < lead for pos in last_read), lead


def leads(model: SentimentModel, config: ExperimentConfig, steps: int) -> dict:
    """The recurrent layers' Leads over ``steps`` pooled steps, read off the
    tape of the plain forward just run (each from its forward cell)."""
    stride = 1 if config.lstm_position == CNN_THEN_LSTM else config.pool_size
    caches = dict(model._tape)
    out = {model.rnn: Lead.read(caches[model.rnn][0], steps * stride)}
    if model.tail is not None:
        out[model.tail] = Lead.read(caches[model.tail][0], steps)
    return out


@pytest.mark.parametrize("position, tail", itertools.product(POSITIONS, (True, False)))
def test_backward_needs_a_plain_forward_of_its_own(position, tail):
    """After evaluate, after a backward, after a cut forward and after a
    forward that raised, backward raises one ShapeError and leaves every
    gradient as it was."""
    config = micro_config(lstm_position=position, bidirectional_tail=tail)
    model = config.build(Rng(7))
    dataset = mixed_dataset(3 * EVAL_CHUNK, config.maxlen, config.vocab_size, seed=8)
    ids = dataset.sequences
    d_p = np.ones(EVAL_CHUNK)

    def refused():
        before = {name: g.copy() for name, g in model.grads.items()}
        with pytest.raises(ShapeError) as raised:
            model.backward(d_p)
        assert str(raised.value) == NO_FORWARD
        for name, g in model.grads.items():
            assert np.array_equal(g, before[name]), name

    evaluate(model, dataset)
    refused()
    model.forward(ids[:EVAL_CHUNK])
    model.backward(d_p)
    refused()

    padded = np.zeros_like(ids[:EVAL_CHUNK])
    padded[:, -2:] = np.maximum(ids[:EVAL_CHUNK, -2:], 1)  # six pads: 2 all-padding steps
    model.forward(np.zeros_like(padded))
    shared, after = leads(model, config, 1), padded[:, config.pool_size:]
    assert np.array_equal(model.forward(after, leads=shared), model.forward(padded))
    model.forward(after, leads=shared)
    refused()

    model.forward(ids[:EVAL_CHUNK])
    out_of_range = ids[:EVAL_CHUNK].copy()
    out_of_range[0, -1] = config.vocab_size
    with pytest.raises(DataError):
        model.forward(out_of_range)
    refused()


@pytest.mark.parametrize("n", (64, 70))
def test_evaluate_holds_no_memory_once_it_returns(n):
    """No activations outlive evaluate at the reference size, whether the
    last chunk runs from Leads (64 records) or is a plain partial chunk
    (70). Caches left on the layers would hold about 0.7-1.4 MB."""
    config = reference_config()
    model = config.build(Rng(16))
    rng = Rng(17)
    ids = (1 + rng.uniform((n, config.maxlen)) * (config.vocab_size - 1)).astype(np.int64)
    ids[:, :10] = 0  # one all-padding pooled step, so every later chunk runs from Leads
    dataset = LabeledDataset(ids, (rng.uniform(n) < 0.5).astype(np.int64))
    gc.collect()
    tracemalloc.start()
    try:
        evaluate(model, dataset)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 << 10, held


# Bounds on evaluate's traced peak below, in MiB. It is 5.04 at
# lstm-then-cnn, and 6.67 if each chunk's caches live until its head has
# run; at cnn-then-lstm the conv's im2col sets it, at 5.83 either way.
EVAL_PEAK_MIB = {LSTM_THEN_CNN: 5.5, CNN_THEN_LSTM: 6.0}


@pytest.mark.parametrize("position, n", itertools.product(POSITIONS, (64, 70)))
def test_evaluate_holds_one_layer_at_a_time(position, n):
    """No forward in evaluate keeps a tape: each layer's cache goes once the
    next layer has its output, and the first chunk's Leads are copied off
    as each recurrent layer returns. Reference widths, records with 10
    leading pads; 64 records end on a chunk from Leads, 70 on a plain one."""
    config = reference_config(lstm_position=position)
    model = config.build(Rng(16))
    rng = Rng(17)
    ids = (1 + rng.uniform((n, config.maxlen)) * (config.vocab_size - 1)).astype(np.int64)
    ids[:, :10] = 0
    dataset = LabeledDataset(ids, (rng.uniform(n) < 0.5).astype(np.int64))
    gc.collect()
    tracemalloc.start()
    try:
        evaluate(model, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < EVAL_PEAK_MIB[position] * 2**20, peak


@pytest.mark.parametrize("position, tail", itertools.product(POSITIONS, (True, False)))
def test_evaluate_leaves_a_direct_forward_its_tape(position, tail):
    """evaluate keeps no tape and takes none away: backward straight after
    it is refused, even over no records, and a direct evaluation forward
    after it backpropagates to the same gradients as one before it."""
    config = micro_config(lstm_position=position, bidirectional_tail=tail)
    dataset = mixed_dataset(2 * EVAL_CHUNK + 5, config.maxlen, config.vocab_size, seed=18)
    ids, d_p = dataset.sequences[:EVAL_CHUNK], Rng(19).uniform(EVAL_CHUNK, -1, 1)

    def gradients(model):
        model.zero_grads()
        model.forward(ids, training=False)
        return {name: g.copy() for name, g in model.backward(d_p).items()}

    expected = gradients(config.build(Rng(20)))
    model = config.build(Rng(20))
    for records in (dataset, LabeledDataset(ids[:0], dataset.labels[:0])):
        model.forward(ids, training=False)
        evaluate(model, records)
        with pytest.raises(ShapeError) as raised:
            model.backward(d_p)
        assert str(raised.value) == NO_FORWARD
        got = gradients(model)
        assert got.keys() == expected.keys()
        for name, g in got.items():
            assert g.tobytes() == expected[name].tobytes(), name


def test_a_forward_from_leads_refuses_training_and_a_single_sequence():
    config = micro_config()
    model = config.build(Rng(13))
    model.forward(np.zeros((EVAL_CHUNK, config.maxlen), np.int64))
    shared = leads(model, config, 1)
    after = mixed_dataset(EVAL_CHUNK, config.maxlen, config.vocab_size,
                          seed=14).sequences[:, config.pool_size:]
    with pytest.raises(ConfigError, match="evaluation mode"):
        model.forward(after, training=True, rng=Rng(15), leads=shared)
    with pytest.raises(ConfigError, match="evaluation mode"):
        model.forward(after[0], leads=shared)


def test_evaluate_regroups_full_chunks_and_cuts_them(monkeypatch):
    """Three full chunks padded through 3, 1 and 0 pooled steps, interleaved
    in the dataset: the most padded runs plain, the next after one pooled
    step from its Leads, the unpadded from 0-step Leads, and the partial
    last chunk plain; one forward per chunk."""
    config = micro_config()  # maxlen 8, kernel 3, pool 2: 3 pooled steps
    rng = Rng(9)
    n = 3 * EVAL_CHUNK + 5
    ids = (1 + rng.uniform((n, config.maxlen)) * (config.vocab_size - 1)).astype(np.int64)
    ids[0:3 * EVAL_CHUNK:3] = 0  # all padding: j = 3, cut at 2 to keep a step
    ids[1:3 * EVAL_CHUNK:3, :4] = 0  # j = 1
    dataset = LabeledDataset(ids, (rng.uniform(n) < 0.5).astype(np.int64))
    assert sorted(padding_steps(ids, 3, 2)[:3 * EVAL_CHUNK]) == [0] * 32 + [1] * 32 + [3] * 32
    model = config.build(Rng(10))
    expected = plain_evaluate(model, dataset)

    calls = []
    forward = SentimentModel.forward

    def spy(self, chunk, training=False, rng=None, leads=None, *, take=None):
        calls.append((chunk.shape, "plain" if leads is None else "leads", take is not None))
        return forward(self, chunk, training, rng, leads, take=take)

    monkeypatch.setattr(SentimentModel, "forward", spy)
    assert evaluate(model, dataset) == expected
    # every plain forward hands its caches to predict, so none keeps a tape
    assert calls == [((32, 8), "plain", True), ((32, 6), "leads", False),
                     ((32, 8), "leads", False), ((5, 8), "plain", True)]


# [inner, out] of the x @ W.T products at the reference sizes, both positions.
# Over steps x rows, which a later chunk shortens: the conv's im2col products
# and the recurrent layers' input products (lstm0 and the tail feed 4n
# columns, the other variants n).
STEP_PRODUCTS = [(640, 64), (320, 64), (64, 256), (128, 256), (64, 64), (128, 64)]
# Over batch rows alone, which regrouping reorders: the recurrent steps'
# U h, the extra dense layers and the head.
ROW_PRODUCTS = [(64, 256), (64, 64), (128, 64), (64, 32), (32, 16), (128, 1), (64, 1), (16, 1)]
BLAS_CAUSE = ("the BLAS in use rounds a row of x @ W.T by {what}, so predict's "
              "regrouped chunks cannot give the bits of plain forwards on it")


@pytest.mark.parametrize("inner, out", STEP_PRODUCTS)
def test_a_product_row_keeps_its_bits_in_every_chunk_multiple(inner, out):
    """What ``predict``'s equality rests on, as the model computes it (the
    conv as ``im2col @ kernels.reshape(F, k * C).T``): a row gets the same
    bits in any product of 32 * k rows, up to 1,024, wherever it sits."""
    rng = Rng(inner * out)
    weights = rng.uniform((out, inner), -0.1, 0.1)  # kernels.reshape(F, k * C), or W
    x = rng.uniform((1024, inner), -1.0, 1.0)
    whole = x @ weights.T
    for rows in range(EVAL_CHUNK, len(x) + 1, EVAL_CHUNK):
        for at in (0, len(x) - rows):
            assert np.array_equal(x[at:at + rows] @ weights.T, whole[at:at + rows]), \
                BLAS_CAUSE.format(what=f"the row count ({rows} rows at {at}, [.x{inner}]->{out})")


@pytest.mark.parametrize("inner, out", sorted(set(STEP_PRODUCTS + ROW_PRODUCTS)))
def test_a_product_row_keeps_its_bits_under_row_permutations(inner, out):
    """The other half: at EVAL_CHUNK rows, a row's bits do not depend on
    where regrouping puts it."""
    rng = Rng(inner * out + 1)
    weights = rng.uniform((out, inner), -0.1, 0.1)
    x = rng.uniform((EVAL_CHUNK, inner), -1.0, 1.0)
    whole = x @ weights.T
    for trial in range(20):
        perm = rng.derive(trial).permutation(EVAL_CHUNK)
        assert np.array_equal(x[perm] @ weights.T, whole[perm]), \
            BLAS_CAUSE.format(what=f"its position ([{EVAL_CHUNK}x{inner}]->{out})")
