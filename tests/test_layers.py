"""Layer-by-layer behavior, plus assembly checks on the whole model."""

import itertools
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_in_mapped_pages

from slimrnn import (
    CNN_THEN_LSTM,
    LSTM_THEN_CNN,
    ConfigError,
    DataError,
    ExperimentConfig,
    Rng,
    ShapeError,
    Variant,
)
from slimrnn.cells import count_params, init_params, sequence_forward
from slimrnn.gradcheck import TOL, complex_step, relative_error
from slimrnn.layers import (
    Bidirectional,
    Conv1D,
    Dense,
    Dropout,
    Embedding,
    LastStep,
    MaxPool1D,
    Recurrent,
    SentimentModel,
)
from slimrnn.training import bce_loss

MICRO = ExperimentConfig(seed=0, vocab_size=30, embed_dim=5, conv_filters=4,
                         kernel_size=3, pool_size=2, hidden=3, maxlen=9,
                         spatial_dropout=0.0, dense_dropout=0.0)


def complex_twins(*arrays: np.ndarray) -> list[np.ndarray]:
    """complex128 copies of float64 arrays, for the complex-step oracle."""
    return [arr.astype(np.complex128) for arr in arrays]


def param_count(model: SentimentModel) -> int:
    return sum(arr.size for _, arr in model.named_params())


def expected_param_count(config: ExperimentConfig) -> int:
    """Closed-form total for the model ``config`` builds, to check the
    model's tensors against."""
    c = config
    cnn_first = c.lstm_position == CNN_THEN_LSTM
    total = c.vocab_size * c.embed_dim
    conv_channels = c.embed_dim if cnn_first else c.hidden
    total += c.conv_filters * c.kernel_size * conv_channels + c.conv_filters
    rnn_in = c.conv_filters if cnn_first else c.embed_dim
    total += count_params(Variant.parse(c.variant), rnn_in, c.hidden)
    feat = c.hidden if cnn_first else c.conv_filters
    if c.bidirectional_tail:
        total += 2 * count_params(Variant.LSTM0, feat, c.hidden)
        feat = 2 * c.hidden
    if c.extra_dense:
        for width in c.extra_dense_dims:
            total += width * feat + width
            feat = width
    return total + feat + 1  # head


class TestEmbedding:
    def test_lookup(self):
        table = np.arange(12.0).reshape(4, 3)
        emb = Embedding(table)
        out = emb.forward(np.array([2, 0, 2]))
        np.testing.assert_array_equal(out, table[[2, 0, 2]])

    def test_out_of_range_ids(self):
        emb = Embedding(np.zeros((4, 3)))
        with pytest.raises(DataError):
            emb.forward(np.array([4]))
        with pytest.raises(DataError):
            emb.forward(np.array([-1]))

    def test_backward_accumulates_duplicate_rows(self):
        emb = Embedding(np.zeros((4, 2)))
        emb.forward(np.array([1, 1, 3]))
        emb.backward(np.array([[1.0, 0.0], [2.0, 0.5], [0.0, 1.0]]))
        np.testing.assert_array_equal(emb.grads["table"][1], [3.0, 0.5])
        np.testing.assert_array_equal(emb.grads["table"][3], [0.0, 1.0])
        np.testing.assert_array_equal(emb.grads["table"][0], [0.0, 0.0])
        assert emb.row_end == 4

    def test_gradient_takes_no_heap_memory(self):
        """The reference-size gradient (20 MB) is zero, writable and mapped
        apart from the heap, even after a block its size has been freed."""
        table = np.zeros((20000, 128))
        np.ones(table.shape)  # freed at once
        tracemalloc.start()
        try:
            emb = Embedding(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        grad = emb.grads["table"]
        assert grad.shape == table.shape and grad.dtype == table.dtype
        assert grad.flags.writeable and grad.flags.c_contiguous and not grad.any()
        assert Embedding(np.zeros((0, 3))).grads["table"].shape == (0, 3)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
    def test_gradient_pages_take_memory_only_once_written(self):
        """Reading the whole reference-size gradient keeps it out of resident
        memory; writing 100 rows brings in about their 100 KB."""
        def resident() -> int:
            with open("/proc/self/statm") as handle:
                return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        mb = 1 << 20
        table = np.zeros((20000, 128))
        before = resident()
        emb = Embedding(table)
        assert_in_mapped_pages(emb.grads["table"])
        assert emb.grads["table"].sum() == 0.0
        assert resident() - before < 2 * mb
        emb.forward(np.arange(100))
        emb.backward(np.ones((100, 128)))
        assert resident() - before < 3 * mb


class TestDropout:
    def test_eval_is_identity(self):
        x = Rng(0).uniform((6, 4))
        drop = Dropout(0.5)
        np.testing.assert_array_equal(drop.forward(x, training=False), x)

    def test_training_scales_survivors(self):
        x = np.ones((2000, 1))
        drop = Dropout(0.25)
        out = drop.forward(x, rng=Rng(1), training=True)
        survivors = out[out != 0.0]
        np.testing.assert_allclose(survivors, 1 / 0.75)
        # survival frequency tracks the keep probability
        assert abs(len(survivors) / x.size - 0.75) < 0.03
        # expectation is preserved by inverted scaling
        assert abs(out.mean() - 1.0) < 0.05

    def test_spatial_mode_zeroes_whole_columns(self):
        x = np.ones((3, 10, 200))
        drop = Dropout(0.4, mode="spatial")
        out = drop.forward(x, rng=Rng(2), training=True)
        column_is_zero = (out == 0.0).all(axis=1)
        column_is_live = (out != 0.0).all(axis=1)
        assert np.all(column_is_zero | column_is_live)
        assert 0.2 < column_is_zero.mean() < 0.6
        # each sequence draws its own channels
        assert not np.array_equal(column_is_zero[0], column_is_zero[1])

    def test_spatial_batch_mask_equals_consecutive_sequence_masks(self):
        x = Rng(4).uniform((4, 6, 5))
        batched = Dropout(0.4, mode="spatial").forward(x, rng=Rng(5), training=True)
        one_at_a_time, rng = Dropout(0.4, mode="spatial"), Rng(5)
        for b in range(4):
            alone = one_at_a_time.forward(x[b], rng=rng, training=True)
            np.testing.assert_array_equal(batched[b], alone)

    def test_backward_applies_same_mask(self):
        drop = Dropout(0.5)
        x = np.ones((8, 8))
        out = drop.forward(x, rng=Rng(3), training=True)
        back = drop.backward(np.ones_like(x))
        np.testing.assert_array_equal(back != 0.0, out != 0.0)

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            Dropout(1.0)
        with pytest.raises(ConfigError):
            Dropout(-0.1)
        with pytest.raises(ConfigError):
            Dropout(0.5, mode="columns")
        with pytest.raises(ConfigError):
            Dropout(0.5).forward(np.ones(3), training=True)  # rng required


def naive_conv1d(x, kernels, bias):
    L, C = x.shape
    F, k, _ = kernels.shape
    out = np.zeros((L - k + 1, F))
    for t in range(L - k + 1):
        for f in range(F):
            acc = 0.0
            for j in range(k):
                for c in range(C):
                    acc += x[t + j, c] * kernels[f, j, c]
            out[t, f] = acc + bias[f]
    return out


class TestConv1D:
    def test_matches_naive_loop(self):
        rng = Rng(4)
        x = rng.uniform((2, 8, 3), -1, 1)
        kernels = rng.uniform((5, 2, 3), -1, 1)
        bias = rng.uniform(5, -1, 1)
        conv = Conv1D(kernels, bias)
        out = conv.forward(x)
        for b in range(2):
            naive = naive_conv1d(x[b], kernels, bias)
            np.testing.assert_allclose(out[b], np.maximum(naive, 0.0), atol=1e-12)

    def test_relu_clips(self):
        conv = Conv1D(np.ones((1, 1, 1)), np.array([-10.0]))
        out = conv.forward(np.ones((1, 3, 1)))
        np.testing.assert_array_equal(out, np.zeros((1, 3, 1)))

    def test_backward_gradients_match_oracle(self):
        rng = Rng(5)
        x = rng.uniform((2, 7, 2), -1, 1)
        conv = Conv1D(rng.uniform((3, 3, 2), -1, 1), rng.uniform(3, -1, 1))
        weight = rng.uniform((2, 5, 3), -1, 1)
        twin = Conv1D(*complex_twins(conv.kernels, conv.bias))
        (x_twin,) = complex_twins(x)

        conv.forward(x)
        d_x = conv.backward(weight)
        numeric = complex_step(lambda: np.sum(twin.forward(x_twin) * weight),
                               [twin.kernels, twin.bias, x_twin])
        assert relative_error(conv.grads["kernels"], numeric[0]).max() < 1e-6
        assert relative_error(conv.grads["bias"], numeric[1]).max() < 1e-6
        assert relative_error(d_x, numeric[2]).max() < 1e-6

    def test_shape_errors(self):
        conv = Conv1D(np.zeros((2, 3, 4)), np.zeros(2))
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 8, 5)))  # wrong channel count
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 2, 4)))  # shorter than the kernel
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((8, 4)))  # no batch axis


class TestMaxPool1D:
    def test_forward_drops_remainder(self):
        x = np.array([[[1.0], [5.0], [3.0], [2.0], [9.0]]])
        pool = MaxPool1D(2)
        np.testing.assert_array_equal(pool.forward(x), [[[5.0], [3.0]]])

    def test_backward_routes_to_first_argmax(self):
        x = np.array([[[2.0], [2.0], [1.0], [7.0]],
                      [[0.0], [3.0], [4.0], [4.0]]])
        pool = MaxPool1D(2)
        pool.forward(x)
        d_x = pool.backward(np.array([[[1.0], [1.0]], [[2.0], [3.0]]]))
        np.testing.assert_array_equal(d_x[0].ravel(), [1.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(d_x[1].ravel(), [0.0, 2.0, 3.0, 0.0])

    @pytest.mark.parametrize("shape, pool", [((2, 7, 3), 2), ((1, 9, 4), 3),
                                             ((3, 4, 1), 4), ((2, 5, 2), 1)])
    def test_backward_matches_a_naive_loop(self, shape, pool):
        """Each window's gradient lands on its first max, the dropped
        remainder gets zero, and a -0.0 keeps its sign."""
        rng = Rng(sum(shape) + pool)
        x = np.round(rng.uniform(shape, -2, 2), 1)  # rounding makes ties
        layer = MaxPool1D(pool)
        out = layer.forward(x)
        d_out = rng.uniform(out.shape, -1, 1)
        d_out[0, 0] = -0.0
        expected = np.zeros(shape)
        for b, w, f in itertools.product(*map(range, out.shape)):
            window = list(x[b, w * pool:(w + 1) * pool, f])
            expected[b, w * pool + window.index(max(window)), f] = d_out[b, w, f]
        d_x = layer.backward(d_out)
        np.testing.assert_array_equal(d_x, expected)
        np.testing.assert_array_equal(np.signbit(d_x), np.signbit(expected))

    def test_too_short_input(self):
        with pytest.raises(ShapeError):
            MaxPool1D(4).forward(np.zeros((1, 3, 2)))

    def test_bad_pool_size(self):
        with pytest.raises(ConfigError):
            MaxPool1D(0)


class TestDense:
    def test_values_and_activations(self):
        w = np.array([[1.0, -1.0], [0.5, 0.5]])
        b = np.array([0.0, -1.0])
        x = np.array([[2.0, 1.0]])
        assert np.allclose(Dense(w, b, "relu").forward(x), [[1.0, 0.5]])
        neg = Dense(np.array([[-1.0, 0.0]]), np.zeros(1), "relu").forward(x)
        np.testing.assert_array_equal(neg, [[0.0]])
        sig = Dense(w, b, "sigmoid").forward(x)
        assert np.all((sig > 0) & (sig < 1))

    def test_backward_against_oracle(self):
        rng = Rng(6)
        dense = Dense(rng.uniform((3, 4), -1, 1), rng.uniform(3, -1, 1), "sigmoid")
        x = rng.uniform((2, 4), -1, 1)
        weight = rng.uniform((2, 3), -1, 1)
        twin = Dense(*complex_twins(dense.weights, dense.bias), "sigmoid")
        (x_twin,) = complex_twins(x)

        dense.forward(x)
        d_x = dense.backward(weight)
        numeric = complex_step(lambda: np.sum(twin.forward(x_twin) * weight),
                               [twin.weights, twin.bias, x_twin])
        assert relative_error(dense.grads["weights"], numeric[0]).max() < 1e-6
        assert relative_error(dense.grads["bias"], numeric[1]).max() < 1e-6
        assert relative_error(d_x, numeric[2]).max() < 1e-6

    def test_input_shape_checked(self):
        with pytest.raises(ShapeError):
            Dense(np.zeros((2, 3)), np.zeros(2), "relu").forward(np.zeros((1, 4)))
        with pytest.raises(ShapeError):
            Dense(np.zeros((2, 3)), np.zeros(2), "relu").forward(np.zeros(3))  # no batch axis

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            Dense(np.zeros((1, 1)), np.zeros(1), activation="gelu")
        with pytest.raises(ConfigError):
            Dense(np.zeros((1, 1)), np.zeros(1), activation="none")


def test_recurrent_wraps_sequence_forward():
    cell = init_params(Variant.LSTM0, 3, 4, Rng(7))
    layer = Recurrent(cell)
    xs = Rng(8).uniform((2, 5, 3), -1, 1)  # [B, T, d]
    expected, _ = sequence_forward(cell, xs.transpose(1, 0, 2))
    np.testing.assert_array_equal(layer.forward(xs), expected.transpose(1, 0, 2))


def test_last_step_round_trip():
    layer = LastStep()
    x = Rng(16).uniform((2, 4, 3))
    np.testing.assert_array_equal(layer.forward(x), x[:, -1])
    d_x = layer.backward(np.ones((2, 3)))
    assert d_x.shape == x.shape
    np.testing.assert_array_equal(d_x[:, -1], 1.0)
    assert not d_x[:, :-1].any()


def test_recurrent_layers_hold_their_cells_gradients():
    cell = init_params(Variant.LSTM5, 3, 4, Rng(7))
    assert Recurrent(cell).grads is cell.grads
    fwd = init_params(Variant.LSTM0, 3, 2, Rng(9))
    bwd = init_params(Variant.LSTM0, 3, 2, Rng(10))
    layer = Bidirectional(fwd, bwd)
    assert list(layer.grads) == ([f"fwd.{k}" for k in fwd.grads]
                                 + [f"bwd.{k}" for k in bwd.grads])
    for name in fwd.grads:
        assert layer.grads[f"fwd.{name}"] is fwd.grads[name]
        assert layer.grads[f"bwd.{name}"] is bwd.grads[name]


class TestBidirectional:
    def test_forward_matches_manual_composition(self):
        fwd = init_params(Variant.LSTM0, 3, 2, Rng(9))
        bwd = init_params(Variant.LSTM0, 3, 2, Rng(10))
        layer = Bidirectional(fwd, bwd)
        xs = Rng(11).uniform((2, 4, 3), -1, 1)  # [B, T, d]
        out = layer.forward(xs)
        xs_t = xs.transpose(1, 0, 2)
        hs_f, _ = sequence_forward(fwd, xs_t)
        hs_b, _ = sequence_forward(bwd, xs_t[::-1])
        assert out.shape == (2, 4)  # [B, 2n]: each direction's final state
        np.testing.assert_array_equal(out[:, :2], hs_f[-1])
        np.testing.assert_array_equal(out[:, 2:], hs_b[-1])

    def test_width_mismatch(self):
        with pytest.raises(ConfigError):
            Bidirectional(init_params(Variant.LSTM0, 3, 2, Rng(0)),
                          init_params(Variant.LSTM0, 3, 5, Rng(1)))

    def test_backward_against_oracle(self):
        """The input and all 24 tensors of both lstm0 cells, as the tail
        builds them."""
        layer, twin = (Bidirectional(
            init_params(Variant.LSTM0, 2, 2, Rng(12), dtype=dtype),
            init_params(Variant.LSTM0, 2, 2, Rng(13), dtype=dtype))
            for dtype in (np.float64, np.complex128))
        xs = Rng(14).uniform((2, 3, 2), -1, 1)
        (xs_twin,) = complex_twins(xs)
        weight = Rng(15).uniform((2, 4), -1, 1)

        layer.forward(xs)
        d_xs = layer.backward(weight)
        names, arrays = zip(*sorted(twin.params().items()))
        assert len(names) == 24
        numeric = complex_step(lambda: np.sum(twin.forward(xs_twin) * weight),
                               [xs_twin, *arrays])
        assert relative_error(d_xs, numeric[0]).max() < 1e-6
        for name, num in zip(names, numeric[1:]):
            assert relative_error(layer.grads[name], num).max() < 2e-6, name


class TestSentimentModel:
    def build(self):
        return SentimentModel(MICRO, Rng(20))

    def test_probability_in_unit_interval(self):
        model = self.build()
        ids = np.array([0, 0, 3, 7, 1, 9, 2, 5, 4])
        p = model.forward(ids)
        assert 0.0 < p < 1.0

    def test_param_count_matches_closed_form_everywhere(self):
        for variant, position, extra in itertools.product(
                Variant, (CNN_THEN_LSTM, LSTM_THEN_CNN), (False, True)):
            config = replace(MICRO, variant=variant.value.lower(),
                             lstm_position=position, extra_dense=extra)
            model = SentimentModel(config, Rng(21))
            assert param_count(model) == expected_param_count(config), (
                variant, position, extra)

    def test_unidirectional_option(self):
        config = replace(MICRO, variant="lstm2", bidirectional_tail=False)
        model = SentimentModel(config, Rng(22))
        assert model.tail is None
        p = model.forward(np.arange(9) % 30)
        assert 0.0 < p < 1.0
        assert param_count(model) == expected_param_count(config)

    @pytest.mark.parametrize("position, tail, extra", itertools.product(
        (CNN_THEN_LSTM, LSTM_THEN_CNN), (True, False), (False, True)))
    def test_zero_grads_clears_every_gradient(self, position, tail, extra):
        """zero_grads clears only the table rows before the row end and
        resets the row end; after any backward, one or several, every
        gradient is zero again."""
        model = SentimentModel(replace(MICRO, lstm_position=position,
                                       bidirectional_tail=tail, extra_dense=extra), Rng(20))
        rng = Rng(26)
        for backwards in (1, 2, 1, 3):
            written = set()
            for _ in range(backwards):
                ids = (rng.uniform((4, 9)) * 30).astype(np.int64)
                model.forward(ids)
                model.backward(rng.uniform(4, -1.0, 1.0))
                written |= set(ids.ravel().tolist())
            assert model.row_ends == {"embedding.table": max(written) + 1}
            assert not model.grads["embedding.table"][max(written) + 1:].any()
            for name, g in model.grads.items():
                assert g.any(), name  # every gradient has entries to clear
            model.zero_grads()
            for name, g in model.grads.items():
                assert not g.any(), name
            assert model.embedding.row_end == 0
            assert model.row_ends == {"embedding.table": 0}

    @pytest.mark.parametrize("position, extra", itertools.product(
        (CNN_THEN_LSTM, LSTM_THEN_CNN), (False, True)))
    def test_reverse_tail_gradients_are_all_nonzero(self, position, extra):
        """The head reads the reverse cell's state after the whole reversed
        sequence, so its recurrent weights and its forget gate get gradient
        too. When the head read the concatenated output at step T-1, the
        reverse cell had run one step there from h = c = 0, and its U_*,
        W_f and b_f got exactly none."""
        model = SentimentModel(replace(MICRO, lstm_position=position,
                                       extra_dense=extra), Rng(20))
        rng = Rng(30)
        ids = (rng.uniform((4, 9)) * 30).astype(np.int64)
        model.forward(ids)
        model.backward(rng.uniform(4, -1.0, 1.0))
        grads = model.tail.bwd.grads
        assert len(grads) == 12
        for name, g in grads.items():
            assert g.all(), name

    @pytest.mark.parametrize("tail, extra", itertools.product((True, False), (False, True)))
    def test_names_in_the_same_order_for_both_positions(self, tail, extra):
        """Clipping sums squares tensor by tensor in name-table order, so
        the order must not depend on where the variant cell sits."""
        names = []
        for position in (CNN_THEN_LSTM, LSTM_THEN_CNN):
            model = SentimentModel(replace(MICRO, lstm_position=position,
                                           bidirectional_tail=tail, extra_dense=extra),
                                   Rng(29))
            names.append(([name for name, _ in model.named_params()], list(model.grads)))
        assert names[0] == names[1]
        layers = ["embedding", "conv", "rnn"] + ["tail"] * tail
        layers += [f"dense{k}" for k in range(len(MICRO.extra_dense_dims) * extra)] + ["head"]
        for table in names[0]:
            prefixes = [name.split(".")[0] for name in table]
            assert list(dict.fromkeys(prefixes)) == layers

    def test_returned_tables_are_copies(self):
        model = self.build()
        params, grads = model.named_params(), model.grads
        names, grad_names = [name for name, _ in params], list(grads)
        params.reverse()
        params.append(("extra", np.zeros(1)))
        del grads["head.bias"]
        grads["extra"] = np.ones(1)
        assert [name for name, _ in model.named_params()] == names
        assert list(model.grads) == grad_names
        model.forward(np.arange(9))
        model.backward(1.0)
        model.zero_grads()
        assert not model.head.grads["bias"].any()

    def test_zero_head_weights_predict_constant(self):
        model = self.build()
        model.head.weights[:] = 0.0
        model.head.bias[:] = 0.3
        from slimrnn.numeric import sigmoid

        expected = float(sigmoid(np.array(0.3)))
        rng = Rng(23)
        for _ in range(5):
            ids = (rng.uniform(9) * 30).astype(np.int64)
            assert model.forward(ids) == pytest.approx(expected, abs=1e-15)

    def test_rnn_before_conv_ordering_backward(self):
        config = replace(MICRO, variant="lstm1", lstm_position=LSTM_THEN_CNN)
        model = SentimentModel(config, Rng(24))
        twin = SentimentModel(config, Rng(24), dtype=np.complex128)
        shake = Rng(25)
        for (_, arr), (_, twin_arr) in zip(model.named_params(), twin.named_params()):
            arr[...] = twin_arr[...] = shake.uniform(arr.shape, -0.7, 0.7)
        ids = (Rng(26).uniform(9) * 30).astype(np.int64)

        p = model.forward(ids)
        _, dp = bce_loss(p, 1)
        model.zero_grads()
        model.backward(dp)
        params = dict(twin.named_params())
        for name in ("conv.kernels", "rnn.W_c", "embedding.table", "head.weights"):
            (numeric,) = complex_step(lambda: bce_loss(twin.forward(ids), 1)[0],
                                      [params[name]])
            assert relative_error(model.grads[name], numeric).max() < TOL, name

    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    def test_single_sequence_forward_keeps_the_imaginary_part(self):
        """A single sequence [T] gives the batch-of-one probability as a
        Python scalar, in the complex twin too, derivative included."""
        twin = SentimentModel(MICRO, Rng(20), dtype=np.complex128)
        twin.head.bias[0] += 1j * 1e-30  # a complex step on one weight
        ids = (Rng(27).uniform(9) * 30).astype(np.int64)
        p = twin.forward(ids)
        assert type(p) is complex and p.imag != 0.0
        assert p == twin.forward(ids[None])[0]
        assert type(self.build().forward(ids)) is float

    def test_sequence_shorter_than_kernel_rejected(self):
        with pytest.raises(ConfigError, match="embedding->conv"):
            SentimentModel(replace(MICRO, maxlen=2), Rng(27))
        with pytest.raises(ConfigError, match="rnn->conv"):
            SentimentModel(replace(MICRO, maxlen=2, lstm_position=LSTM_THEN_CNN), Rng(27))

    def test_pool_larger_than_conv_output_rejected(self):
        with pytest.raises(ConfigError):
            SentimentModel(replace(MICRO, pool_size=12), Rng(28))

    def test_bad_lstm_position(self):
        with pytest.raises(ConfigError):
            replace(MICRO, lstm_position="cnn-after-lstm")
