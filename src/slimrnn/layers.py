"""Non-recurrent layers, the bidirectional wrapper, and model assembly.

Every layer is batch-major: sequences travel as [B, T, features] and
vectors as [B, features]. Each layer caches what its backward pass needs on
forward, accumulates parameter gradients into its ``grads`` dict (across
calls, until zero_grads()), and returns the gradient w.r.t. its input. The
recurrent and conv layers release their caches in backward, so a batch's
activations are freed before the optimizer step; each backward needs a
forward of its own. The recurrent layers hand the cells time-major
[T, B, features] views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cells import (
    CellParams,
    Variant,
    count_params,
    init_params,
    sequence_backward,
    sequence_forward,
    zero_grads as cell_zero_grads,
)
from .errors import ConfigError, DataError, ShapeError
from .numeric import sigmoid, sigmoid_grad
from .rng import Rng

CNN_THEN_LSTM = "cnn-then-lstm"
LSTM_THEN_CNN = "lstm-then-cnn"


class Embedding:
    """Token-id lookup table [V, e]: ids of any shape gain a trailing e axis."""

    def __init__(self, table: np.ndarray):
        self.table = table
        self.grads = {"table": np.zeros_like(table)}
        self._ids = None

    def params(self):
        return {"table": self.table}

    def zero_grads(self):
        self.grads["table"][:] = 0.0

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.table.shape[0]):
            raise DataError(
                f"embedding lookup: id out of range [0, {self.table.shape[0]}), "
                f"got min={ids.min()} max={ids.max()}"
            )
        self._ids = ids
        return self.table[ids]

    def backward(self, d_out: np.ndarray):
        np.add.at(self.grads["table"], self._ids.ravel(),
                  d_out.reshape(-1, self.table.shape[1]))
        return None  # ids are discrete; nothing flows further back


class Dropout:
    """Inverted dropout; ``spatial`` mode zeroes whole feature channels.

    Training zeroes each unit with probability ``rate`` and scales survivors
    by 1/(1-rate) so expectations are preserved. In spatial mode the unit is
    a channel (last axis) of one sequence, shared across its time axis
    (second to last), so an input [B, L, C] takes one draw of shape
    [B, 1, C]. Evaluation is the identity.
    """

    def __init__(self, rate: float, mode: str = "elementwise"):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        if mode not in ("elementwise", "spatial"):
            raise ConfigError(f"unknown dropout mode {mode!r}")
        self.rate = rate
        self.mode = mode
        self.grads = {}
        self._mask = None

    def params(self):
        return {}

    def zero_grads(self):
        pass

    def forward(self, x: np.ndarray, rng: Rng | None = None,
                training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ConfigError("dropout in training mode needs an rng")
        shape = x.shape
        if self.mode == "spatial" and x.ndim >= 2:
            shape = x.shape[:-2] + (1, x.shape[-1])
        self._mask = (rng.uniform(shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        return d_out if self._mask is None else d_out * self._mask


class Conv1D:
    """Valid cross-correlation, stride 1: kernels [F, k, C] over inputs
    [B, L, C], computed as one GEMM over im2col rows [B * L_out, k * C].
    The input, not its k times larger im2col copy, is kept for backward."""

    def __init__(self, kernels: np.ndarray, bias: np.ndarray, activation: str = "relu"):
        if activation not in ("relu", "none"):
            raise ConfigError(f"conv activation must be relu or none, got {activation!r}")
        self.kernels = kernels
        self.bias = bias
        self.activation = activation
        self.grads = {"kernels": np.zeros_like(kernels), "bias": np.zeros_like(bias)}
        self._x = None
        self._z = None

    def params(self):
        return {"kernels": self.kernels, "bias": self.bias}

    def zero_grads(self):
        for g in self.grads.values():
            g[:] = 0.0

    @staticmethod
    def _im2col(x: np.ndarray, k: int) -> np.ndarray:
        """Rows x[b, t:t+k] flattened tap-major: [B * (L-k+1), k * C]."""
        B, L, C = x.shape
        windows = sliding_window_view(x, k, axis=1)  # [B, L-k+1, C, k]
        return windows.transpose(0, 1, 3, 2).reshape(B * (L - k + 1), k * C)

    def forward(self, x: np.ndarray) -> np.ndarray:
        F, k, C = self.kernels.shape
        if x.ndim != 3 or x.shape[2] != C:
            raise ShapeError(f"conv1d: input {x.shape} incompatible with kernels {self.kernels.shape}")
        if x.shape[1] < k:
            raise ShapeError(f"conv1d: input length {x.shape[1]} < kernel size {k}")
        self._x = x
        z = self._im2col(x, k) @ self.kernels.reshape(F, k * C).T + self.bias
        self._z = z.reshape(x.shape[0], -1, F)
        return np.maximum(self._z, 0.0) if self.activation == "relu" else self._z

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        F, k, C = self.kernels.shape
        dz = d_out * (self._z > 0) if self.activation == "relu" else d_out
        B, L_out, _ = dz.shape
        dz_rows = dz.reshape(B * L_out, F)
        self.grads["kernels"] += (dz_rows.T @ self._im2col(self._x, k)).reshape(F, k, C)
        self.grads["bias"] += dz_rows.sum(axis=0)
        self._x = self._z = None
        # d_x[t] = sum_j dz[t - j] @ kernels[:, j]: a full correlation of the
        # zero-padded dz with the tap-reversed kernels, again one GEMM.
        padded = np.zeros((B, L_out + 2 * (k - 1), F))
        padded[:, k - 1:k - 1 + L_out] = dz
        flipped = self.kernels[:, ::-1, :].transpose(1, 0, 2).reshape(k * F, C)
        return (self._im2col(padded, k) @ flipped).reshape(B, L_out + k - 1, C)


class MaxPool1D:
    """Non-overlapping window max per feature over [B, L, F]; the trailing
    remainder is dropped.

    Backward routes each window's gradient to the first argmax on ties.
    """

    def __init__(self, pool: int):
        if pool < 1:
            raise ConfigError(f"pool size must be >= 1, got {pool}")
        self.pool = pool
        self.grads = {}
        self._arg = None
        self._in_shape = None

    def params(self):
        return {}

    def zero_grads(self):
        pass

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ShapeError(f"maxpool1d: need input [B, L, F], got {x.shape}")
        B, L, F = x.shape
        windows = L // self.pool
        if windows < 1:
            raise ShapeError(f"maxpool1d: input length {L} < pool {self.pool}")
        blocks = x[:, : windows * self.pool].reshape(B, windows, self.pool, F)
        self._arg = blocks.argmax(axis=2)[:, :, None]  # first max wins ties
        self._in_shape = x.shape
        return blocks.max(axis=2)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        B, windows, F = d_out.shape
        d_blocks = np.zeros((B, windows, self.pool, F))
        np.put_along_axis(d_blocks, self._arg, d_out[:, :, None], axis=2)
        d_x = np.zeros(self._in_shape)
        d_x[:, : windows * self.pool] = d_blocks.reshape(B, windows * self.pool, F)
        return d_x


class Dense:
    """Affine map with optional activation over rows: act(x @ weights.T + bias)."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: str = "none"):
        if activation not in ("none", "relu", "sigmoid"):
            raise ConfigError(f"unknown dense activation {activation!r}")
        self.weights = weights
        self.bias = bias
        self.activation = activation
        self.grads = {"weights": np.zeros_like(weights), "bias": np.zeros_like(bias)}
        self._x = None
        self._out = None
        self._z = None

    def params(self):
        return {"weights": self.weights, "bias": self.bias}

    def zero_grads(self):
        for g in self.grads.values():
            g[:] = 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.weights.shape[1]:
            raise ShapeError(f"dense: input {x.shape}, expected [B, {self.weights.shape[1]}]")
        z = x @ self.weights.T + self.bias
        self._x, self._z = x, z
        if self.activation == "relu":
            self._out = np.maximum(z, 0.0)
        elif self.activation == "sigmoid":
            self._out = sigmoid(z)
        else:
            self._out = z
        return self._out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if d_out.shape != self._out.shape:
            raise ShapeError(f"dense: output gradient {d_out.shape}, expected {self._out.shape}")
        if self.activation == "relu":
            dz = d_out * (self._z > 0)
        elif self.activation == "sigmoid":
            dz = d_out * sigmoid_grad(self._out)
        else:
            dz = d_out
        self.grads["weights"] += dz.T @ self._x
        self.grads["bias"] += dz.sum(axis=0)
        return dz @ self.weights


class Recurrent:
    """Unidirectional cell run over [B, T, d], emitting all hidden states."""

    def __init__(self, cell: CellParams):
        self.cell = cell
        self.grads = cell_zero_grads(cell)
        self._cache = None

    def params(self):
        return dict(self.cell.tensors)

    def zero_grads(self):
        for g in self.grads.values():
            g[:] = 0.0

    def forward(self, xs: np.ndarray) -> np.ndarray:
        hs, self._cache = sequence_forward(self.cell, xs.transpose(1, 0, 2))
        return hs.transpose(1, 0, 2)

    def backward(self, d_hs: np.ndarray) -> np.ndarray:
        grads, d_xs, _ = sequence_backward(self.cell, self._cache, d_hs.transpose(1, 0, 2))
        self._cache = None
        for name, g in grads.items():
            self.grads[name] += g
        return d_xs.transpose(1, 0, 2)


class Bidirectional:
    """Two cells over [B, T, d], one time-reversed, outputs concatenated.

    Output row t is [forward state after x_0..x_t | backward state after
    x_{T-1}..x_t], width 2n.
    """

    def __init__(self, fwd: CellParams, bwd: CellParams):
        if fwd.hidden_dim != bwd.hidden_dim:
            raise ConfigError(
                f"bidirectional halves disagree on width: {fwd.hidden_dim} vs {bwd.hidden_dim}")
        self.fwd = fwd
        self.bwd = bwd
        self.grads = {f"fwd.{k}": v for k, v in cell_zero_grads(fwd).items()}
        self.grads.update({f"bwd.{k}": v for k, v in cell_zero_grads(bwd).items()})
        self._caches = None

    def params(self):
        out = {f"fwd.{k}": v for k, v in self.fwd.tensors.items()}
        out.update({f"bwd.{k}": v for k, v in self.bwd.tensors.items()})
        return out

    def zero_grads(self):
        for g in self.grads.values():
            g[:] = 0.0

    def forward(self, xs: np.ndarray) -> np.ndarray:
        xs_t = xs.transpose(1, 0, 2)
        hs_f, cache_f = sequence_forward(self.fwd, xs_t)
        hs_b, cache_b = sequence_forward(self.bwd, xs_t[::-1])
        self._caches = (cache_f, cache_b)
        return np.concatenate([hs_f, hs_b[::-1]], axis=2).transpose(1, 0, 2)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        n = self.fwd.hidden_dim
        cache_f, cache_b = self._caches
        self._caches = None
        d_t = d_out.transpose(1, 0, 2)
        grads_f, d_xs_f, _ = sequence_backward(self.fwd, cache_f, d_t[:, :, :n])
        grads_b, d_xs_b, _ = sequence_backward(self.bwd, cache_b, d_t[::-1, :, n:])
        for name, g in grads_f.items():
            self.grads[f"fwd.{name}"] += g
        for name, g in grads_b.items():
            self.grads[f"bwd.{name}"] += g
        return (d_xs_f + d_xs_b[::-1]).transpose(1, 0, 2)


@dataclass
class ModelHyper:
    """Layer sizes and rates for the classification model."""

    vocab_size: int = 20000
    embed_dim: int = 128
    conv_filters: int = 64
    kernel_size: int = 5
    pool_size: int = 4
    hidden: int = 64
    maxlen: int = 32
    spatial_dropout: float = 0.4
    dense_dropout: float = 0.2
    extra_dense_dims: tuple[int, ...] = (64, 32, 16)


@dataclass
class ModelSpec:
    """Architecture switches: which cell variant and how blocks are ordered."""

    variant: Variant = Variant.LSTM0
    lstm_position: str = CNN_THEN_LSTM
    extra_dense: bool = False
    bidirectional_tail: bool = True
    alpha: float = 0.59
    forget_bias: float = 1.0

    def __post_init__(self):
        if self.lstm_position not in (CNN_THEN_LSTM, LSTM_THEN_CNN):
            raise ConfigError(
                f"lstm_position must be {CNN_THEN_LSTM!r} or {LSTM_THEN_CNN!r}, "
                f"got {self.lstm_position!r}")


def _dense_init(out_dim: int, in_dim: int, rng: Rng, activation: str) -> Dense:
    s = 1.0 / np.sqrt(in_dim)
    return Dense(rng.uniform((out_dim, in_dim), -s, s), np.zeros(out_dim), activation)


class SentimentModel:
    """The full ids -> probability pipeline with manual backward.

    Canonical stack (cnn-then-lstm): embedding, spatial dropout, conv+relu,
    maxpool, unidirectional variant cell, bidirectional tail, optional extra
    dense/dropout trio, sigmoid head reading the tail's final timestep.
    lstm-then-cnn runs the variant cell directly on embeddings and convolves
    its hidden states instead.
    """

    def __init__(self, spec: ModelSpec, hyper: ModelHyper, rng: Rng):
        self.spec = spec
        self.hyper = hyper
        h = hyper
        self._validate_lengths(spec, h)

        s_e = 0.05  # embedding init range, matching common framework defaults
        self.embedding = Embedding(rng.uniform((h.vocab_size, h.embed_dim), -s_e, s_e))
        self.spatial_dropout = Dropout(h.spatial_dropout, mode="spatial")

        conv_channels = h.embed_dim if spec.lstm_position == CNN_THEN_LSTM else h.hidden
        s_k = 1.0 / np.sqrt(h.kernel_size * conv_channels)
        self.conv = Conv1D(
            rng.uniform((h.conv_filters, h.kernel_size, conv_channels), -s_k, s_k),
            np.zeros(h.conv_filters), activation="relu")
        self.pool = MaxPool1D(h.pool_size)

        rnn_in = h.conv_filters if spec.lstm_position == CNN_THEN_LSTM else h.embed_dim
        self.rnn = Recurrent(init_params(
            spec.variant, rnn_in, h.hidden, rng.derive(1),
            alpha=spec.alpha, forget_bias=spec.forget_bias))

        tail_in = h.hidden if spec.lstm_position == CNN_THEN_LSTM else h.conv_filters
        if spec.bidirectional_tail:
            self.tail = Bidirectional(
                init_params(Variant.LSTM0, tail_in, h.hidden, rng.derive(2),
                            forget_bias=spec.forget_bias),
                init_params(Variant.LSTM0, tail_in, h.hidden, rng.derive(3),
                            forget_bias=spec.forget_bias))
            feat = 2 * h.hidden
        else:
            self.tail = None
            feat = tail_in

        self.extra_dense: list[Dense] = []
        self.extra_dropout: list[Dropout] = []
        if spec.extra_dense:
            stage = rng.derive(4)
            for width in h.extra_dense_dims:
                self.extra_dense.append(_dense_init(width, feat, stage, "relu"))
                self.extra_dropout.append(Dropout(h.dense_dropout, mode="elementwise"))
                feat = width

        self.head = _dense_init(1, feat, rng.derive(5), "sigmoid")
        self._tail_T = None

    @staticmethod
    def _validate_lengths(spec: ModelSpec, h: ModelHyper) -> None:
        if spec.lstm_position == CNN_THEN_LSTM:
            conv_out = h.maxlen - h.kernel_size + 1
            chain = "embedding->conv"
        else:
            conv_out = h.maxlen - h.kernel_size + 1  # rnn preserves length
            chain = "rnn->conv"
        if conv_out < 1:
            raise ConfigError(
                f"{chain}: sequence length {h.maxlen} shorter than kernel_size "
                f"{h.kernel_size}")
        if conv_out // h.pool_size < 1:
            raise ConfigError(
                f"conv->pool: conv output length {conv_out} < pool_size {h.pool_size}")

    def _ordered_layers(self):
        layers = [("embedding", self.embedding), ("conv", self.conv), ("rnn", self.rnn)]
        if self.tail is not None:
            layers.append(("tail", self.tail))
        layers.extend((f"dense{k}", d) for k, d in enumerate(self.extra_dense))
        layers.append(("head", self.head))
        return layers

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for prefix, layer in self._ordered_layers():
            out.extend((f"{prefix}.{name}", arr) for name, arr in sorted(layer.params().items()))
        return out

    @property
    def grads(self) -> dict[str, np.ndarray]:
        out = {}
        for prefix, layer in self._ordered_layers():
            out.update({f"{prefix}.{name}": arr for name, arr in layer.grads.items()})
        return out

    def zero_grads(self) -> None:
        for _, layer in self._ordered_layers():
            layer.zero_grads()

    def param_count(self) -> int:
        return sum(arr.size for _, arr in self.named_params())

    def forward(self, ids: np.ndarray, training: bool = False,
                rng: Rng | None = None):
        """Probabilities [B] for ids [B, T]; a single sequence ids [T] is a
        batch of one and gives a float."""
        ids = np.asarray(ids)
        if ids.ndim not in (1, 2):
            raise ShapeError(f"model: need ids [B, T] or [T], got {ids.shape}")
        single = ids.ndim == 1
        x = self.embedding.forward(ids[None] if single else ids)
        x = self.spatial_dropout.forward(x, rng, training)
        if self.spec.lstm_position == CNN_THEN_LSTM:
            x = self.conv.forward(x)
            x = self.pool.forward(x)
            x = self.rnn.forward(x)
        else:
            x = self.rnn.forward(x)
            x = self.conv.forward(x)
            x = self.pool.forward(x)
        if self.tail is not None:
            x = self.tail.forward(x)
        self._tail_T = x.shape[1]
        feat = x[:, -1]  # final timestep
        for dense, drop in zip(self.extra_dense, self.extra_dropout):
            feat = dense.forward(feat)
            feat = drop.forward(feat, rng, training)
        p = self.head.forward(feat)[:, 0]
        return float(p[0]) if single else p

    def backward(self, d_loss) -> dict[str, np.ndarray]:
        """Backpropagate d(loss)/d(probability), one value per batch row (a
        float after a single-sequence forward); returns the grads dict."""
        d_feat = self.head.backward(np.asarray(d_loss, dtype=np.float64).reshape(-1, 1))
        for dense, drop in zip(reversed(self.extra_dense), reversed(self.extra_dropout)):
            d_feat = drop.backward(d_feat)
            d_feat = dense.backward(d_feat)
        d_seq = np.zeros((d_feat.shape[0], self._tail_T, d_feat.shape[1]))
        d_seq[:, -1] = d_feat
        if self.tail is not None:
            d_seq = self.tail.backward(d_seq)
        if self.spec.lstm_position == CNN_THEN_LSTM:
            d_seq = self.rnn.backward(d_seq)
            d_seq = self.pool.backward(d_seq)
            d_seq = self.conv.backward(d_seq)
        else:
            d_seq = self.pool.backward(d_seq)
            d_seq = self.conv.backward(d_seq)
            d_seq = self.rnn.backward(d_seq)
        d_seq = self.spatial_dropout.backward(d_seq)
        self.embedding.backward(d_seq)
        return self.grads

    def expected_param_count(self) -> int:
        """Closed-form total, cross-checkable against param_count()."""
        h, spec = self.hyper, self.spec
        total = h.vocab_size * h.embed_dim
        conv_channels = h.embed_dim if spec.lstm_position == CNN_THEN_LSTM else h.hidden
        total += h.conv_filters * h.kernel_size * conv_channels + h.conv_filters
        rnn_in = h.conv_filters if spec.lstm_position == CNN_THEN_LSTM else h.embed_dim
        total += count_params(spec.variant, rnn_in, h.hidden)
        tail_in = h.hidden if spec.lstm_position == CNN_THEN_LSTM else h.conv_filters
        feat = tail_in
        if spec.bidirectional_tail:
            total += 2 * count_params(Variant.LSTM0, tail_in, h.hidden)
            feat = 2 * h.hidden
        if spec.extra_dense:
            for width in h.extra_dense_dims:
                total += width * feat + width
                feat = width
        total += feat + 1  # head
        return total


def build_model(spec: ModelSpec, hyper: ModelHyper, rng: Rng) -> SentimentModel:
    return SentimentModel(spec, hyper, rng)
