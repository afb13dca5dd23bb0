"""Non-recurrent layers, the bidirectional wrapper, and model assembly.

Every layer is batch-major: sequences travel as [B, T, features] and vectors
as [B, features]. Each layer caches what its backward pass needs on forward,
accumulates parameter gradients into its ``grads`` dict across calls (the
recurrent layers' are their cells' own), and returns the gradient w.r.t. its
input. Layers do not zero their own gradients: the model zeroes all of them
in one loop (SentimentModel.zero_grads). The recurrent and conv layers
release their caches in backward, so a batch's activations are freed before
the optimizer step; each backward needs a forward of its own. The recurrent
layers hand the cells time-major [T, B, features] views. The embedding's
gradient is row-sparse: it keeps a row end, past which every row is zero,
and the model hands it to clipping and the optimizer as ``row_ends``. It
is allocated by ``numeric.mapped_zeros``, as the optimizer's slots are.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cells import (
    CellParams,
    Variant,
    init_params,
    sequence_backward,
    sequence_forward,
)
from .errors import ConfigError, DataError, ShapeError
from .numeric import mapped_zeros, sigmoid, sigmoid_grad
from .rng import Rng

if TYPE_CHECKING:
    from .training import ExperimentConfig

CNN_THEN_LSTM = "cnn-then-lstm"
LSTM_THEN_CNN = "lstm-then-cnn"


class Embedding:
    """Token-id lookup table [V, e]: ids of any shape gain a trailing e axis.

    Backward writes only the looked-up rows of the table gradient, so the
    layer keeps ``row_end``, one past the highest row written since the
    model's zero_grads, which clears just the rows before it and resets it;
    every row from it on stays exactly zero. The gradient lives in pages
    mapped for it alone (``numeric.mapped_zeros``), so rows never reached
    occupy no memory.
    """

    def __init__(self, table: np.ndarray):
        self.table = table
        self.grads = {"table": mapped_zeros(table.shape, table.dtype)}
        self.row_end = 0
        self._ids = None

    def params(self):
        return {"table": self.table}

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
        ids = self._ids.ravel()
        np.add.at(self.grads["table"], ids, d_out.reshape(-1, self.table.shape[1]))
        if ids.size:
            self.row_end = max(self.row_end, int(ids.max()) + 1)
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
        self._mask = None

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
    """Valid cross-correlation, stride 1, then ReLU: kernels [F, k, C] over
    inputs [B, L, C], computed as one GEMM over im2col rows
    [B * L_out, k * C]. The input, not its k times larger im2col copy, is
    kept for backward."""

    def __init__(self, kernels: np.ndarray, bias: np.ndarray):
        self.kernels = kernels
        self.bias = bias
        self.grads = {"kernels": np.zeros_like(kernels), "bias": np.zeros_like(bias)}
        self._x = None
        self._z = None

    def params(self):
        return {"kernels": self.kernels, "bias": self.bias}

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
        return np.maximum(self._z, 0.0)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        F, k, C = self.kernels.shape
        dz = d_out * (self._z > 0)
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
        self._arg = None
        self._in_shape = None

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
    """Affine map with an activation over rows: act(x @ weights.T + bias),
    act ``"relu"`` or ``"sigmoid"``."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: str):
        if activation not in ("relu", "sigmoid"):
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.weights.shape[1]:
            raise ShapeError(f"dense: input {x.shape}, expected [B, {self.weights.shape[1]}]")
        z = x @ self.weights.T + self.bias
        self._x, self._z = x, z
        self._out = np.maximum(z, 0.0) if self.activation == "relu" else sigmoid(z)
        return self._out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if d_out.shape != self._out.shape:
            raise ShapeError(f"dense: output gradient {d_out.shape}, expected {self._out.shape}")
        if self.activation == "relu":
            dz = d_out * (self._z > 0)
        else:
            dz = d_out * sigmoid_grad(self._out)
        self.grads["weights"] += dz.T @ self._x
        self.grads["bias"] += dz.sum(axis=0)
        return dz @ self.weights


class Recurrent:
    """Unidirectional cell run over [B, T, d], emitting all hidden states."""

    def __init__(self, cell: CellParams):
        self.cell = cell
        self.grads = cell.grads
        self._cache = None

    def params(self):
        return dict(self.cell.tensors)

    def forward(self, xs: np.ndarray) -> np.ndarray:
        hs, self._cache = sequence_forward(self.cell, xs.transpose(1, 0, 2))
        return hs.transpose(1, 0, 2)

    def backward(self, d_hs: np.ndarray) -> np.ndarray:
        d_xs, _ = sequence_backward(self.cell, self._cache, d_hs.transpose(1, 0, 2))
        self._cache = None
        return d_xs.transpose(1, 0, 2)


def _halves(fwd: dict, bwd: dict) -> dict:
    """One table of both cells' entries, prefixed "fwd." and "bwd."."""
    return {f"fwd.{k}": v for k, v in fwd.items()} | {f"bwd.{k}": v for k, v in bwd.items()}


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
        self.grads = _halves(fwd.grads, bwd.grads)
        self._caches = None

    def params(self):
        return _halves(self.fwd.tensors, self.bwd.tensors)

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
        d_xs_f, _ = sequence_backward(self.fwd, cache_f, d_t[:, :, :n])
        d_xs_b, _ = sequence_backward(self.bwd, cache_b, d_t[::-1, :, n:])
        return (d_xs_f + d_xs_b[::-1]).transpose(1, 0, 2)


class LastStep:
    """The final timestep of [B, T, F], as [B, F]; backward puts the
    gradient back at step T - 1 and zeros everywhere else."""

    def __init__(self):
        self._in_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._in_shape = x.shape
        return x[:, -1]

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        d_x = np.zeros(self._in_shape)
        d_x[:, -1] = d_out
        return d_x


def _dense_init(out_dim: int, in_dim: int, rng: Rng, activation: str) -> Dense:
    s = 1.0 / np.sqrt(in_dim)
    return Dense(rng.uniform((out_dim, in_dim), -s, s), np.zeros(out_dim), activation)


class SentimentModel:
    """The full ids -> probability pipeline with manual backward.

    Canonical stack (cnn-then-lstm): embedding, spatial dropout, conv+relu,
    maxpool, unidirectional variant cell, bidirectional tail, optional extra
    dense/dropout trio, sigmoid head reading the tail's final timestep.
    lstm-then-cnn runs the variant cell directly on embeddings and convolves
    its hidden states instead. Sizes, rates and switches are read from the
    experiment config (which has already checked them); its training fields
    play no part here.

    The constructor fixes the structure once: the sequence chain between
    spatial dropout and the dense stack, which forward runs in order and
    backward in reverse, and the parameter and gradient name tables, in the
    order embedding, conv, rnn, tail, dense*, head for both positions.
    Clipping sums squares tensor by tensor in that order.
    """

    def __init__(self, config: ExperimentConfig, rng: Rng):
        self.config = c = config
        self.variant = Variant.parse(c.variant)
        cnn_first = c.lstm_position == CNN_THEN_LSTM

        s_e = 0.05  # embedding init range, matching common framework defaults
        self.embedding = Embedding(rng.uniform((c.vocab_size, c.embed_dim), -s_e, s_e))
        self.spatial_dropout = Dropout(c.spatial_dropout, mode="spatial")

        conv_channels = c.embed_dim if cnn_first else c.hidden
        s_k = 1.0 / np.sqrt(c.kernel_size * conv_channels)
        self.conv = Conv1D(
            rng.uniform((c.conv_filters, c.kernel_size, conv_channels), -s_k, s_k),
            np.zeros(c.conv_filters))
        self.pool = MaxPool1D(c.pool_size)

        rnn_in = c.conv_filters if cnn_first else c.embed_dim
        self.rnn = Recurrent(init_params(
            self.variant, rnn_in, c.hidden, rng.derive(1),
            alpha=c.alpha, forget_bias=c.forget_bias))

        tail_in = c.hidden if cnn_first else c.conv_filters
        if c.bidirectional_tail:
            self.tail = Bidirectional(
                init_params(Variant.LSTM0, tail_in, c.hidden, rng.derive(2),
                            forget_bias=c.forget_bias),
                init_params(Variant.LSTM0, tail_in, c.hidden, rng.derive(3),
                            forget_bias=c.forget_bias))
            feat = 2 * c.hidden
        else:
            self.tail = None
            feat = tail_in

        self.extra_dense: list[Dense] = []
        self.extra_dropout: list[Dropout] = []
        if c.extra_dense:
            stage = rng.derive(4)
            for width in c.extra_dense_dims:
                self.extra_dense.append(_dense_init(width, feat, stage, "relu"))
                self.extra_dropout.append(Dropout(c.dense_dropout, mode="elementwise"))
                feat = width

        self.head = _dense_init(1, feat, rng.derive(5), "sigmoid")

        encoders = ([self.conv, self.pool, self.rnn] if cnn_first
                    else [self.rnn, self.conv, self.pool])
        tail = [] if self.tail is None else [self.tail]
        self._chain = encoders + tail + [LastStep()]

        named = [("embedding", self.embedding), ("conv", self.conv), ("rnn", self.rnn)]
        named += [("tail", layer) for layer in tail]
        named += [(f"dense{k}", layer) for k, layer in enumerate(self.extra_dense)]
        named.append(("head", self.head))
        self._params = [(f"{prefix}.{name}", arr) for prefix, layer in named
                        for name, arr in sorted(layer.params().items())]
        self._grads = {f"{prefix}.{name}": g for prefix, layer in named
                       for name, g in layer.grads.items()}

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        return list(self._params)

    @property
    def grads(self) -> dict[str, np.ndarray]:
        return dict(self._grads)

    @property
    def row_ends(self) -> dict[str, int]:
        """Per row-sparse gradient, the row from which it is zero (the
        ``ends`` argument of clipping and the optimizers)."""
        return {"embedding.table": self.embedding.row_end}

    def zero_grads(self) -> None:
        """Zero every gradient up to its row end, then reset the row end."""
        ends = self.row_ends
        for name, g in self._grads.items():
            g[:ends.get(name, len(g))] = 0.0
        self.embedding.row_end = 0

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
        for layer in self._chain:
            x = layer.forward(x)
        for dense, drop in zip(self.extra_dense, self.extra_dropout):
            x = drop.forward(dense.forward(x), rng, training)
        p = self.head.forward(x)[:, 0]
        return float(p[0]) if single else p

    def backward(self, d_loss) -> dict[str, np.ndarray]:
        """Backpropagate d(loss)/d(probability), one value per batch row (a
        float after a single-sequence forward); returns the grads dict."""
        d = self.head.backward(np.asarray(d_loss, dtype=np.float64).reshape(-1, 1))
        for dense, drop in zip(reversed(self.extra_dense), reversed(self.extra_dropout)):
            d = dense.backward(drop.backward(d))
        for layer in reversed(self._chain):
            d = layer.backward(d)
        self.embedding.backward(self.spatial_dropout.backward(d))
        return self.grads
