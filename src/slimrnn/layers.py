"""The layers, the recurrent wrappers around cells, and model assembly.

Every layer is batch-major: sequences travel as [B, T, features] and vectors
as [B, features]. No layer keeps activations: ``forward`` returns its output
and a cache, and ``backward(cache, d_out)`` takes that cache back,
accumulates parameter gradients into the layer's ``grads`` dict across
calls (the recurrent layers' are their cells' own), and returns the
gradient w.r.t. its input. The two recurrent layers follow one rule: the
model builds their cells alike, and each hands them time-major [T, B, ·]
views and caches the tuple of their caches, forward cell first. The model
records a forward's (layer, cache) pairs in call order as one tape, and its
backward runs the tape in reverse and drops it, so a batch's activations
are freed before the optimizer step; each backward needs a plain forward of
its own, and the model refuses any other with a ShapeError. Layers do not
zero their own gradients: the model zeroes all of them in one loop
(SentimentModel.zero_grads). The embedding's gradient is row-sparse: it
keeps a row end, past which every row is zero, and the model hands it to
clipping and the optimizer as ``row_ends``. It is allocated by
``numeric.mapped_zeros``, as the optimizer's slots are.

Evaluation (``SentimentModel.predict``, dropout off) skips what every
record's leading PAD_IDs compute: those steps give the same conv, pool and
recurrent states in every record. Records are regrouped into full chunks
of EVAL_CHUNK by how many pooled steps see only padding (``padding_steps``);
the most padded chunk runs as a plain forward, and the recurrent layers'
states it passed through are copied off each layer's cache as that layer
returns (a ``Lead`` each). Every other full chunk is a forward of its ids
after their shared padding, from its Leads. No forward in ``predict``
keeps a tape: it hands each cache to ``predict`` (``forward``'s ``take``)
or drops it, so evaluation holds one layer's activations at a time, plus
the Leads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cells import (
    CellParams,
    CellState,
    SequenceCache,
    Variant,
    init_params,
    sequence_backward,
    sequence_forward,
)
from .errors import ConfigError, DataError, ShapeError
from .numeric import mapped_zeros, sigmoid, sigmoid_grad
from .rng import Rng
from .textdata import PAD_ID

if TYPE_CHECKING:
    from .training import ExperimentConfig

CNN_THEN_LSTM = "cnn-then-lstm"
LSTM_THEN_CNN = "lstm-then-cnn"

# Records per evaluation forward pass, which bounds evaluation memory for
# any dataset. SentimentModel.predict regroups the full chunks by leading
# padding and runs all but the first after their shared padding, from the
# first's recurrent states. Those shorter products keep at least this many
# rows, and its results match plain forwards only while a GEMM row's bits
# do not depend on the row count from there on (19 rows for the model's
# shapes; see the README).
EVAL_CHUNK = 32


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

    def params(self):
        return {"table": self.table}

    def forward(self, ids: np.ndarray):
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.table.shape[0]):
            raise DataError(
                f"embedding lookup: id out of range [0, {self.table.shape[0]}), "
                f"got min={ids.min()} max={ids.max()}"
            )
        return self.table[ids], ids

    def backward(self, ids: np.ndarray, d_out: np.ndarray):
        ids = ids.ravel()
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

    def forward(self, x: np.ndarray, rng: Rng | None = None, training: bool = False):
        """The output, and the mask as the cache (None for the identity)."""
        if not training or self.rate == 0.0:
            return x, None
        if rng is None:
            raise ConfigError("dropout in training mode needs an rng")
        shape = x.shape
        if self.mode == "spatial" and x.ndim >= 2:
            shape = x.shape[:-2] + (1, x.shape[-1])
        mask = (rng.uniform(shape) >= self.rate) / (1.0 - self.rate)
        return x * mask, mask

    def backward(self, mask: np.ndarray | None, d_out: np.ndarray) -> np.ndarray:
        return d_out if mask is None else d_out * mask


class Conv1D:
    """Valid cross-correlation, stride 1, then ReLU: kernels [F, k, C] over
    inputs [B, L, C], computed as one GEMM over im2col rows
    [B * L_out, k * C]. The cache holds the input, not its k times larger
    im2col copy, and the pre-activations."""

    def __init__(self, kernels: np.ndarray, bias: np.ndarray):
        self.kernels = kernels
        self.bias = bias
        self.grads = {"kernels": np.zeros_like(kernels), "bias": np.zeros_like(bias)}

    def params(self):
        return {"kernels": self.kernels, "bias": self.bias}

    @staticmethod
    def _im2col(x: np.ndarray, k: int) -> np.ndarray:
        """Rows x[b, t:t+k] flattened tap-major: [B * (L-k+1), k * C]."""
        B, L, C = x.shape
        windows = sliding_window_view(x, k, axis=1)  # [B, L-k+1, C, k]
        return windows.transpose(0, 1, 3, 2).reshape(B * (L - k + 1), k * C)

    def forward(self, x: np.ndarray):
        F, k, C = self.kernels.shape
        if x.ndim != 3 or x.shape[2] != C:
            raise ShapeError(f"conv1d: input {x.shape} incompatible with kernels {self.kernels.shape}")
        if x.shape[1] < k:
            raise ShapeError(f"conv1d: input length {x.shape[1]} < kernel size {k}")
        z = self._im2col(x, k) @ self.kernels.reshape(F, k * C).T + self.bias
        z = z.reshape(x.shape[0], -1, F)
        return np.maximum(z, 0.0), (x, z)

    def backward(self, cache: tuple, d_out: np.ndarray) -> np.ndarray:
        x, z = cache
        F, k, C = self.kernels.shape
        dz = d_out * (z > 0)
        B, L_out, _ = dz.shape
        dz_rows = dz.reshape(B * L_out, F)
        self.grads["kernels"] += (dz_rows.T @ self._im2col(x, k)).reshape(F, k, C)
        self.grads["bias"] += dz_rows.sum(axis=0)
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

    def forward(self, x: np.ndarray):
        if x.ndim != 3:
            raise ShapeError(f"maxpool1d: need input [B, L, F], got {x.shape}")
        B, L, F = x.shape
        windows = L // self.pool
        if windows < 1:
            raise ShapeError(f"maxpool1d: input length {L} < pool {self.pool}")
        blocks = x[:, : windows * self.pool].reshape(B, windows, self.pool, F)
        arg = blocks.argmax(axis=2)[:, :, None]  # first max wins ties
        return blocks.max(axis=2), (arg, x.shape)

    def backward(self, cache: tuple, d_out: np.ndarray) -> np.ndarray:
        arg, in_shape = cache
        B, windows, F = d_out.shape
        d_x = np.zeros(in_shape)
        d_blocks = d_x[:, : windows * self.pool].reshape(B, windows, self.pool, F)  # a view
        np.put_along_axis(d_blocks, arg, d_out[:, :, None], axis=2)
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

    def params(self):
        return {"weights": self.weights, "bias": self.bias}

    def forward(self, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != self.weights.shape[1]:
            raise ShapeError(f"dense: input {x.shape}, expected [B, {self.weights.shape[1]}]")
        z = x @ self.weights.T + self.bias
        out = np.maximum(z, 0.0) if self.activation == "relu" else sigmoid(z)
        return out, (x, z, out)

    def backward(self, cache: tuple, d_out: np.ndarray) -> np.ndarray:
        x, z, out = cache
        if d_out.shape != out.shape:
            raise ShapeError(f"dense: output gradient {d_out.shape}, expected {out.shape}")
        if self.activation == "relu":
            dz = d_out * (z > 0)
        else:
            dz = d_out * sigmoid_grad(out)
        self.grads["weights"] += dz.T @ x
        self.grads["bias"] += dz.sum(axis=0)
        return dz @ self.weights


@dataclass(frozen=True)
class Lead:
    """The steps cut from the front of a recurrent layer's input, which
    every row of a forward from Leads shares: their input rows ``xs``
    [S, d], and the (forward) cell's states ``h`` and ``c`` [S + 1, n] from
    the zero start on. The layer starts its cell from the last state; a
    reverse cell still reads ``xs``, after the row's own steps."""

    xs: np.ndarray
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def read(cls, cache: SequenceCache, steps: int) -> "Lead":
        """Batch row 0's first ``steps`` steps of a forward's cache, copied."""
        return cls(cache.x[:steps, 0].copy(), cache.h[:steps + 1, 0].copy(),
                   cache.c[:steps + 1, 0].copy())

    def first(self, steps: int) -> "Lead":
        return Lead(self.xs[:steps], self.h[:steps + 1], self.c[:steps + 1])

    def start(self, batch: int) -> CellState:
        shape = (batch, self.h.shape[1])
        return CellState(np.broadcast_to(self.h[-1], shape), np.broadcast_to(self.c[-1], shape))


class Recurrent:
    """Unidirectional cell run over [B, T, d], emitting all hidden states.
    Given a Lead, the input starts after it and so do the outputs. The cache
    is (its cell's cache,)."""

    def __init__(self, cell: CellParams):
        self.cell = cell
        self.grads = cell.grads

    def params(self):
        return dict(self.cell.tensors)

    def forward(self, xs: np.ndarray, lead: Lead | None = None):
        init = None if lead is None else lead.start(len(xs))
        hs, cache = sequence_forward(self.cell, xs.transpose(1, 0, 2), init)
        return hs.transpose(1, 0, 2), (cache,)

    def backward(self, caches: tuple, d_hs: np.ndarray) -> np.ndarray:
        d_xs, _ = sequence_backward(self.cell, caches[0], d_hs.transpose(1, 0, 2))
        return d_xs.transpose(1, 0, 2)


def _halves(fwd: dict, bwd: dict) -> dict:
    """One table of both cells' entries, prefixed "fwd." and "bwd."."""
    return {f"fwd.{k}": v for k, v in fwd.items()} | {f"bwd.{k}": v for k, v in bwd.items()}


class Bidirectional:
    """Two cells over [B, T, d], one time-reversed, final states concatenated.

    The output [B, 2n] is [forward state after x_0..x_{T-1} | backward state
    after x_{T-1}..x_0], as Keras ``Bidirectional(LSTM(n))`` returns it; so
    both cells read the whole sequence and every tensor of both trains.
    Backward hands each cell the gradient of its last state alone.
    """

    def __init__(self, fwd: CellParams, bwd: CellParams):
        if fwd.hidden_dim != bwd.hidden_dim:
            raise ConfigError(
                f"bidirectional halves disagree on width: {fwd.hidden_dim} vs {bwd.hidden_dim}")
        self.fwd = fwd
        self.bwd = bwd
        self.grads = _halves(fwd.grads, bwd.grads)

    def params(self):
        return _halves(self.fwd.tensors, self.bwd.tensors)

    def forward(self, xs: np.ndarray, lead: Lead | None = None):
        """The output, and (forward cell's cache, backward cell's cache).
        Given a Lead, the forward cell starts after it and the backward cell
        reads its rows after the input's own."""
        xs_t = xs.transpose(1, 0, 2)
        B = len(xs)
        hs_f, cache_f = sequence_forward(self.fwd, xs_t, None if lead is None else lead.start(B))
        if lead is not None:
            shared = np.broadcast_to(lead.xs[:, None], (len(lead.xs), B, xs.shape[2]))
            xs_t = np.concatenate([shared, xs_t])
        hs_b, cache_b = sequence_forward(self.bwd, xs_t[::-1])
        return np.concatenate([hs_f[-1], hs_b[-1]], axis=1), (cache_f, cache_b)

    def backward(self, caches: tuple, d_out: np.ndarray) -> np.ndarray:
        n = self.fwd.hidden_dim
        d_xs_f, _ = sequence_backward(self.fwd, caches[0], d_out[None, :, :n])
        d_xs_b, _ = sequence_backward(self.bwd, caches[1], d_out[None, :, n:])
        return (d_xs_f + d_xs_b[::-1]).transpose(1, 0, 2)


class LastStep:
    """The final timestep of [B, T, F], as [B, F]; backward puts the
    gradient back at step T - 1 and zeros everywhere else. It ends the
    chain of a model with no bidirectional tail."""

    def forward(self, x: np.ndarray):
        return x[:, -1], x.shape

    def backward(self, in_shape: tuple, d_out: np.ndarray) -> np.ndarray:
        d_x = np.zeros(in_shape)
        d_x[:, -1] = d_out
        return d_x


def padding_steps(ids: np.ndarray, kernel_size: int, pool_size: int) -> np.ndarray:
    """Per row of ids [B, T], the pooled steps j that see only its leading
    PAD_IDs: with L of them, j = min(T_pool, max(0, (L - k + 1) // p)) for
    conv kernel k, pool p and pooled length T_pool = (T - k + 1) // p. Pooled
    step m reads positions up to p * m + p + k - 2, so the first j read
    padding alone, at either lstm position."""
    words = np.asarray(ids) != PAD_ID
    T = words.shape[1]
    lead = np.where(words.any(axis=1), words.argmax(axis=1), T)
    return np.clip((lead - kernel_size + 1) // pool_size, 0, (T - kernel_size + 1) // pool_size)


NO_FORWARD = ("model backward: no forward to backpropagate; each backward needs a "
              "plain forward of its own, and evaluation keeps none")


def _dense_init(out_dim: int, in_dim: int, rng: Rng, activation: str, dtype: type) -> Dense:
    s = 1.0 / np.sqrt(in_dim)
    return Dense(rng.uniform((out_dim, in_dim), -s, s).astype(dtype, copy=False),
                 np.zeros(out_dim, dtype), activation)


class SentimentModel:
    """The full ids -> probability pipeline with manual backward.

    Canonical stack (cnn-then-lstm): embedding, spatial dropout, conv+relu,
    maxpool, unidirectional variant cell, bidirectional tail (both cells'
    final states), optional extra dense/dropout stages, sigmoid head. With
    no tail the head reads the last timestep of the encoders' output.
    lstm-then-cnn runs the variant cell directly on embeddings and convolves
    its hidden states instead. Sizes, rates and switches are read from the
    experiment config (which has already checked them); its training fields
    play no part here.

    The constructor fixes the structure once: the chain from spatial
    dropout's [B, T, ·] output to the dense stack's [B, ·] input (encoders,
    then the tail or LastStep), which forward runs in order, and the
    parameter and gradient name tables, in the order embedding, conv, rnn,
    tail, dense*, head for both positions. Clipping sums squares tensor by
    tensor in that order. ``dtype`` is float64, or complex128 in the
    gradient check's forward-only twin. The model alone holds activations:
    the tape of its last direct plain forward, or None (``self._tape``).
    """

    def __init__(self, config: ExperimentConfig, rng: Rng, dtype: type = np.float64):
        c = config
        cnn_first = c.lstm_position == CNN_THEN_LSTM

        s_e = 0.05  # embedding init range, matching common framework defaults
        self.embedding = Embedding(
            rng.uniform((c.vocab_size, c.embed_dim), -s_e, s_e).astype(dtype, copy=False))
        self.spatial_dropout = Dropout(c.spatial_dropout, mode="spatial")

        conv_channels = c.embed_dim if cnn_first else c.hidden
        s_k = 1.0 / np.sqrt(c.kernel_size * conv_channels)
        kernels = rng.uniform((c.conv_filters, c.kernel_size, conv_channels), -s_k, s_k)
        self.conv = Conv1D(kernels.astype(dtype, copy=False), np.zeros(c.conv_filters, dtype))
        self.pool = MaxPool1D(c.pool_size)

        def cell(variant: Variant, width: int, stream: int) -> CellParams:
            return init_params(variant, width, c.hidden, rng.derive(stream), alpha=c.alpha,
                               forget_bias=c.forget_bias, dtype=dtype)

        rnn_in = c.conv_filters if cnn_first else c.embed_dim
        self.rnn = Recurrent(cell(Variant.parse(c.variant), rnn_in, 1))
        # Each recurrent layer with its steps per pooled step.
        self._recurrent = {self.rnn: 1 if cnn_first else c.pool_size}

        tail_in = c.hidden if cnn_first else c.conv_filters
        if c.bidirectional_tail:
            self.tail = Bidirectional(cell(Variant.LSTM0, tail_in, 2),
                                      cell(Variant.LSTM0, tail_in, 3))
            self._recurrent[self.tail] = 1
            feat = 2 * c.hidden
        else:
            self.tail = None
            feat = tail_in

        self.extra_dense: list[Dense] = []
        self.extra_dropout: list[Dropout] = []
        if c.extra_dense:
            stage = rng.derive(4)
            for width in c.extra_dense_dims:
                self.extra_dense.append(_dense_init(width, feat, stage, "relu", dtype))
                self.extra_dropout.append(Dropout(c.dense_dropout, mode="elementwise"))
                feat = width

        self.head = _dense_init(1, feat, rng.derive(5), "sigmoid", dtype)

        encoders = ([self.conv, self.pool, self.rnn] if cnn_first
                    else [self.rnn, self.conv, self.pool])
        self._chain = encoders + [LastStep() if self.tail is None else self.tail]
        self._tape = None

        named = [("embedding", self.embedding), ("conv", self.conv), ("rnn", self.rnn)]
        if self.tail is not None:
            named.append(("tail", self.tail))
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
                rng: Rng | None = None, leads: dict | None = None, *, take=None):
        """Probabilities [B] for ids [B, T]; a single sequence ids [T] is a
        batch of one and gives a Python scalar: a float, or a complex in the
        complex128 twin. A plain forward that completes keeps its tape
        unless ``take`` (``predict``'s) is given: then each (layer, cache)
        is handed to ``take(layer, cache)`` as the layer returns, and
        dropped, so the forward keeps no tape. Given ``leads`` (evaluation
        only), each recurrent layer (the key) starts from its Lead, the ids
        being what follows it; a forward from Leads keeps no tape either."""
        ids = np.asarray(ids)
        if ids.ndim not in (1, 2):
            raise ShapeError(f"model: need ids [B, T] or [T], got {ids.shape}")
        single = ids.ndim == 1
        self._tape = None
        if leads is not None and (training or single):
            raise ConfigError("model: a forward from leads takes ids [B, T] in evaluation mode")
        tape = [] if take is None and leads is None else None

        def run(layer, x, *args):
            out, cache = layer.forward(x, *args)
            if tape is not None:
                tape.append((layer, cache))
            elif take is not None:
                take(layer, cache)
            return out

        x = run(self.embedding, ids[None] if single else ids)
        x = run(self.spatial_dropout, x, rng, training)
        for layer in self._chain:
            lead = None if leads is None else leads.get(layer)
            x = run(layer, x) if lead is None else run(layer, x, lead)
        for dense, drop in zip(self.extra_dense, self.extra_dropout):
            x = run(drop, run(dense, x), rng, training)
        p = run(self.head, x)[:, 0]
        self._tape = tape
        return p[0].item() if single else p

    def predict(self, ids: np.ndarray) -> np.ndarray:
        """Evaluation-mode probabilities [N] for ids [N, T]: those of plain
        forwards over EVAL_CHUNK records at a time in order, from less work.

        The rows of the full chunks are regrouped, most padded first (by
        ``padding_steps``, keeping one pooled step; ties in order), into
        full chunks. The first runs as a plain forward, and its row 0's
        recurrent states over its rows' shared padding are the Leads, each
        copied off its layer's cache as that layer returns. Every later
        full chunk runs after its rows' shared padding, from that many
        steps of the Leads (0 steps start from zeros, as a plain forward
        does). The partial last chunk runs in order as a plain forward.
        Products over batch rows keep EVAL_CHUNK rows and only reorder them,
        and products over steps x rows shrink but keep at least EVAL_CHUNK
        rows, so a row's bits match the plain forwards' where a GEMM row's
        result depends neither on its position nor, from that many rows on,
        on the row count (measured for the model's shapes; see the README).
        No forward here keeps a tape: each layer's cache is dropped once
        the next layer has its output, so evaluation holds one layer's
        activations at a time, plus the Leads, and leaves the model nothing
        to backpropagate.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ShapeError(f"model predict: need ids [N, T], got {ids.shape}")
        n = len(ids)
        full = n - n % EVAL_CHUNK
        kernel, pool = self.conv.kernels.shape[1], self.pool.pool
        pooled = (ids.shape[1] - kernel + 1) // pool
        steps = np.minimum(padding_steps(ids[:full], kernel, pool), pooled - 1)
        order = np.argsort(-steps, kind="stable")
        out = np.empty(n, self.head.weights.dtype)
        self._tape = None  # even when no forward runs
        shared = {}

        def read(layer, caches):  # the first chunk's: each Lead is its (forward) cell's
            if layer in self._recurrent:
                shared[layer] = Lead.read(caches[0], cut * self._recurrent[layer])

        def drop(layer, cache):
            pass

        for start in range(0, full, EVAL_CHUNK):
            rows = order[start:start + EVAL_CHUNK]
            cut = int(steps[rows].min())
            if start == 0:  # every row pads through `cut` steps, row 0 too
                out[rows] = self.forward(ids[rows], take=read)
            else:
                out[rows] = self.forward(ids[rows, cut * pool:], leads={
                    layer: lead.first(cut * self._recurrent[layer])
                    for layer, lead in shared.items()})
        if full < n:
            out[full:] = self.forward(ids[full:], take=drop)
        return out

    def backward(self, d_loss) -> dict[str, np.ndarray]:
        """Backpropagate d(loss)/d(probability), one value per batch row (a
        float after a single-sequence forward); returns the grads dict.
        Each call takes the tape of a plain forward of its own (ShapeError
        otherwise) and hands each layer its cache back, last layer first.
        Popping the tape frees each cache once its layer is done."""
        tape, self._tape = self._tape, None
        if tape is None:
            raise ShapeError(NO_FORWARD)
        d = np.asarray(d_loss, dtype=np.float64).reshape(-1, 1)
        while tape:
            layer, cache = tape.pop()
            d = layer.backward(cache, d)
        return self.grads
