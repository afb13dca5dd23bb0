"""The standard LSTM cell (LSTM0) and its six slim gate variants.

Every variant shares the recurrence

    c_t = f_t * c_{t-1} + i_t * tanh(U_c h_{t-1} + W_c x_t + b_c)
    h_t = o_t * tanh(c_t)

and differs only in how the three gates i, f, o are computed:

    LSTM0   g = sigmoid(U_g h + W_g x + b_g)        full gate
    LSTM1   g = sigmoid(U_g h + b_g)                no input signal
    LSTM2   g = sigmoid(U_g h)                      no input, no bias
    LSTM3   g = sigmoid(b_g)                        bias only
    LSTM4   g = sigmoid(u_g * h)                    pointwise recurrent weight
    LSTM5   g = sigmoid(u_g * h + b_g)              pointwise weight plus bias
    LSTM6   i = 1, f = alpha, o = 1                 fixed constants

The candidate path keeps its full parameterization in every variant; slim
reductions apply to the gates only. LSTM6's alpha is a fixed hyperparameter
in (-1, 1), not a trainable weight.

Layout. Sequences are time-major and batched: inputs are [T, B, d] and
hidden states [T, B, n]. A step's pre-activation is [B, width], one n-wide
column block per slot: i, f, o, c, or only c for LSTM6. A variant keeps its
weights in one buffer per parameter kind (W, U, u, b), its slots' blocks
stacked along axis 0 in that same order, and ``CellParams.tensors`` holds
row-block views into those buffers; its gradients share that layout. A
variant's layout is built once, at import. Each kind feeds a contiguous run
of columns, derived from GATE_TERMS: the gate blocks when the variant lists
the kind, plus the candidate block for W, U and b. So a sequence costs one
input GEMM for all steps, then one recurrent GEMM per step (the fused-gate
layout of Appleyard et al. 2016, arXiv 1604.01946).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, ShapeError
from .numeric import sigmoid, sigmoid_grad, tanh_grad
from .rng import Rng

GATES = ("i", "f", "o")
KINDS = ("W", "U", "u", "b")
CANDIDATE_KINDS = ("W", "U", "b")

DEFAULT_ALPHA = 0.59
DEFAULT_FORGET_BIAS = 1.0


class Variant(Enum):
    LSTM0 = "LSTM0"
    LSTM1 = "LSTM1"
    LSTM2 = "LSTM2"
    LSTM3 = "LSTM3"
    LSTM4 = "LSTM4"
    LSTM5 = "LSTM5"
    LSTM6 = "LSTM6"

    @classmethod
    def parse(cls, name: str) -> "Variant":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ConfigError(
                f"unknown variant {name!r}; expected one of {[v.value for v in cls]}"
            ) from None


# Per-gate parameter kinds each variant uses. "W" is an input weight [n, d],
# "U" a recurrent matrix [n, n], "u" a pointwise recurrent vector [n],
# "b" a bias vector [n].
GATE_TERMS: dict[Variant, tuple[str, ...]] = {
    Variant.LSTM0: ("U", "W", "b"),
    Variant.LSTM1: ("U", "b"),
    Variant.LSTM2: ("U",),
    Variant.LSTM3: ("b",),
    Variant.LSTM4: ("u",),
    Variant.LSTM5: ("u", "b"),
    Variant.LSTM6: (),
}


def param_names(variant: Variant) -> list[str]:
    """Tensor names a variant requires, gates first, then the candidate path."""
    names = [f"{kind}_{g}" for g in GATES for kind in GATE_TERMS[variant]]
    return names + ["W_c", "U_c", "b_c"]


def _layout(variant: Variant):
    """The pre-activation's n-wide column block count; (kind, first column
    block, block count) for each kind the variant uses, the buffer's rows
    stacked in that column order; and (name, kind, row block) in
    param_names order."""
    slots = (*GATES, "c") if GATE_TERMS[variant] else ("c",)
    kinds, rows = [], {}
    for kind in KINDS:
        owned = GATES if kind in GATE_TERMS[variant] else ()
        owned += ("c",) if kind in CANDIDATE_KINDS else ()
        if owned:
            kinds.append((kind, slots.index(owned[0]), len(owned)))
            rows.update({f"{kind}_{slot}": (kind, k) for k, slot in enumerate(owned)})
    return (len(slots), tuple(kinds),
            tuple((name, *rows[name]) for name in param_names(variant)))


_LAYOUTS = {variant: _layout(variant) for variant in Variant}  # built once


@dataclass(eq=False)
class CellParams:
    """Weights and gradients for one cell, zero at construction, compared
    by identity. ``buffers`` holds one array per kind the variant uses,
    ``tensors`` exactly the variant's names as row-block views into them,
    ``columns`` the pre-activation columns each buffer's rows feed, and
    ``grad_buffers`` and ``grads`` the same for the gradients, which
    sequence_backward adds into. Writers (init, checkpoint loads) fill the
    views."""

    variant: Variant
    input_dim: int
    hidden_dim: int
    _: KW_ONLY
    alpha: float = DEFAULT_ALPHA  # used by LSTM6 only
    buffers: dict[str, np.ndarray] = field(init=False, repr=False)
    columns: dict[str, slice] = field(init=False, repr=False)
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)
    grad_buffers: dict[str, np.ndarray] = field(init=False, repr=False)
    grads: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        d, n = self.input_dim, self.hidden_dim
        if d < 1 or n < 1:
            raise ConfigError(f"dimensions must be positive, got d={d}, n={n}")
        if self.variant is Variant.LSTM6 and not -1.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (-1, 1), got {self.alpha}")
        _, kinds, names = _LAYOUTS[self.variant]
        row = {"W": (d,), "U": (n,), "u": (), "b": ()}
        self.buffers = {k: np.zeros((count * n, *row[k])) for k, _, count in kinds}
        self.grad_buffers = {k: np.zeros(buf.shape) for k, buf in self.buffers.items()}
        self.columns = {k: slice(first * n, (first + count) * n) for k, first, count in kinds}
        self.tensors = {name: self.buffers[k][r * n:(r + 1) * n] for name, k, r in names}
        self.grads = {name: self.grad_buffers[k][r * n:(r + 1) * n] for name, k, r in names}

    @property
    def gated(self) -> bool:
        return bool(GATE_TERMS[self.variant])

    @property
    def width(self) -> int:
        """Pre-activation columns per step."""
        return _LAYOUTS[self.variant][0] * self.hidden_dim


@dataclass
class CellState:
    h: np.ndarray  # [B, n]
    c: np.ndarray  # [B, n]


@dataclass
class SequenceCache:
    """Everything the backward pass needs from one forward run of T steps."""

    x: np.ndarray  # [T, B, d]
    h: np.ndarray  # [T+1, B, n]; h[0] is the initial state
    c: np.ndarray  # [T+1, B, n]; c[0] is the initial state
    gates: np.ndarray | None  # [T, B, 3n] sigmoid outputs i, f, o; None for LSTM6
    c_hat: np.ndarray  # [T, B, n] tanh of the candidate pre-activation

    def __len__(self) -> int:
        return self.x.shape[0]


def _input_term(params: CellParams, x: np.ndarray) -> np.ndarray:
    """W x in the pre-activation layout, for inputs x [..., d]."""
    a = np.zeros(x.shape[:-1] + (params.width,))
    np.matmul(x.reshape(-1, params.input_dim), params.buffers["W"].T,
              out=a.reshape(-1, params.width)[:, params.columns["W"]])
    return a


def _add_step_terms(params: CellParams, a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Add U h, u * h and b to ``a`` in place, completing the pre-activation
    in the order U h + W x + b."""
    buf, cols = params.buffers, params.columns
    a[..., cols["U"]] += h @ buf["U"].T
    if "u" in buf:
        u_h = h[..., None, :] * buf["u"].reshape(3, -1)  # [..., 3, n]
        a[..., cols["u"]] += u_h.reshape(*h.shape[:-1], -1)
    a[..., cols["b"]] += buf["b"]
    return a


def sequence_forward(params: CellParams, xs: np.ndarray,
                     init: CellState | None = None):
    """Run the cell over time-major xs [T, B, d] from ``init`` (zeros when
    None); returns hs [T, B, n] and the cache for sequence_backward."""
    d, n = params.input_dim, params.hidden_dim
    if xs.ndim != 3 or xs.shape[0] < 1 or xs.shape[2] != d:
        raise ShapeError(f"sequence_forward: need xs of shape [T>=1, B, {d}], got {xs.shape}")
    T, B, _ = xs.shape
    h = np.zeros((T + 1, B, n))
    c = np.zeros((T + 1, B, n))
    if init is not None:
        if init.h.shape != (B, n) or init.c.shape != (B, n):
            raise ShapeError(f"sequence_forward: initial state {init.h.shape}/"
                             f"{init.c.shape}, expected ({B}, {n})")
        h[0], c[0] = init.h, init.c
    # Each step's pre-activations are replaced in place by their activations.
    act = _input_term(params, xs)
    gates = act[..., :3 * n] if params.gated else None
    c_hat = act[..., -n:]
    for t in range(T):
        _add_step_terms(params, act[t], h[t])
        np.tanh(c_hat[t], out=c_hat[t])
        if gates is None:  # LSTM6: i = 1, f = alpha, o = 1
            c[t + 1] = params.alpha * c[t] + c_hat[t]
            np.tanh(c[t + 1], out=h[t + 1])
        else:
            gates[t] = sigmoid(gates[t])
            i, f, o = gates[t, :, :n], gates[t, :, n:2 * n], gates[t, :, 2 * n:]
            c[t + 1] = f * c[t] + i * c_hat[t]
            h[t + 1] = o * np.tanh(c[t + 1])
    return h[1:], SequenceCache(xs, h, c, gates, c_hat)


def sequence_backward(params: CellParams, cache: SequenceCache,
                      d_hs: np.ndarray):
    """Reverse-mode gradients of sum_t <d_hs[t], h_t> for d_hs [T, B, n].

    Adds the parameter gradients into params.grad_buffers (so params.grads),
    never zeroing them: two calls add up, as in Conv1D and Dense. Returns
    (d_xs, d_init) where d_xs is [T, B, d] and d_init is a CellState holding
    dL/dh_0 and dL/dc_0. For LSTM6 the gates are constants, so only the
    candidate path receives gradient.
    """
    T, n = len(cache), params.hidden_dim
    B = cache.x.shape[1]
    if T == 0 or d_hs.shape != (T, B, n):
        raise ShapeError(
            f"sequence_backward: d_hs {d_hs.shape} does not match "
            f"{T} cached steps of {B} rows and width {n}"
        )
    buf, cols = params.buffers, params.columns
    d_pre = np.empty((T, B, params.width))
    tanh_c = np.tanh(cache.c[1:])
    c_hat_grad = tanh_grad(cache.c_hat)
    tanh_c_grad = tanh_grad(tanh_c)
    gates = cache.gates
    if gates is not None:
        gate_grad = sigmoid_grad(gates)
    dc_next = np.zeros((B, n))
    dh = d_hs[T - 1].copy()

    for t in range(T - 1, -1, -1):
        da = d_pre[t]
        if gates is None:  # LSTM6: i = 1, f = alpha, o = 1
            dc = dh * tanh_c_grad[t] + dc_next
            da[:] = dc * c_hat_grad[t]
            dc_next = dc * params.alpha
        else:
            i, f, o = gates[t, :, :n], gates[t, :, n:2 * n], gates[t, :, 2 * n:]
            # h = o * tanh(c);  c = f * c_prev + i * c_hat
            dc = dh * o * tanh_c_grad[t] + dc_next
            da[:, :n] = dc * cache.c_hat[t]
            da[:, n:2 * n] = dc * cache.c[t]
            da[:, 2 * n:3 * n] = dh * tanh_c[t]
            da[:, :3 * n] *= gate_grad[t]
            da[:, 3 * n:] = dc * i * c_hat_grad[t]
            dc_next = dc * f
        dh = da[:, cols["U"]] @ buf["U"]
        if "u" in buf:
            dh += (da[:, cols["u"]] * buf["u"]).reshape(B, 3, n).sum(axis=1)
        if t > 0:
            dh += d_hs[t - 1]

    # after the step-0 iteration dh is dL/dh_0 and dc_next is dL/dc_0
    flat = d_pre.reshape(T * B, params.width)
    x_flat = cache.x.reshape(T * B, params.input_dim)
    h_flat = cache.h[:-1].reshape(T * B, n)
    grads = params.grad_buffers
    grads["W"] += flat[:, cols["W"]].T @ x_flat
    grads["U"] += flat[:, cols["U"]].T @ h_flat
    grads["b"] += flat[:, cols["b"]].sum(axis=0)
    if "u" in buf:
        du = flat[:, cols["u"]].reshape(T * B, 3, n) * h_flat[:, None, :]
        grads["u"] += du.sum(axis=0).reshape(-1)
    d_xs = (flat[:, cols["W"]] @ buf["W"]).reshape(T, B, params.input_dim)
    return d_xs, CellState(h=dh, c=dc_next)


def count_params(variant: Variant, d: int, n: int) -> int:
    """Trainable parameter count: candidate path plus three gates."""
    if d < 1 or n < 1:
        raise ConfigError(f"dimensions must be positive, got d={d}, n={n}")
    per_kind = {"W": n * d, "U": n * n, "u": n, "b": n}
    per_gate = sum(per_kind[kind] for kind in GATE_TERMS[variant])
    candidate = n * d + n * n + n
    return candidate + 3 * per_gate


def init_params(variant: Variant, d: int, n: int, rng: Rng,
                alpha: float = DEFAULT_ALPHA,
                forget_bias: float = DEFAULT_FORGET_BIAS) -> CellParams:
    """Uniform init in [-s, s]: s = 1/sqrt(d) for input weights, 1/sqrt(n) for
    recurrent and pointwise weights. Biases start at zero except the forget
    gate's, which starts at ``forget_bias`` where the variant has one."""
    params = CellParams(variant, d, n, alpha=alpha)
    s_in, s_rec = 1.0 / np.sqrt(d), 1.0 / np.sqrt(n)
    scale = {"W": s_in, "U": s_rec, "u": s_rec}
    drawn = [(view, scale[name[0]]) for name, view in params.tensors.items()
             if name[0] in scale]
    # One draw for every weight, in name order, then each slice is scaled the
    # way rng.uniform(shape, -s, s) scales its draws: the same bits as one
    # draw per tensor, for one call's overhead.
    flat = rng.uniform(sum(view.size for view, _ in drawn))
    start = 0
    for view, s in drawn:
        view[...] = flat[start:start + view.size].reshape(view.shape)
        start += view.size
        view *= s - -s
        view += -s
    if "b_f" in params.tensors:
        params.tensors["b_f"] += forget_bias
    return params
