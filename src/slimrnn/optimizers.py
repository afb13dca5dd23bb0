"""Parameter-update rules: SGD, RMSprop, and Adam.

Parameters and gradients travel as dicts keyed by tensor name. All three
rules update the parameter arrays in place and are deterministic given
(state, grads). Slot tensors are allocated lazily per name, so an optimizer
binds to whatever parameter set it first sees.

A caller may say, per tensor, which rows (indices along axis 0) of the
gradient can be nonzero; every other row of that gradient must be zero,
and such a tensor must be named on every step or on none. The step then
updates, in place, only the leading rows up to the last one whose update
can be nonzero: this step's rows for SGD, and every row given on any step
so far for RMSprop and Adam, whose slots keep a row moving after its
gradient returns to zero. Every rule is elementwise, and a row past that
end has a zero gradient (and zero slots), so its update is exactly 0; the
result is bit-identical to updating the whole tensor. Such a tensor's slots
are stored only up to that end, since every slot row past it is zero.
Vocabulary ids are ranked by frequency, so the rows an embedding gradient
touches sit near the start of the table.

Clipping sums such a tensor's squares over the same leading rows only, in
the pairwise order numpy's whole-tensor ``np.sum`` uses, so the norm keeps
every bit (see ``clip_by_global_norm``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ShapeError

# numpy's pairwise summation (``pairwise_sum`` in its loops): a run of more
# than this many elements is split in two and each half summed alone; a run
# of at most this many is summed directly.
PAIRWISE_BLOCK = 128


def _prefix_sum_of_squares(flat: np.ndarray, n: int, end: int) -> float:
    """``float(np.sum(flat[:n] ** 2))``, bit for bit, for a contiguous
    ``flat`` that is zero from index ``end`` on, squaring only about
    ``end`` entries.

    ``np.sum`` over a contiguous float64 array is one pairwise tree: a run of
    n > PAIRWISE_BLOCK elements splits at ``n//2 - (n//2) % 8``, a shorter
    run is a leaf. A subtree wholly before ``end`` is the same ``np.sum`` on
    the same run; one wholly past it sums to exactly 0.0, and adding 0.0 to a
    sum of squares leaves it unchanged. So only the path along ``end`` is
    walked, about 2·log2(n / PAIRWISE_BLOCK) calls.
    """
    if end <= 0:
        return 0.0
    if end >= n or n <= PAIRWISE_BLOCK:
        part = flat[:n]
        return float(np.sum(part * part))
    half = n // 2
    half -= half % 8
    return (_prefix_sum_of_squares(flat, half, end)
            + _prefix_sum_of_squares(flat[half:], n - half, end - half))


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float,
                        rows: dict[str, np.ndarray] | None = None) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm;
    a max_norm of 0 only measures.

    ``rows`` names, per tensor, the rows that can be nonzero (see the module
    docstring); only those are scaled. Such a tensor, which must be
    C-contiguous, has its squares summed up to one past its last given row
    only, in numpy's pairwise order over the whole tensor, so the norm equals
    the whole-tensor ``np.sum(g * g)`` bit for bit; a sum over the given rows
    alone would group the terms differently. Returns the pre-clip norm.
    """
    rows = rows or {}
    terms = []
    for name, g in grads.items():
        if name not in rows:
            terms.append(float(np.sum(g * g)))
            continue
        if not g.flags.c_contiguous:
            raise ShapeError(f"{name}: a gradient given with rows must be C-contiguous")
        end = int(rows[name].max()) + 1 if len(rows[name]) else 0
        width = math.prod(g.shape[1:])
        terms.append(_prefix_sum_of_squares(g.reshape(-1), g.size, end * width))
    total = float(np.sqrt(sum(terms)))
    if total > max_norm > 0.0:
        factor = max_norm / total
        for name, g in grads.items():
            if name in rows:
                g[rows[name]] *= factor
            else:
                g *= factor
    return total


class Optimizer:
    has_slots = False  # whether the rule keeps per-tensor state across steps

    def __init__(self, lr: float):
        if not 0.0 < lr < math.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {lr}")
        self.lr = lr
        self.t = 0
        # Per tensor stepped so far: one past the last row given on any step,
        # or None if it is stepped whole.
        self.row_end: dict[str, int | None] = {}

    def _check(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               rows: dict[str, np.ndarray]) -> None:
        if params.keys() != grads.keys():
            missing = sorted(params.keys() - grads.keys())
            extra = sorted(grads.keys() - params.keys())
            raise ShapeError(f"param/grad name mismatch: missing={missing} extra={extra}")
        for name, p in params.items():
            if p.shape != grads[name].shape:
                raise ShapeError(
                    f"{name}: param {p.shape} vs grad {grads[name].shape}")
            if name in self.row_end and (self.row_end[name] is None) != (name not in rows):
                raise ShapeError(
                    f"{name}: rows must be given on every step or on none")
        for name, r in rows.items():
            if name not in params:
                raise ShapeError(f"row set for unknown tensor {name!r}")
            if len(r) and not 0 <= r.min() <= r.max() < len(params[name]):
                raise ShapeError(f"{name}: rows outside [0, {len(params[name])})")

    def apply_update(self, params: dict[str, np.ndarray],
                     grads: dict[str, np.ndarray],
                     rows: dict[str, np.ndarray] | None = None) -> None:
        """One step. ``rows`` maps a tensor name to the rows of its gradient
        that can be nonzero; tensors not named are updated whole."""
        rows = rows or {}
        self._check(params, grads, rows)
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            if name not in rows:
                self.row_end[name] = None
            else:
                end = int(rows[name].max()) + 1 if len(rows[name]) else 0
                self.row_end[name] = max(end, self.row_end.get(name) or 0)
                if self.has_slots:
                    end = self.row_end[name]
                p, g = p[:end], g[:end]
            self._rule(p, g, *self._slots(name, p))

    def _slots(self, name: str, p: np.ndarray) -> tuple[np.ndarray, ...]:
        """The rule's slots for ``p``, the part of tensor ``name`` this step
        updates."""
        return ()

    def _rule(self, p, g, *slots) -> None:
        """Update p (and the slots) in place from g, elementwise."""
        raise NotImplementedError

    def _slot(self, store: dict, name: str, like: np.ndarray) -> np.ndarray:
        """A slot shaped like ``like``. For a tensor stepped by rows that is
        its leading rows up to the row end, the only slot rows that can be
        nonzero, so the slot grows, zero-filled, as the row end does. The
        end rarely grows once the frequent words have been seen, so copies
        are few."""
        slot = store.get(name)
        if slot is None or slot.shape != like.shape:
            grown = np.zeros(like.shape, like.dtype)
            if slot is not None:
                grown[:len(slot)] = slot
            store[name] = slot = grown
        return slot


class SGD(Optimizer):
    kind = "sgd"

    def _rule(self, p, g):
        p -= self.lr * g


class RMSprop(Optimizer):
    """Gradient scaled by a decaying RMS of its own history."""

    kind = "rmsprop"
    has_slots = True

    def __init__(self, lr: float, rho: float = 0.9, eps: float = 1e-8):
        super().__init__(lr)
        self.rho = rho
        self.eps = eps
        self.v: dict[str, np.ndarray] = {}

    def _slots(self, name, p):
        return (self._slot(self.v, name, p),)

    def _rule(self, p, g, v):
        v *= self.rho
        v += (1.0 - self.rho) * g * g
        p -= self.lr * g / (np.sqrt(v) + self.eps)


class Adam(Optimizer):
    """Bias-corrected first/second moment estimates; eps sits outside the
    square root."""

    kind = "adam"
    has_slots = True

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        super().__init__(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def _slots(self, name, p):
        return (self._slot(self.m, name, p), self._slot(self.v, name, p))

    def _rule(self, p, g, m, v):
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


OPTIMIZERS = {"sgd": SGD, "rmsprop": RMSprop, "adam": Adam}


def make_optimizer(kind: str, lr: float) -> Optimizer:
    try:
        cls = OPTIMIZERS[kind.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown optimizer {kind!r}; expected one of {sorted(OPTIMIZERS)}"
        ) from None
    return cls(lr)
