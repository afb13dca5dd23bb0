"""Parameter-update rules: SGD, RMSprop, and Adam.

Parameters and gradients travel as dicts keyed by tensor name. All three
rules update the parameter arrays in place and are deterministic given
(state, grads). A rule's per-tensor state lives in one table,
``Optimizer.slots``: on a tensor's first step the rule's ``SLOTS`` arrays
(0 for SGD, 1 for RMSprop, 2 for Adam) are allocated at the tensor's full
shape in pages mapped for them alone (``numeric.mapped_zeros``), so an
optimizer binds to whatever parameter set it first sees, and a slot page
takes memory only once a row in it is stepped.

A caller may give, per tensor, a row end: every row (index along axis 0)
of the gradient from that end on is zero. A tensor not named ends at its
last row. The step updates, in place, only the leading rows up to the
largest end given for that tensor on any step so far, because slots keep a
row moving after its gradient returns to zero. Every rule is elementwise,
and a row past that end has a zero gradient and zero slots, so its update
is exactly 0 (``p - lr * 0.0 == p`` for SGD, which has no slots): the
result is bit-identical to updating the whole tensor, and whole and prefix
steps mix freely. Vocabulary ids are ranked by frequency, so the rows an
embedding gradient touches sit near the start of the table.

Clipping sums each tensor's squares up to its end only, in the pairwise
order numpy's whole-tensor ``np.sum`` uses, so the norm keeps every bit
(see ``clip_by_global_norm``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ShapeError
from .numeric import mapped_zeros

# numpy's pairwise summation (``pairwise_sum`` in its loops): a run of more
# than this many elements is split in two and each half summed alone; a run
# of at most this many is summed directly.
PAIRWISE_BLOCK = 128

RHO = 0.9  # RMSprop: decay of the mean squared gradient
BETA1, BETA2 = 0.9, 0.999  # Adam: decays of the first and second moments
EPS = 1e-8  # RMSprop and Adam: added to the root, outside the square root


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


def _row_ends(tensors: dict[str, np.ndarray],
              ends: dict[str, int] | None) -> dict[str, int]:
    """Each tensor's given row end, or its length if none is given."""
    ends = ends or {}
    unknown = sorted(ends.keys() - tensors.keys())
    if unknown:
        raise ShapeError(f"row end for unknown tensors {unknown}")
    out = {}
    for name, t in tensors.items():
        out[name] = end = ends.get(name, len(t))
        if not 0 <= end <= len(t):
            raise ShapeError(f"{name}: row end {end} outside [0, {len(t)}]")
    return out


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float,
                        ends: dict[str, int] | None = None) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm;
    a max_norm of 0 only measures.

    ``ends`` gives, per tensor, the row from which its gradient is zero (see
    the module docstring); only the rows before it are squared and scaled.
    The squares are summed in numpy's pairwise order over the whole tensor
    in C order, so for a C-contiguous gradient the norm equals the
    whole-tensor ``np.sum(g * g)`` bit for bit; a sum over the written rows
    alone would group the terms differently. Returns the pre-clip norm.
    """
    ends = _row_ends(grads, ends)
    total = float(np.sqrt(sum(
        _prefix_sum_of_squares(g.reshape(-1), g.size, ends[name] * math.prod(g.shape[1:]))
        for name, g in grads.items())))
    if total > max_norm > 0.0:
        factor = max_norm / total
        for name, g in grads.items():
            g[:ends[name]] *= factor
    return total


class Optimizer:
    SLOTS = 0  # per-tensor state arrays the rule keeps

    def __init__(self, lr: float):
        if not 0.0 < lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {lr}")
        self.lr = lr
        self.t = 0
        # Per tensor stepped so far: its shape at the first step, the largest
        # row end of any step, and the rule's SLOTS arrays at that shape.
        self.shapes: dict[str, tuple[int, ...]] = {}
        self.row_end: dict[str, int] = {}
        self.slots: dict[str, list[np.ndarray]] = {}

    def apply_update(self, params: dict[str, np.ndarray],
                     grads: dict[str, np.ndarray],
                     ends: dict[str, int] | None = None) -> None:
        """One step. ``ends`` maps a tensor name to the row from which its
        gradient is zero; tensors not named end at their last row."""
        if params.keys() != grads.keys():
            missing = sorted(params.keys() - grads.keys())
            extra = sorted(grads.keys() - params.keys())
            raise ShapeError(f"param/grad name mismatch: missing={missing} extra={extra}")
        for name, p in params.items():
            if p.shape != grads[name].shape:
                raise ShapeError(
                    f"{name}: param {p.shape} vs grad {grads[name].shape}")
            first = self.shapes.get(name, p.shape)
            if first != p.shape:
                raise ShapeError(f"{name}: param {p.shape} vs its first step's {first}")
        ends = _row_ends(grads, ends)
        self.t += 1
        for name, p in params.items():
            slots = self.slots.get(name)
            if slots is None:
                self.shapes[name] = p.shape
                slots = self.slots[name] = [mapped_zeros(p.shape, p.dtype)
                                            for _ in range(self.SLOTS)]
            end = self.row_end[name] = max(ends[name], self.row_end.get(name, 0))
            self._rule(p[:end], grads[name][:end], *(s[:end] for s in slots))

    def _rule(self, p, g, *slots) -> None:
        """Update p (and the slots) in place from g, elementwise."""
        raise NotImplementedError


class SGD(Optimizer):
    def _rule(self, p, g):
        p -= self.lr * g


class RMSprop(Optimizer):
    """Gradient scaled by a decaying RMS of its own history."""

    SLOTS = 1

    def _rule(self, p, g, v):
        v *= RHO
        v += (1.0 - RHO) * g * g
        p -= self.lr * g / (np.sqrt(v) + EPS)


class Adam(Optimizer):
    """Bias-corrected first/second moment estimates; eps sits outside the
    square root."""

    SLOTS = 2

    def _rule(self, p, g, m, v):
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


OPTIMIZERS = {"sgd": SGD, "rmsprop": RMSprop, "adam": Adam}


def make_optimizer(kind: str, lr: float) -> Optimizer:
    try:
        cls = OPTIMIZERS[kind.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown optimizer {kind!r}; expected one of {sorted(OPTIMIZERS)}"
        ) from None
    return cls(lr)
