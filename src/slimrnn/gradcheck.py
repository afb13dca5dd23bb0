"""Complex-step oracle for certifying backward passes, and the checks on it.

The oracle never reuses analytic machinery. It steps one coordinate w of a
complex128 twin's arrays at a time by ih, re-runs the loss forward and reads
Im L(w + ih) / h (Squire & Trapp 1998; Martins, Sturdza & Alonso 2003). It
subtracts nothing, so it has no roundoff floor. numpy orders complex numbers
by their real part first, so a 1e-30i step never crosses a ReLU, max-pool or
clamp kink. ``finite_diff`` is the central difference, kept for the
benchmark's spot check and for tests that contrast the two.
Relative error uses |a - n| / max(|a|, |n|, 1e-12) so zero gradients compare
cleanly. Dropout must be inactive in any loss handed to the checker.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .cells import CellParams, CellState, Variant, sequence_backward, sequence_forward
from .errors import NumericError
from .layers import CNN_THEN_LSTM, LSTM_THEN_CNN, SentimentModel
from .numeric import sigmoid, sigmoid_grad, tanh_grad
from .rng import Rng
from .training import ExperimentConfig, bce_loss

DEFAULT_EPS = 1e-6  # finite_diff's step
COMPLEX_STEP = 1e-30  # any h far below sqrt(eps) gives the same bits
# check_variant draws each problem's sizes uniformly from 1..these bounds.
CELL_MAX_D, CELL_MAX_N, CELL_MAX_T, CELL_MAX_B = 6, 5, 4, 3
# The one policy of the cell and model checks: every relative error below
# TOL, on every seed of SEEDS. calibrate_oracle holds closed-form
# derivatives to the tighter CALIBRATION_TOL.
TOL = 1e-5
SEEDS = tuple(range(10))
CALIBRATION_TOL = 1e-8
MODEL_BATCH = 3
# check_model runs these variants under every architecture switch: lstm0
# has W, U and b in each gate, lstm5 is the one with both u and b.
SWITCHED_VARIANTS = (Variant.LSTM0, Variant.LSTM5)
REL_FLOOR = 1e-12


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    return np.abs(analytic - numeric) / denom


def finite_diff(lossfn: Callable[[], float], arrays: Sequence[np.ndarray],
                eps: float = DEFAULT_EPS) -> list[np.ndarray]:
    """Numeric gradient of lossfn w.r.t. every entry of every array.

    ``lossfn`` is a zero-argument closure over ``arrays``; entries are
    perturbed in place and restored, so it must be pure and deterministic.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat, gflat = arr.ravel(), grad.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up = lossfn()
            flat[k] = orig - eps
            down = lossfn()
            flat[k] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"finite_diff: non-finite loss at coordinate {k}")
            gflat[k] = (up - down) / (2.0 * eps)
        grads.append(grad)
    return grads


def complex_step(lossfn: Callable[[], complex],
                 arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Float64 gradient of lossfn w.r.t. every entry of every complex array,
    whose imaginary parts are zero, as Im L(w + ih) / h with h = COMPLEX_STEP;
    entries are stepped in place and restored, as in finite_diff."""
    grads = []
    for arr in arrays:
        if arr.dtype.kind != "c":
            raise TypeError(f"complex_step: need complex arrays, got {arr.dtype}")
        grad = np.zeros(arr.shape)
        flat, gflat = arr.ravel(), grad.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + 1j * COMPLEX_STEP
            value = lossfn()
            flat[k] = orig
            if not np.isfinite(value):
                raise NumericError(f"complex_step: non-finite loss at coordinate {k}")
            gflat[k] = value.imag / COMPLEX_STEP
        grads.append(grad)
    return grads


@dataclass
class ParamCheck:
    name: str
    max_rel_err: float
    mean_rel_err: float
    worst_index: int
    zeros: int = 0  # coordinates exactly 0 on both sides: they test nothing


@dataclass
class GradReport:
    target: str
    tolerance: float
    entries: list[ParamCheck]

    @property
    def passed(self) -> bool:
        return all(e.max_rel_err < self.tolerance for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def lines(self) -> list[str]:
        out = [f"{self.target}: {'PASS' if self.passed else 'FAIL'} "
               f"(tol {self.tolerance:g}, worst {self.max_rel_err:.3e})"]
        for e in self.entries:
            flag = "ok " if e.max_rel_err < self.tolerance else "BAD"
            zeros = f" ({e.zeros} both zero)" if e.zeros else ""
            out.append(f"  {flag} {e.name:<22} max {e.max_rel_err:.3e} "
                       f"mean {e.mean_rel_err:.3e} @ {e.worst_index}{zeros}")
        return out


def _compare(name: str, analytic: np.ndarray, numeric: np.ndarray) -> ParamCheck:
    """Relative error per coordinate, and the count of coordinates where
    both gradients are exactly 0."""
    err = relative_error(analytic, numeric).ravel()
    worst = int(np.argmax(err)) if err.size else 0
    return ParamCheck(name, float(err.max(initial=0.0)),
                      float(err.mean()) if err.size else 0.0, worst,
                      int(np.count_nonzero((analytic == 0) & (numeric == 0))))


def _merge_worst(per_seed: list[list[ParamCheck]]) -> list[ParamCheck]:
    """Keep, per parameter name, the worst entry seen across seeds, with the
    zeros of every seed added up."""
    worst: dict[str, ParamCheck] = {}
    zeros: dict[str, int] = {}
    for entries in per_seed:
        for e in entries:
            zeros[e.name] = zeros.get(e.name, 0) + e.zeros
            if e.name not in worst or e.max_rel_err > worst[e.name].max_rel_err:
                worst[e.name] = e
    return [replace(e, zeros=zeros[name]) for name, e in worst.items()]


def check_variant(variant: Variant, seeds: Sequence[int] = SEEDS) -> GradReport:
    """Gradient-check one cell variant over several random problem instances.

    The loss is sum_t <d_hs[t], h_t> for a random weighting d_hs, so every
    output coordinate of every batch row at every timestep backpropagates.
    Parameters, inputs and the initial state are all checked.
    """
    per_seed = []
    for seed in seeds:
        rng = Rng(seed)
        d = 1 + int(rng.uniform(()) * CELL_MAX_D)
        n = 1 + int(rng.uniform(()) * CELL_MAX_N)
        T = 1 + int(rng.uniform(()) * CELL_MAX_T)
        B = 1 + int(rng.uniform(()) * CELL_MAX_B)
        params = CellParams(variant, d, n)
        twin = CellParams(variant, d, n, dtype=np.complex128)
        for name, view in params.tensors.items():
            view[...] = twin.tensors[name][...] = rng.uniform(view.shape, -0.7, 0.7)
        xs = rng.uniform((T, B, d), -1.0, 1.0)
        init = CellState(rng.uniform((B, n), -0.5, 0.5), rng.uniform((B, n), -0.5, 0.5))
        d_hs = rng.uniform((T, B, n), -1.0, 1.0)

        _, cache = sequence_forward(params, xs, init)
        d_xs, d_init = sequence_backward(params, cache, d_hs)

        names = sorted(params.tensors)
        inputs = [arr.astype(np.complex128) for arr in (xs, init.h, init.c)]
        twin_init = CellState(*inputs[1:])
        numeric = complex_step(
            lambda: np.sum(d_hs * sequence_forward(twin, inputs[0], twin_init)[0]),
            [twin.tensors[name] for name in names] + inputs)
        analytic = [params.grads[name] for name in names] + [d_xs, d_init.h, d_init.c]
        labels = names + ["xs", "init.h", "init.c"]
        per_seed.append([_compare(lbl, a, num)
                         for lbl, a, num in zip(labels, analytic, numeric)])
    return GradReport(variant.value, TOL, _merge_worst(per_seed))


def _model_configs() -> list:
    """The micro model at every variant with the default switches, then
    every other combination of lstm_position, extra_dense and
    bidirectional_tail for SWITCHED_VARIANTS."""
    micro = ExperimentConfig(seed=0, vocab_size=20, embed_dim=4, conv_filters=3,
                             kernel_size=2, pool_size=2, hidden=3, maxlen=6,
                             spatial_dropout=0.0, dense_dropout=0.0,
                             extra_dense_dims=(6, 4))
    configs = [replace(micro, variant=variant.value.lower()) for variant in Variant]
    for variant, position, dense, tail in itertools.product(
            SWITCHED_VARIANTS, (CNN_THEN_LSTM, LSTM_THEN_CNN), (False, True), (True, False)):
        config = replace(micro, variant=variant.value.lower(), lstm_position=position,
                         extra_dense=dense, bidirectional_tail=tail)
        if config not in configs:
            configs.append(config)
    return configs


def check_model(seeds: Sequence[int] = SEEDS) -> GradReport:
    """End-to-end check of the full classification model on a micro
    instance, on a batch of MODEL_BATCH sequences: every cell variant at the
    default switches, and every switch combination for SWITCHED_VARIANTS.

    Dropout rates are zeroed so the loss is deterministic; the loss is the
    summed binary cross-entropy against fixed labels. A float64 model's
    backward pass is checked against the complex step through a complex128
    twin. Parameters are redrawn at O(1) scale after the build: training-grade
    inits leave this micro model with gradients near REL_FLOOR, 1e-12. The
    extra dense layers are 6 and 4 wide because through narrower ReLU layers
    the signal reaching the head, and with it the gradients, fades. Entries
    are named "<parameter> [<variant> <lstm_position> tail<0|1> dense<0|1>]".
    """
    per_seed = []
    for seed in seeds:
        for k, config in enumerate(_model_configs()):
            rng = Rng(seed).derive(k)
            model = config.build(rng.derive(0))
            twin = SentimentModel(config, rng.derive(0), dtype=np.complex128)
            shake = rng.derive(1)
            for (_, arr), (_, twin_arr) in zip(model.named_params(), twin.named_params()):
                arr[...] = twin_arr[...] = shake.uniform(arr.shape, -0.7, 0.7)
            ids = (rng.uniform((MODEL_BATCH, 6)) * 20).astype(np.int64)
            y = np.ones(MODEL_BATCH)

            _, dp = bce_loss(model.forward(ids, training=False), y)
            model.zero_grads()
            model.backward(dp)

            names, arrays = zip(*twin.named_params())
            numeric = complex_step(
                lambda: np.sum(bce_loss(twin.forward(ids, training=False), y)[0]), arrays)
            grads = model.grads
            tag = (f"{config.variant} {config.lstm_position} "
                   f"tail{int(config.bidirectional_tail)} dense{int(config.extra_dense)}")
            per_seed.append([_compare(f"{name} [{tag}]", grads[name], num)
                             for name, num in zip(names, numeric)])
    return GradReport("model", TOL, _merge_worst(per_seed))


def check_module(target: str, seeds: Sequence[int] = SEEDS) -> GradReport:
    """Check one named target: a variant name or "model".

    Failures are data (report.passed is False), never exceptions.
    """
    if target.lower() == "model":
        return check_model(seeds)
    return check_variant(Variant.parse(target), seeds)


def check_all(seeds: Sequence[int] = SEEDS) -> list[GradReport]:
    """All seven variants, then the end-to-end model, each on every seed."""
    return [check_variant(v, seeds) for v in Variant] + [check_model(seeds)]


def calibrate_oracle() -> GradReport:
    """Validate the complex step on closed-form derivatives before use."""
    entries = []
    w = np.array([3.0 + 0j])
    num = complex_step(lambda: w[0] ** 2, [w])[0]
    entries.append(_compare("quadratic", np.array([6.0]), num))

    x = np.array([0.3, -1.2, 2.0])
    z = x.astype(np.complex128)
    num = complex_step(lambda: np.sum(sigmoid(z)), [z])[0]
    entries.append(_compare("sigmoid", sigmoid_grad(sigmoid(x)), num))

    num = complex_step(lambda: np.sum(np.tanh(z)), [z])[0]
    entries.append(_compare("tanh", tanh_grad(np.tanh(x)), num))
    return GradReport("oracle-calibration", CALIBRATION_TOL, entries)
