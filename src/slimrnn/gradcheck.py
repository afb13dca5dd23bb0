"""Central finite-difference oracle for certifying backward passes.

The oracle never reuses analytic machinery: it perturbs each coordinate of
each array in place, re-runs the loss, and forms (L(w+eps) - L(w-eps))/2eps.
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
from .layers import CNN_THEN_LSTM, LSTM_THEN_CNN
from .numeric import sigmoid, sigmoid_grad, tanh_grad
from .rng import Rng
from .training import ExperimentConfig, bce_loss

DEFAULT_EPS = 1e-6
# check_variant draws each problem's sizes uniformly from 1..these bounds.
CELL_MAX_D, CELL_MAX_N, CELL_MAX_T, CELL_MAX_B = 6, 5, 4, 3
# calibrate_oracle's bound on closed-form derivatives, at DEFAULT_EPS.
CALIBRATION_TOL = 1e-8
# The end-to-end model check uses a larger step: its loss sums MODEL_BATCH
# O(1) terms while some true gradients sit near 1e-8, so the roundoff term
# (machine epsilon * |loss| / step) must be pushed further below them than
# the cell checks need. Much above 1e-4 a step starts to straddle the kinks
# of ReLU and max-pool.
MODEL_EPS = 1e-4
MODEL_BATCH = 3
# check_all runs the model check on this many of its seeds, the first ones;
# check_model itself, as ``slimrnn gradcheck model`` calls it, uses them all.
MODEL_SEEDS_IN_ALL = 3
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


@dataclass
class ParamCheck:
    name: str
    max_rel_err: float
    mean_rel_err: float
    worst_index: int
    kinks: int = 0  # coordinates left out because their step crossed a kink


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
            kinks = f" ({e.kinks} at kinks)" if e.kinks else ""
            out.append(f"  {flag} {e.name:<22} max {e.max_rel_err:.3e} "
                       f"mean {e.mean_rel_err:.3e} @ {e.worst_index}{kinks}")
        return out


def _compare(name: str, analytic: np.ndarray, numeric: np.ndarray,
             smooth: np.ndarray | None = None) -> ParamCheck:
    """Relative error per coordinate; those where ``smooth`` is False are
    left out and counted as kinks."""
    err = relative_error(analytic, numeric).ravel()
    if smooth is None:
        smooth = np.ones(err.size, dtype=bool)
    err = np.where(smooth, err, 0.0)
    worst = int(np.argmax(err)) if err.size else 0
    return ParamCheck(name, float(err.max(initial=0.0)),
                      float(err[smooth].mean()) if smooth.any() else 0.0, worst,
                      int(err.size - smooth.sum()))


def _merge_worst(per_seed: list[list[ParamCheck]]) -> list[ParamCheck]:
    """Keep, per parameter name, the worst entry seen across seeds, with the
    kinks of every seed added up."""
    worst: dict[str, ParamCheck] = {}
    kinks: dict[str, int] = {}
    for entries in per_seed:
        for e in entries:
            kinks[e.name] = kinks.get(e.name, 0) + e.kinks
            if e.name not in worst or e.max_rel_err > worst[e.name].max_rel_err:
                worst[e.name] = e
    return [replace(e, kinks=kinks[name]) for name, e in worst.items()]


def _random_cell_params(variant: Variant, d: int, n: int, rng: Rng) -> CellParams:
    params = CellParams(variant, d, n)
    for view in params.tensors.values():
        view[...] = rng.uniform(view.shape, -0.7, 0.7)
    return params


def check_variant(variant: Variant, seeds: Sequence[int], tol: float = 1e-5) -> GradReport:
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
        params = _random_cell_params(variant, d, n, rng)
        xs = rng.uniform((T, B, d), -1.0, 1.0)
        init = CellState(rng.uniform((B, n), -0.5, 0.5), rng.uniform((B, n), -0.5, 0.5))
        d_hs = rng.uniform((T, B, n), -1.0, 1.0)

        def loss() -> float:
            hs, _ = sequence_forward(params, xs, init)
            return float(np.sum(d_hs * hs))

        hs, cache = sequence_forward(params, xs, init)
        d_xs, d_init = sequence_backward(params, cache, d_hs)

        names = sorted(params.tensors)
        arrays = [params.tensors[name] for name in names] + [xs, init.h, init.c]
        numeric = finite_diff(loss, arrays)
        analytic = [params.grads[name] for name in names] + [d_xs, d_init.h, d_init.c]
        labels = names + ["xs", "init.h", "init.c"]
        per_seed.append([_compare(lbl, a, num)
                         for lbl, a, num in zip(labels, analytic, numeric)])
    return GradReport(variant.value, tol, _merge_worst(per_seed))


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


def _branches(model) -> bytes:
    """The ReLU and max-pool branches the model's last forward pass took;
    its loss is smooth wherever these stay the same."""
    taken = [model.conv._z > 0, model.pool._arg] + [d._z > 0 for d in model.extra_dense]
    return b"".join(t.tobytes() for t in taken)


def check_model(seeds: Sequence[int], tol: float = 1e-4) -> GradReport:
    """End-to-end check of the full classification model on a micro
    instance, on a batch of MODEL_BATCH sequences: every cell variant at the
    default switches, and every switch combination for SWITCHED_VARIANTS.

    Dropout rates are zeroed so the loss is deterministic; the loss is the
    summed binary cross-entropy against fixed labels. Parameters are redrawn
    at O(1) scale after the build: training-grade inits leave this micro
    model with gradients near 1e-12, underneath the central-difference
    resolution floor (machine epsilon times |loss| over MODEL_EPS, about 1e-11),
    where relative error is noise. The redraw keeps every gradient well
    above that floor while exercising the same backward wiring; the extra
    dense layers are 6 and 4 wide because through narrower ReLU layers the
    signal reaching the head, and with it the gradients, fades towards that
    floor. A coordinate whose step changes a ReLU or max-pool branch (see
    ``_branches``) straddles a kink, where a central difference measures no
    derivative; it is left out and counted in the entry's ``kinks``. Entries
    are named "<parameter> [<variant> <lstm_position> tail<0|1> dense<0|1>]".
    """
    per_seed = []
    for seed in seeds:
        for k, config in enumerate(_model_configs()):
            rng = Rng(seed).derive(k)
            model = config.build(rng.derive(0))
            shake = rng.derive(1)
            for _, arr in model.named_params():
                arr[...] = shake.uniform(arr.shape, -0.7, 0.7)
            ids = (rng.uniform((MODEL_BATCH, 6)) * 20).astype(np.int64)
            y = np.ones(MODEL_BATCH)
            stepped = []  # branches after each loss call: +eps, -eps per coordinate

            def loss() -> float:
                value = float(np.sum(bce_loss(model.forward(ids, training=False), y)[0]))
                stepped.append(_branches(model))
                return value

            _, dp = bce_loss(model.forward(ids, training=False), y)
            taken = _branches(model)
            model.zero_grads()
            model.backward(dp)

            names, arrays = zip(*model.named_params())
            numeric = finite_diff(loss, arrays, MODEL_EPS)
            grads = model.grads
            analytic = [grads[name] for name in names]
            smooth = np.array([up == taken == down
                               for up, down in zip(stepped[::2], stepped[1::2])])
            smooth = np.split(smooth, np.cumsum([arr.size for arr in arrays])[:-1])
            tag = (f"{config.variant} {config.lstm_position} "
                   f"tail{int(config.bidirectional_tail)} dense{int(config.extra_dense)}")
            per_seed.append([_compare(f"{lbl} [{tag}]", a, num, ok)
                             for lbl, a, num, ok in zip(names, analytic, numeric, smooth)])
    return GradReport("model", tol, _merge_worst(per_seed))


def check_module(target: str, seeds: Sequence[int], tol: float = 1e-5) -> GradReport:
    """Check one named target: a variant name or "model".

    Failures are data (report.passed is False), never exceptions.
    """
    if target.lower() == "model":
        return check_model(seeds, tol=max(tol, 1e-4))
    return check_variant(Variant.parse(target), seeds, tol=tol)


def check_all(seeds: Sequence[int], tol: float = 1e-5) -> list[GradReport]:
    """All seven variants on every seed, plus the end-to-end model check on
    the first MODEL_SEEDS_IN_ALL seeds."""
    reports = [check_variant(v, seeds, tol=tol) for v in Variant]
    reports.append(check_model(list(seeds)[:MODEL_SEEDS_IN_ALL], tol=max(tol, 1e-4)))
    return reports


def calibrate_oracle() -> GradReport:
    """Validate the oracle itself on closed-form derivatives before use."""
    entries = []
    w = np.array([3.0])
    num = finite_diff(lambda: float(w[0] ** 2), [w])[0]
    entries.append(_compare("quadratic", np.array([6.0]), num))

    x = np.array([0.3, -1.2, 2.0])
    num = finite_diff(lambda: float(np.sum(sigmoid(x))), [x])[0]
    entries.append(_compare("sigmoid", sigmoid_grad(sigmoid(x)), num))

    num = finite_diff(lambda: float(np.sum(np.tanh(x))), [x])[0]
    entries.append(_compare("tanh", tanh_grad(np.tanh(x)), num))
    return GradReport("oracle-calibration", CALIBRATION_TOL, entries)
