"""Central finite-difference oracle for certifying backward passes.

The oracle never reuses analytic machinery: it perturbs each coordinate of
each array in place, re-runs the loss, and forms (L(w+eps) - L(w-eps))/2eps.
Relative error uses |a - n| / max(|a|, |n|, 1e-12) so zero gradients compare
cleanly. Dropout must be inactive in any loss handed to the checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cells import CellParams, CellState, Variant, sequence_backward, sequence_forward
from .errors import NumericError
from .rng import Rng

DEFAULT_EPS = 1e-6
# The end-to-end model check uses a larger step: its loss sums MODEL_BATCH
# O(1) terms while some true gradients sit near 1e-8, so the roundoff term
# (machine epsilon * |loss| / step) must be pushed further below them than
# the cell checks need. Much above 1e-4 a step starts to straddle the kinks
# of ReLU and max-pool.
MODEL_EPS = 1e-4
MODEL_BATCH = 3
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
            out.append(f"  {flag} {e.name:<22} max {e.max_rel_err:.3e} "
                       f"mean {e.mean_rel_err:.3e} @ {e.worst_index}")
        return out


def _compare(name: str, analytic: np.ndarray, numeric: np.ndarray) -> ParamCheck:
    err = relative_error(analytic, numeric).ravel()
    worst = int(np.argmax(err)) if err.size else 0
    return ParamCheck(name, float(err.max(initial=0.0)),
                      float(err.mean()) if err.size else 0.0, worst)


def _merge_worst(per_seed: list[list[ParamCheck]]) -> list[ParamCheck]:
    """Keep, per parameter name, the worst entry seen across seeds."""
    worst: dict[str, ParamCheck] = {}
    for entries in per_seed:
        for e in entries:
            if e.name not in worst or e.max_rel_err > worst[e.name].max_rel_err:
                worst[e.name] = e
    return list(worst.values())


def _random_cell_params(variant: Variant, d: int, n: int, rng: Rng) -> CellParams:
    from .cells import _expected_shape, param_names

    tensors = {name: rng.uniform(_expected_shape(name, d, n), -0.7, 0.7)
               for name in param_names(variant)}
    return CellParams(variant, d, n, tensors)


def check_variant(variant: Variant, seeds: Sequence[int], tol: float = 1e-5,
                  eps: float = DEFAULT_EPS, max_d: int = 6, max_n: int = 5,
                  max_t: int = 4) -> GradReport:
    """Gradient-check one cell variant over several random problem instances.

    The loss is sum_t <d_hs[t], h_t> for a random weighting d_hs, so every
    output coordinate of every batch row at every timestep backpropagates.
    Parameters, inputs and the initial state are all checked.
    """
    per_seed = []
    for seed in seeds:
        rng = Rng(seed)
        d = 1 + int(rng.uniform(()) * max_d)
        n = 1 + int(rng.uniform(()) * max_n)
        T = 1 + int(rng.uniform(()) * max_t)
        B = 1 + int(rng.uniform(()) * 3)
        params = _random_cell_params(variant, d, n, rng)
        xs = rng.uniform((T, B, d), -1.0, 1.0)
        init = CellState(rng.uniform((B, n), -0.5, 0.5), rng.uniform((B, n), -0.5, 0.5))
        d_hs = rng.uniform((T, B, n), -1.0, 1.0)

        def loss() -> float:
            hs, _ = sequence_forward(params, xs, init)
            return float(np.sum(d_hs * hs))

        hs, cache = sequence_forward(params, xs, init)
        grads, d_xs, d_init = sequence_backward(params, cache, d_hs)

        names = sorted(params.tensors)
        arrays = [params.tensors[name] for name in names] + [xs, init.h, init.c]
        numeric = finite_diff(loss, arrays, eps)
        analytic = [grads[name] for name in names] + [d_xs, d_init.h, d_init.c]
        labels = names + ["xs", "init.h", "init.c"]
        per_seed.append([_compare(lbl, a, num)
                         for lbl, a, num in zip(labels, analytic, numeric)])
    return GradReport(variant.value, tol, _merge_worst(per_seed))


def check_model(seeds: Sequence[int], tol: float = 1e-4,
                eps: float = MODEL_EPS) -> GradReport:
    """End-to-end check of the full classification model on a micro
    instance, for every cell variant, on a batch of MODEL_BATCH sequences.

    Dropout rates are zeroed so the loss is deterministic; the loss is the
    summed binary cross-entropy against fixed labels. Parameters are redrawn
    at O(1) scale after the build: training-grade inits leave this micro
    model with gradients near 1e-12, underneath the central-difference
    resolution floor (machine epsilon times |loss| over eps, about 1e-11),
    where relative error is noise. The redraw keeps every gradient well
    above that floor while exercising the same backward wiring. Entries are
    named "<parameter> [<variant>]".
    """
    from .layers import ModelHyper, ModelSpec, build_model
    from .training import bce_loss

    hyper = ModelHyper(vocab_size=20, embed_dim=4, conv_filters=3,
                       kernel_size=2, pool_size=2, hidden=3, maxlen=6,
                       spatial_dropout=0.0, dense_dropout=0.0)
    per_seed = []
    for seed in seeds:
        for k, variant in enumerate(Variant):
            rng = Rng(seed).derive(k)
            model = build_model(ModelSpec(variant=variant), hyper, rng.derive(0))
            shake = rng.derive(1)
            for _, arr in model.named_params():
                arr[...] = shake.uniform(arr.shape, -0.7, 0.7)
            ids = (rng.uniform((MODEL_BATCH, 6)) * 20).astype(np.int64)
            y = np.ones(MODEL_BATCH)

            def loss() -> float:
                return float(np.sum(bce_loss(model.forward(ids, training=False), y)[0]))

            _, dp = bce_loss(model.forward(ids, training=False), y)
            model.zero_grads()
            model.backward(dp)

            names = [name for name, _ in model.named_params()]
            arrays = [arr for _, arr in model.named_params()]
            numeric = finite_diff(loss, arrays, eps)
            analytic = [model.grads[name] for name in names]
            tag = variant.value.lower()
            per_seed.append([_compare(f"{lbl} [{tag}]", a, num)
                             for lbl, a, num in zip(names, analytic, numeric)])
    return GradReport("model", tol, _merge_worst(per_seed))


def check_module(target: str, seeds: Sequence[int], tol: float = 1e-5,
                 eps: float | None = None) -> GradReport:
    """Check one named target: a variant name or "model".

    Failures are data (report.passed is False), never exceptions. Leaving
    ``eps`` unset picks the step suited to the target.
    """
    if target.lower() == "model":
        return check_model(seeds, tol=max(tol, 1e-4), eps=eps or MODEL_EPS)
    return check_variant(Variant.parse(target), seeds, tol=tol,
                         eps=eps or DEFAULT_EPS)


def check_all(seeds: Sequence[int], tol: float = 1e-5,
              eps: float | None = None) -> list[GradReport]:
    """All seven variants plus the end-to-end model check."""
    reports = [check_variant(v, seeds, tol=tol, eps=eps or DEFAULT_EPS)
               for v in Variant]
    reports.append(check_model(list(seeds)[:3], tol=max(tol, 1e-4),
                               eps=eps or MODEL_EPS))
    return reports


def calibrate_oracle(eps: float = DEFAULT_EPS, tol: float = 1e-8) -> GradReport:
    """Validate the oracle itself on closed-form derivatives before use."""
    from .numeric import sigmoid, sigmoid_grad, tanh_act, tanh_grad

    entries = []
    w = np.array([3.0])
    num = finite_diff(lambda: float(w[0] ** 2), [w], eps)[0]
    entries.append(_compare("quadratic", np.array([6.0]), num))

    x = np.array([0.3, -1.2, 2.0])
    num = finite_diff(lambda: float(np.sum(sigmoid(x))), [x], eps)[0]
    entries.append(_compare("sigmoid", sigmoid_grad(sigmoid(x)), num))

    num = finite_diff(lambda: float(np.sum(tanh_act(x))), [x], eps)[0]
    entries.append(_compare("tanh", tanh_grad(tanh_act(x)), num))
    return GradReport("oracle-calibration", tol, entries)
