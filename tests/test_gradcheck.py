"""The gradient oracles and the checks built on them."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import slimrnn.gradcheck as gradcheck
from slimrnn import (
    CNN_THEN_LSTM,
    LSTM_THEN_CNN,
    NumericError,
    Rng,
    SentimentModel,
    Variant,
)
from slimrnn.gradcheck import (
    CALIBRATION_TOL,
    COMPLEX_STEP,
    SEEDS,
    SWITCHED_VARIANTS,
    TOL,
    GradReport,
    ParamCheck,
    _compare,
    _merge_worst,
    _model_configs,
    calibrate_oracle,
    check_model,
    check_module,
    check_variant,
    complex_step,
    finite_diff,
    relative_error,
)
from slimrnn.layers import Dense


def test_oracle_self_calibration():
    report = calibrate_oracle()
    assert report.passed, "\n".join(report.lines())
    assert report.tolerance == CALIBRATION_TOL == 1e-8


def test_finite_diff_quadratic_exact_to_truncation():
    w = np.array([1.5, -2.0, 0.25])

    def loss():
        return float(np.sum(w ** 2) + 3.0 * w[0])

    (grad,) = finite_diff(loss, [w])
    np.testing.assert_allclose(grad, [2 * 1.5 + 3.0, -4.0, 0.5], atol=1e-9)


def test_finite_diff_restores_arrays():
    w = np.array([0.1, 0.2])
    before = w.copy()
    finite_diff(lambda: float(np.sum(np.sin(w))), [w])
    np.testing.assert_array_equal(w, before)


def test_finite_diff_multiple_arrays():
    a, b = np.array([2.0]), np.array([[0.5, -1.0]])
    grads = finite_diff(lambda: float(a[0] * (b[0, 0] + b[0, 1])), [a, b])
    np.testing.assert_allclose(grads[0], [-0.5], atol=1e-9)
    np.testing.assert_allclose(grads[1], [[2.0, 2.0]], atol=1e-9)


def test_finite_diff_rejects_non_finite_loss():
    w = np.array([2.0])
    with pytest.raises(NumericError) as err:
        finite_diff(lambda: float("nan"), [w])
    assert "non-finite" in str(err.value)


def test_complex_step_exact_where_a_difference_has_a_floor():
    w = np.array([1.5, -2.0, 0.25], dtype=np.complex128)
    (grad,) = complex_step(lambda: np.sum(w ** 3) + 3.0 * w[0], [w])
    assert grad.dtype == np.float64
    np.testing.assert_allclose(grad, 3 * w.real ** 2 + [3.0, 0.0, 0.0], rtol=1e-15)
    # a loss of 1e8 hides a derivative of 1e-9 from a central difference
    # (roundoff near 1e8 * 2.2e-16 / 1e-6); the complex step still reads it
    v = np.array([0.5 + 0j])
    (grad,) = complex_step(lambda: 1e8 + 1e-9 * np.sin(v[0]), [v])
    assert grad[0] == pytest.approx(1e-9 * np.cos(0.5), rel=1e-14)


def test_complex_step_restores_arrays_and_handles_several():
    a, b = np.array([2.0 + 0j]), np.array([[0.5, -1.0]], dtype=np.complex128)
    before = a.copy(), b.copy()
    grads = complex_step(lambda: a[0] * (b[0, 0] + b[0, 1]), [a, b])
    np.testing.assert_array_equal(grads[0], [-0.5])
    np.testing.assert_array_equal(grads[1], [[2.0, 2.0]])
    np.testing.assert_array_equal(a, before[0])
    np.testing.assert_array_equal(b, before[1])


def test_complex_step_never_crosses_a_kink():
    """A relu and a max a hair from their kinks take the branch of the real
    value, where a central difference straddles the kink and blends both."""
    x = np.array([1e-300, -1e-300, 1.0, 1.0 - 1e-15])

    def loss(v):
        return np.sum(np.maximum(v[:2], 0.0)) + np.max(v[2:])

    z = x.astype(np.complex128)
    (grad,) = complex_step(lambda: loss(z), [z])
    np.testing.assert_array_equal(grad, [1.0, 0.0, 1.0, 0.0])
    (blend,) = finite_diff(lambda: float(loss(x)), [x])
    np.testing.assert_allclose(blend, 0.5, rtol=1e-6)


def test_complex_step_rejects_real_arrays_and_non_finite_loss():
    with pytest.raises(TypeError):
        complex_step(lambda: 0j, [np.array([1.0])])
    with pytest.raises(NumericError) as err:
        complex_step(lambda: complex("nan"), [np.array([1.0 + 0j])])
    assert "non-finite" in str(err.value)


def test_relative_error_floor_and_scale():
    a = np.array([1.0, 0.0])
    n = np.array([1.0 + 1e-9, 0.0])
    err = relative_error(a, n)
    assert err[0] == pytest.approx(1e-9, rel=1e-3)
    assert err[1] == 0.0
    # equal magnitudes of opposite sign are maximally wrong
    assert relative_error(np.array([1.0]), np.array([-1.0]))[0] == 2.0


@pytest.mark.parametrize("variant", [Variant.LSTM0, Variant.LSTM4, Variant.LSTM6])
def test_variant_check_passes(variant):
    report = check_variant(variant, seeds=[0, 1])
    assert report.passed, "\n".join(report.lines())
    checked = {e.name for e in report.entries}
    assert {"xs", "init.h", "init.c"} <= checked


def test_variant_check_covers_all_tensors():
    report = check_variant(Variant.LSTM5, seeds=[3])
    names = {e.name for e in report.entries}
    assert {"u_i", "u_f", "u_o", "b_i", "b_f", "b_o", "W_c", "U_c", "b_c"} <= names


def test_model_check_passes_single_seed():
    report = check_model(seeds=[0])
    assert report.passed, "\n".join(report.lines())
    assert any(e.name.startswith("tail.") for e in report.entries)
    assert any(e.name.startswith("conv.") for e in report.entries)
    tags = {e.name.split(" [")[1].rstrip("]") for e in report.entries}
    expected = {f"{v.value.lower()} {CNN_THEN_LSTM} tail1 dense0" for v in Variant}
    expected |= {f"{v.value.lower()} {position} tail{tail} dense{dense}"
                 for v, position, tail, dense in itertools.product(
                     SWITCHED_VARIANTS, (CNN_THEN_LSTM, LSTM_THEN_CNN), (0, 1), (0, 1))}
    assert tags == expected
    assert any(e.name.startswith("dense1.") for e in report.entries)
    # Table rows that no id looks up have an exactly zero gradient on both
    # sides: 20 rows of 4 columns, looked up by 3 x 6 ids, leave at least 2
    # rows unused, and the report counts them instead of hiding them.
    table = [e for e in report.entries if e.name.startswith("embedding.table")]
    assert all(e.zeros >= 8 for e in table)
    assert any("both zero)" in line for line in report.lines())


def test_compare_counts_coordinates_zero_on_both_sides():
    analytic = np.array([0.0, 0.0, 2.0, 0.0, -0.0])
    numeric = np.array([0.0, 1e-300, 2.0, 0.0, 0.0])
    check = _compare("w", analytic, numeric)
    assert check.zeros == 3  # a -0.0 is zero; a tiny nonzero is not
    assert check.max_rel_err < 1e-280  # 1e-300 sits under the relative error's floor
    assert "(3 both zero)" in "\n".join(GradReport("demo", TOL, [check]).lines())
    assert "both zero" not in "\n".join(
        GradReport("demo", TOL, [_compare("w", np.ones(2), np.ones(2))]).lines())


def test_merge_keeps_the_worst_seed_and_sums_zeros():
    merged = _merge_worst([[ParamCheck("w", 1e-9, 1e-10, 0, zeros=2)],
                           [ParamCheck("w", 1e-7, 1e-8, 4, zeros=0)],
                           [ParamCheck("w", 1e-8, 1e-9, 1, zeros=5)]])
    assert merged == [ParamCheck("w", 1e-7, 1e-8, 4, zeros=7)]


def test_check_module_dispatch():
    cell_report = check_module("lstm3", seeds=[0])
    model_report = check_module("model", seeds=[])  # seed 0 runs elsewhere
    assert (cell_report.target, model_report.target) == ("LSTM3", "model")
    assert cell_report.tolerance == model_report.tolerance == TOL == 1e-5
    assert SEEDS == tuple(range(10))


def test_report_lines_format():
    report = GradReport("demo", TOL, [ParamCheck("W", 1e-7, 1e-8, 3),
                                       ParamCheck("b", 2e-4, 1e-4, 0)])
    assert not report.passed
    text = "\n".join(report.lines())
    assert "FAIL" in text and "W" in text and "BAD" in text


def test_detects_a_broken_gradient():
    """Sanity: the harness must actually flag a wrong analytic gradient."""
    w = np.array([0.7 + 0j])
    (numeric,) = complex_step(lambda: w[0] ** 3, [w])
    wrong_analytic = np.array([1.0])  # truth is 3*w^2 = 1.47
    assert relative_error(wrong_analytic, numeric).max() > 0.3


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("k", range(len(_model_configs())))
def test_complex_twin_forward_matches_float64(k):
    """The forward pass is complex-safe: a complex128 build holding the same
    weights gives the float64 probabilities in its real part, and no
    imaginary part while nothing is stepped. Stepping one entry of the
    earliest parameter with a live gradient (the embedding table unless a
    dead ReLU cuts it off) must carry its derivative through every later
    layer: an op that dropped the imaginary part would zero it."""
    config = _model_configs()[k]
    model = SentimentModel(config, Rng(k))
    twin = SentimentModel(config, Rng(k), dtype=np.complex128)
    shake = Rng(100 + k)
    for (name, arr), (twin_name, twin_arr) in zip(model.named_params(), twin.named_params()):
        assert (name, twin_arr.dtype) == (twin_name, np.complex128)
        arr[...] = shake.uniform(arr.shape, -0.7, 0.7)
        twin_arr[...] = arr
    ids = (Rng(200 + k).uniform((4, 6)) * 20).astype(np.int64)
    p = model.forward(ids)
    p_twin = twin.forward(ids)
    assert p.dtype == np.float64 and p_twin.dtype == np.complex128
    np.testing.assert_allclose(p_twin.real, p, rtol=1e-14, atol=0)
    assert not p_twin.imag.any()

    model.zero_grads()
    model.backward(np.ones_like(p))  # d sum(p)
    grads = model.grads
    name = next(name for name, _ in model.named_params() if grads[name].any())
    j = int(np.argmax(np.abs(grads[name])))
    dict(twin.named_params())[name].flat[j] += 1j * COMPLEX_STEP
    stepped = np.sum(twin.forward(ids)).imag / COMPLEX_STEP
    np.testing.assert_allclose(stepped, grads[name].flat[j], rtol=1e-10)


def _scale_after(monkeypatch, owner, name, scale_grads):
    """Wrap owner.name so each call is followed by scale_grads(args)."""
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        scale_grads(*args)
        return out
    monkeypatch.setattr(owner, name, wrapped)


def test_planted_cell_gradient_error_fails_the_variant_check(monkeypatch):
    def plant(params, *_):
        params.grads["W_c"] *= 1 + 1e-3
    _scale_after(monkeypatch, gradcheck, "sequence_backward", plant)
    report = check_variant(Variant.LSTM0, seeds=[0, 1])
    assert not report.passed
    assert [e.name for e in report.entries if e.max_rel_err >= TOL] == ["W_c"]


def test_planted_dense_gradient_error_fails_the_model_check(monkeypatch):
    def plant(dense, *_):
        dense.grads["weights"] *= 1 + 1e-3
    _scale_after(monkeypatch, Dense, "backward", plant)
    report = check_model(seeds=[0])
    assert not report.passed
    bad = {e.name.split(" [")[0] for e in report.entries if e.max_rel_err >= TOL}
    assert bad == {"head.weights", "dense0.weights", "dense1.weights"}
