"""The finite-difference oracle and the checks built on it."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from slimrnn import (
    CNN_THEN_LSTM,
    LSTM_THEN_CNN,
    NumericError,
    Rng,
    SentimentModel,
    Variant,
)
from slimrnn.gradcheck import (
    DEFAULT_EPS,
    SWITCHED_VARIANTS,
    GradReport,
    ParamCheck,
    _branches,
    _compare,
    _model_configs,
    calibrate_oracle,
    check_model,
    check_module,
    check_variant,
    finite_diff,
    relative_error,
)


def test_oracle_self_calibration():
    report = calibrate_oracle()
    assert report.passed, "\n".join(report.lines())
    assert report.max_rel_err < 1e-8


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
    report = check_variant(variant, seeds=[0, 1], tol=1e-5)
    assert report.passed, "\n".join(report.lines())
    checked = {e.name for e in report.entries}
    assert {"xs", "init.h", "init.c"} <= checked


def test_variant_check_covers_all_tensors():
    report = check_variant(Variant.LSTM5, seeds=[3], tol=1e-5)
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


def test_compare_leaves_out_coordinates_at_kinks():
    analytic, numeric = np.array([1.0, 2.0, 3.0]), np.array([1.0, 5.0, 3.0])
    assert _compare("w", analytic, numeric).max_rel_err == pytest.approx(0.6)
    check = _compare("w", analytic, numeric, np.array([True, False, True]))
    assert (check.max_rel_err, check.mean_rel_err, check.kinks) == (0.0, 0.0, 1)
    assert "(1 at kinks)" in "\n".join(GradReport("demo", 1e-5, [check]).lines())


@pytest.mark.parametrize("layer", ["conv.bias", "dense0.bias", "dense1.bias"])
def test_branches_change_when_a_relu_or_pool_decision_does(layer):
    model = SentimentModel(replace(_model_configs()[0], extra_dense=True), Rng(3))
    ids = np.arange(18).reshape(3, 6)
    model.forward(ids)
    taken = _branches(model)
    model.forward(ids)
    assert _branches(model) == taken
    dict(model.named_params())[layer][...] -= 10.0  # every unit of the layer goes dead
    model.forward(ids)
    assert _branches(model) != taken


def test_check_module_dispatch():
    assert check_module("lstm3", seeds=[0]).target == "LSTM3"
    model_report = check_module("model", seeds=[], tol=1e-9)  # seed 0 runs elsewhere
    assert model_report.tolerance == pytest.approx(1e-4)  # floor for the deep stack


def test_report_lines_format():
    report = GradReport("demo", 1e-5, [ParamCheck("W", 1e-7, 1e-8, 3),
                                       ParamCheck("b", 2e-4, 1e-4, 0)])
    assert not report.passed
    text = "\n".join(report.lines())
    assert "FAIL" in text and "W" in text and "BAD" in text


def test_detects_a_broken_gradient():
    """Sanity: the harness must actually flag a wrong analytic gradient."""
    w = np.array([0.7])

    def loss():
        return float(w[0] ** 3)

    (numeric,) = finite_diff(loss, [w], DEFAULT_EPS)
    wrong_analytic = np.array([1.0])  # truth is 3*w^2 = 1.47
    assert relative_error(wrong_analytic, numeric).max() > 0.3
