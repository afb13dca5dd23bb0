"""Activation functions and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slimrnn.gradcheck import complex_step
from slimrnn.numeric import sigmoid, sigmoid_grad, tanh_grad

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSigmoid:
    def test_anchor_values(self):
        assert sigmoid(np.array(0.0)) == 0.5
        assert sigmoid(np.array(1.0)) == pytest.approx(0.7310585786300049, abs=1e-16)
        assert sigmoid(np.array(-1.0)) == pytest.approx(1 - 0.7310585786300049, abs=1e-16)

    def test_no_overflow_at_extremes(self):
        z = np.array([-1000.0, -50.0, 50.0, 1000.0])
        s = sigmoid(z)
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[-1] == 1.0

    @given(hnp.arrays(np.float64, st.integers(1, 30), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_range_and_symmetry(self, z):
        s = sigmoid(z)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        np.testing.assert_allclose(sigmoid(-z), 1.0 - s, atol=1e-15)

    @given(hnp.arrays(np.float64, st.integers(0, 30), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_real_input_keeps_the_overflow_safe_form(self, z):
        """Real input stays float64 and bit-identical to the overflow-safe
        form; only complex input takes the plain formula."""
        e = np.exp(-np.abs(z))
        s = sigmoid(z)
        assert s.dtype == np.float64
        np.testing.assert_array_equal(s, np.where(z >= 0, 1.0, e) / (1.0 + e))
        assert type(sigmoid(np.float64(0.3))) is float
        assert sigmoid([1, -2]).dtype == np.float64

    def test_complex_input_carries_the_derivative(self):
        x = np.array([-3.0, -0.4, 0.0, 0.7, 5.0])
        step = 1e-30
        s = sigmoid(x + step * 1j)
        assert s.dtype == np.complex128
        np.testing.assert_allclose(s.real, sigmoid(x), rtol=1e-15)
        np.testing.assert_allclose(s.imag / step, sigmoid_grad(sigmoid(x)), rtol=1e-12)

    def test_grad_from_output(self):
        s = sigmoid(np.array([0.0, 2.0]))
        np.testing.assert_allclose(sigmoid_grad(s), s * (1 - s))
        assert sigmoid_grad(np.array(0.5)) == 0.25


class TestTanh:
    def test_grad_from_output(self):
        t = np.tanh(np.array([0.3, -0.9]))
        np.testing.assert_allclose(tanh_grad(t), 1.0 - t * t)

    @given(hnp.arrays(np.float64, st.integers(1, 30),
                      elements=st.floats(min_value=-5.0, max_value=5.0)))
    @settings(max_examples=50, deadline=None)
    def test_grad_matches_complex_step(self, z):
        g = tanh_grad(np.tanh(z))
        assert np.all(g > 0.0) and np.all(g <= 1.0)
        twin = z.astype(np.complex128)
        (numeric,) = complex_step(lambda: np.sum(np.tanh(twin)), [twin])
        np.testing.assert_allclose(g, numeric, rtol=1e-6, atol=1e-9)

