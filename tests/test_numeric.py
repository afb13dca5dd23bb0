"""Activation functions and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    def test_grad_matches_finite_difference(self, z):
        g = tanh_grad(np.tanh(z))
        assert np.all(g > 0.0) and np.all(g <= 1.0)
        eps = 1e-6
        numeric = (np.tanh(z + eps) - np.tanh(z - eps)) / (2 * eps)
        np.testing.assert_allclose(g, numeric, rtol=1e-6, atol=1e-9)

