"""Cell variants: gate wiring, the shared state recurrence, BPTT gradients
against hand-derived scalar values, and parameter accounting.

The frozen numbers below were derived independently with scalar Python math
(math.exp/math.tanh) on a d=1, n=1 cell: x=1.0, h0=0.5, c0=0.3 and weights
  W_i=0.5 U_i=0.4 b_i=0.1   W_f=0.3 U_f=0.2 b_f=0.6
  W_o=0.7 U_o=0.3 b_o=0.2   W_c=0.8 U_c=0.5 b_c=0.05
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimrnn import CellParams, CellState, ConfigError, ShapeError, Variant
from slimrnn.cells import (
    DEFAULT_ALPHA,
    GATE_TERMS,
    count_params,
    init_params,
    param_names,
    sequence_backward,
    sequence_forward,
)
from slimrnn.rng import Rng


def scalar_lstm0() -> CellParams:
    return CellParams(Variant.LSTM0, 1, 1, {
        "W_i": np.array([[0.5]]), "U_i": np.array([[0.4]]), "b_i": np.array([0.1]),
        "W_f": np.array([[0.3]]), "U_f": np.array([[0.2]]), "b_f": np.array([0.6]),
        "W_o": np.array([[0.7]]), "U_o": np.array([[0.3]]), "b_o": np.array([0.2]),
        "W_c": np.array([[0.8]]), "U_c": np.array([[0.5]]), "b_c": np.array([0.05]),
    })


X1 = np.array([1.0])
XS1 = X1.reshape(1, 1, 1)  # one step [T, B, d] of the single input
STATE0 = lambda: CellState(np.array([[0.5]]), np.array([[0.3]]))  # noqa: E731


def step_gates(params: CellParams, x: np.ndarray, h: np.ndarray):
    """The gates (i, f, o) of one step from x [d] and h [n], read from the
    cache of a one-step sequence_forward."""
    n = params.hidden_dim
    init = CellState(h[None].copy(), np.zeros((1, n)))
    _, cache = sequence_forward(params, x.reshape(1, 1, -1), init)
    g = cache.gates[0, 0]
    return g[:n], g[n:2 * n], g[2 * n:]


class TestScalarOracleForward:
    def test_gates(self):
        i, f, o = step_gates(scalar_lstm0(), X1, STATE0().h[0])
        assert i[0] == pytest.approx(0.6899744811276125, abs=1e-16)
        assert f[0] == pytest.approx(0.7310585786300049, abs=1e-16)
        assert o[0] == pytest.approx(0.740774899182154, abs=1e-16)

    def test_state_update(self):
        hs, cache = sequence_forward(scalar_lstm0(), XS1, STATE0())
        assert cache.c[1, 0, 0] == pytest.approx(0.7716414707714534, abs=1e-15)
        assert hs[0, 0, 0] == pytest.approx(0.47993540715563077, abs=1e-15)
        assert cache.c_hat[0, 0, 0] == pytest.approx(0.8004990217606297, abs=1e-15)

    def test_lstm6_constant_gates_and_update(self):
        params = CellParams(Variant.LSTM6, 1, 1, {
            "W_c": np.array([[0.8]]), "U_c": np.array([[0.5]]),
            "b_c": np.array([0.05]),
        }, alpha=0.59)
        hs, cache = sequence_forward(params, XS1, STATE0())
        # i = 1, f = alpha, o = 1 are constants, so no gates are cached
        assert cache.gates is None
        assert cache.c[1, 0, 0] == 0.59 * 0.3 + cache.c_hat[0, 0, 0]
        assert hs[0, 0, 0] == np.tanh(cache.c[1, 0, 0])
        assert cache.c[1, 0, 0] == pytest.approx(0.9774990217606296, abs=1e-15)
        assert hs[0, 0, 0] == pytest.approx(0.7519812113887798, abs=1e-15)


class TestScalarOracleBackward:
    def test_single_step_gradients(self):
        params = scalar_lstm0()
        hs, cache = sequence_forward(params, XS1, STATE0())
        grads, d_xs, d_init = sequence_backward(params, cache, np.array([[[1.0]]]))
        expect = {
            "W_c": 0.10652968598533682, "U_c": 0.05326484299266841,
            "b_c": 0.10652968598533682, "W_i": 0.07360223056334388,
            "b_f": 0.025353085863836097, "b_o": 0.12441130430597236,
        }
        for name, value in expect.items():
            got = grads[name].ravel()[0]
            assert got == pytest.approx(value, abs=1e-15), name
        assert d_xs[0, 0, 0] == pytest.approx(0.21671870284327288, abs=1e-15)
        assert d_init.h[0, 0] == pytest.approx(0.12509974368256488, abs=1e-15)
        assert d_init.c[0, 0] == pytest.approx(0.3142330615428789, abs=1e-15)

    def test_two_step_gradients_accumulate(self):
        params = scalar_lstm0()
        xs = np.array([[[1.0]], [[1.0]]])
        hs, cache = sequence_forward(params, xs, STATE0())
        grads_two, _, _ = sequence_backward(params, cache, np.array([[[0.0]], [[1.0]]]))
        hs1, cache1 = sequence_forward(params, XS1, STATE0())
        grads_one, _, _ = sequence_backward(params, cache1, np.array([[[1.0]]]))
        # the second step alone contributes exactly the one-step gradient of
        # a cell started from (h1, c1), plus what flows through h1/c1
        assert grads_two["W_c"][0, 0] != pytest.approx(grads_one["W_c"][0, 0])
        assert hs.shape == (2, 1, 1)


class TestVariantStructure:
    def test_gate_term_table(self):
        assert GATE_TERMS[Variant.LSTM0] == ("U", "W", "b")
        assert GATE_TERMS[Variant.LSTM1] == ("U", "b")
        assert GATE_TERMS[Variant.LSTM2] == ("U",)
        assert GATE_TERMS[Variant.LSTM3] == ("b",)
        assert GATE_TERMS[Variant.LSTM4] == ("u",)
        assert GATE_TERMS[Variant.LSTM5] == ("u", "b")
        assert GATE_TERMS[Variant.LSTM6] == ()

    def test_param_names_candidate_always_full(self):
        for variant in Variant:
            names = param_names(variant)
            assert {"W_c", "U_c", "b_c"} <= set(names)
        assert set(param_names(Variant.LSTM2)) == {"U_i", "U_f", "U_o", "W_c", "U_c", "b_c"}
        assert set(param_names(Variant.LSTM6)) == {"W_c", "U_c", "b_c"}
        assert set(param_names(Variant.LSTM5)) == {
            "u_i", "b_i", "u_f", "b_f", "u_o", "b_o", "W_c", "U_c", "b_c"}

    def test_parse_accepts_case_variants_and_rejects_junk(self):
        assert Variant.parse("lstm4") is Variant.LSTM4
        assert Variant.parse("LSTM0") is Variant.LSTM0
        for bad in ("lstm7", "gru", ""):
            with pytest.raises(ConfigError):
                Variant.parse(bad)

    def test_cell_params_validation(self):
        good = {name: np.zeros((2, 3)) if name.startswith("W")
                else np.zeros((2, 2)) if name.startswith("U") else np.zeros(2)
                for name in param_names(Variant.LSTM1)}
        CellParams(Variant.LSTM1, 3, 2, good)
        with pytest.raises(ConfigError):
            CellParams(Variant.LSTM1, 3, 2, dict(good, W_i=np.zeros((2, 3))))
        missing = dict(good)
        del missing["b_i"]
        with pytest.raises(ConfigError):
            CellParams(Variant.LSTM1, 3, 2, missing)
        bad_shape = dict(good, U_f=np.zeros((3, 2)))
        with pytest.raises(ConfigError):
            CellParams(Variant.LSTM1, 3, 2, bad_shape)

    def test_lstm6_alpha_bounds(self):
        tensors = {"W_c": np.zeros((2, 3)), "U_c": np.zeros((2, 2)), "b_c": np.zeros(2)}
        CellParams(Variant.LSTM6, 3, 2, tensors, alpha=-0.5)
        for alpha in (1.0, -1.0, 2.0):
            with pytest.raises(ConfigError):
                CellParams(Variant.LSTM6, 3, 2, dict(tensors), alpha=alpha)


class TestCountParams:
    def test_spot_values(self):
        assert count_params(Variant.LSTM0, 128, 64) == 49408
        assert count_params(Variant.LSTM1, 128, 64) == 24832
        assert count_params(Variant.LSTM3, 128, 64) == 12544
        assert count_params(Variant.LSTM4, 128, 64) == 12544
        assert count_params(Variant.LSTM6, 128, 64) == 12352

    def test_formula_is_candidate_plus_three_gates(self):
        d, n = 7, 5
        candidate = n * d + n * n + n
        per_gate = {
            Variant.LSTM0: n * d + n * n + n,
            Variant.LSTM1: n * n + n,
            Variant.LSTM2: n * n,
            Variant.LSTM3: n,
            Variant.LSTM4: n,
            Variant.LSTM5: 2 * n,
            Variant.LSTM6: 0,
        }
        for variant, gate in per_gate.items():
            assert count_params(variant, d, n) == candidate + 3 * gate

    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from(list(Variant)))
    @settings(max_examples=60, deadline=None)
    def test_matches_constructed_tensor_sizes(self, d, n, variant):
        params = init_params(variant, d, n, Rng(0))
        assert sum(t.size for t in params.tensors.values()) == count_params(variant, d, n)

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            count_params(Variant.LSTM0, 0, 4)
        with pytest.raises(ConfigError):
            count_params(Variant.LSTM0, 4, -1)


class TestInitParams:
    def test_ranges_and_biases(self):
        rng = Rng(3)
        params = init_params(Variant.LSTM0, 9, 4, rng, forget_bias=1.0)
        s_in, s_rec = 1 / np.sqrt(9), 1 / np.sqrt(4)
        for name, t in params.tensors.items():
            if name.startswith("W"):
                assert np.abs(t).max() <= s_in
            elif name.startswith(("U", "u")):
                assert np.abs(t).max() <= s_rec
        assert np.all(params.tensors["b_i"] == 0.0)
        assert np.all(params.tensors["b_c"] == 0.0)
        assert np.all(params.tensors["b_f"] == 1.0)

    def test_forget_bias_only_where_gate_has_bias(self):
        params = init_params(Variant.LSTM2, 5, 3, Rng(1), forget_bias=1.0)
        assert "b_f" not in params.tensors
        params5 = init_params(Variant.LSTM5, 5, 3, Rng(1), forget_bias=0.25)
        assert np.all(params5.tensors["b_f"] == 0.25)


class TestSequenceApi:
    def test_shapes_and_cache_count(self):
        params = init_params(Variant.LSTM1, 3, 4, Rng(5))
        xs = Rng(6).uniform((7, 2, 3), -1, 1)
        hs, cache = sequence_forward(params, xs)
        assert hs.shape == (7, 2, 4)
        assert len(cache) == 7
        grads, d_xs, d_init = sequence_backward(params, cache, np.ones((7, 2, 4)))
        assert d_xs.shape == (7, 2, 3)
        assert d_init.h.shape == d_init.c.shape == (2, 4)
        assert all(grads[name].shape == params.tensors[name].shape for name in grads)

    def test_rejects_empty_sequence(self):
        params = init_params(Variant.LSTM0, 3, 4, Rng(5))
        with pytest.raises(ShapeError):
            sequence_forward(params, np.zeros((0, 1, 3)))

    def test_rejects_wrong_input_width(self):
        params = init_params(Variant.LSTM0, 3, 4, Rng(5))
        with pytest.raises(ShapeError):
            sequence_forward(params, np.zeros((2, 1, 5)))
        with pytest.raises(ShapeError):
            sequence_forward(params, np.zeros((2, 3)))  # no batch axis

    def test_rejects_wrong_initial_state(self):
        params = init_params(Variant.LSTM0, 3, 4, Rng(5))
        with pytest.raises(ShapeError):
            sequence_forward(params, np.zeros((2, 2, 3)),
                             CellState(np.zeros((1, 4)), np.zeros((1, 4))))

    def test_lstm6_gates_take_no_gradient(self):
        params = init_params(Variant.LSTM6, 2, 3, Rng(8))
        xs = Rng(9).uniform((4, 1, 2), -1, 1)
        hs, cache = sequence_forward(params, xs)
        grads, _, _ = sequence_backward(params, cache, np.ones((4, 1, 3)))
        assert set(grads) == {"W_c", "U_c", "b_c"}

    def test_batch_rows_are_independent(self):
        for variant in Variant:
            params = init_params(variant, 3, 4, Rng(10))
            xs = Rng(11).uniform((5, 3, 3), -1, 1)
            hs, _ = sequence_forward(params, xs)
            for b in range(3):
                alone, _ = sequence_forward(params, xs[:, b:b + 1])
                np.testing.assert_allclose(hs[:, b], alone[:, 0], rtol=1e-12, atol=1e-15)


class TestStackedLayout:
    def test_tensors_are_contiguous_views_into_kind_buffers(self):
        for variant in Variant:
            params = init_params(variant, 3, 2, Rng(12))
            assert set(params.buffers) == {k for k in ("W", "U", "u", "b")
                                           if any(name.startswith(k + "_")
                                                  for name in params.tensors)}
            for name, view in params.tensors.items():
                kind = name.split("_")[0]
                assert view.flags.c_contiguous, (variant, name)
                assert np.shares_memory(view, params.buffers[kind]), (variant, name)

    def test_buffers_stack_gates_then_candidate(self):
        params = init_params(Variant.LSTM0, 3, 2, Rng(13))
        W = params.buffers["W"]
        assert W.shape == (8, 3)
        for k, slot in enumerate(("i", "f", "o", "c")):
            assert np.shares_memory(params.tensors[f"W_{slot}"], W[2 * k:2 * k + 2])
        params.tensors["W_o"][0, 0] = 9.0  # writes land in the buffer
        assert W[4, 0] == 9.0
        lstm4 = init_params(Variant.LSTM4, 3, 2, Rng(14))
        assert lstm4.buffers["u"].shape == (6,)
        assert lstm4.buffers["b"].shape == (2,)  # candidate bias only
        assert lstm4.columns == {"W": slice(6, 8), "U": slice(6, 8),
                                 "u": slice(0, 6), "b": slice(6, 8)}
        lstm6 = init_params(Variant.LSTM6, 3, 2, Rng(15))
        assert lstm6.columns == {"W": slice(0, 2), "U": slice(0, 2), "b": slice(0, 2)}

    def test_construction_copies_given_tensors(self):
        given = {name: np.full(shape, 0.5) for name, shape in (
            ("W_c", (2, 3)), ("U_c", (2, 2)), ("b_c", (2,)))}
        params = CellParams(Variant.LSTM6, 3, 2, dict(given))
        params.tensors["b_c"][:] = 1.0
        assert np.all(given["b_c"] == 0.5)


@given(st.integers(0, 10_000), st.sampled_from([v for v in Variant if v != Variant.LSTM6]))
@settings(max_examples=120, deadline=None)
def test_gates_strictly_inside_unit_interval(seed, variant):
    rng = Rng(seed)
    d = 1 + int(rng.uniform(()) * 5)
    n = 1 + int(rng.uniform(()) * 5)
    from slimrnn.cells import _expected_shape

    tensors = {name: rng.uniform(_expected_shape(name, d, n), -1.0, 1.0)
               for name in param_names(variant)}
    params = CellParams(variant, d, n, tensors)
    x = rng.uniform(d, -1.0, 1.0)
    h = rng.uniform(n, -1.0, 1.0)
    for gate in step_gates(params, x, h):
        assert np.all(gate > 0.0) and np.all(gate < 1.0)


def test_lstm6_decay_with_zero_candidate():
    n = 4
    params = CellParams(Variant.LSTM6, 2, n, {
        "W_c": np.zeros((n, 2)), "U_c": np.zeros((n, n)), "b_c": np.zeros(n),
    }, alpha=DEFAULT_ALPHA)
    c0 = Rng(2).uniform(n, -1.0, 1.0)
    init = CellState(np.zeros((1, n)), c0[None].copy())
    xs = Rng(3).uniform((12, 1, 2), -1.0, 1.0)
    _, cache = sequence_forward(params, xs, init)
    np.testing.assert_allclose(cache.c[12, 0], DEFAULT_ALPHA ** 12 * c0, atol=1e-15)
