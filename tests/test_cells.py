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


def cell(variant: Variant, d: int, n: int, values: dict, **kw) -> CellParams:
    """A fresh cell with each given value written through its named view."""
    params = CellParams(variant, d, n, **kw)
    for name, value in values.items():
        params.tensors[name][...] = value
    return params


def scalar_lstm0() -> CellParams:
    return cell(Variant.LSTM0, 1, 1, {
        "W_i": 0.5, "U_i": 0.4, "b_i": 0.1,
        "W_f": 0.3, "U_f": 0.2, "b_f": 0.6,
        "W_o": 0.7, "U_o": 0.3, "b_o": 0.2,
        "W_c": 0.8, "U_c": 0.5, "b_c": 0.05,
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
        params = cell(Variant.LSTM6, 1, 1, {"W_c": 0.8, "U_c": 0.5, "b_c": 0.05},
                      alpha=0.59)
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
        d_xs, d_init = sequence_backward(params, cache, np.array([[[1.0]]]))
        expect = {
            "W_c": 0.10652968598533682, "U_c": 0.05326484299266841,
            "b_c": 0.10652968598533682, "W_i": 0.07360223056334388,
            "b_f": 0.025353085863836097, "b_o": 0.12441130430597236,
        }
        for name, value in expect.items():
            got = params.grads[name].ravel()[0]
            assert got == pytest.approx(value, abs=1e-15), name
        assert d_xs[0, 0, 0] == pytest.approx(0.21671870284327288, abs=1e-15)
        assert d_init.h[0, 0] == pytest.approx(0.12509974368256488, abs=1e-15)
        assert d_init.c[0, 0] == pytest.approx(0.3142330615428789, abs=1e-15)

    def test_two_step_gradients_accumulate(self):
        two, one = scalar_lstm0(), scalar_lstm0()
        xs = np.array([[[1.0]], [[1.0]]])
        hs, cache = sequence_forward(two, xs, STATE0())
        sequence_backward(two, cache, np.array([[[0.0]], [[1.0]]]))
        hs1, cache1 = sequence_forward(one, XS1, STATE0())
        sequence_backward(one, cache1, np.array([[[1.0]]]))
        # the second step alone contributes exactly the one-step gradient of
        # a cell started from (h1, c1), plus what flows through h1/c1
        assert two.grads["W_c"][0, 0] != pytest.approx(one.grads["W_c"][0, 0])
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

    @pytest.mark.parametrize("variant", list(Variant))
    def test_fresh_cell_holds_zero_views_of_its_names(self, variant):
        d, n = 3, 2
        params = CellParams(variant, d, n)
        assert list(params.tensors) == param_names(variant)
        shapes = {"W": (n, d), "U": (n, n), "u": (n,), "b": (n,)}
        for name, view in params.tensors.items():
            assert view.shape == shapes[name[0]], name
            assert view.flags.c_contiguous and view.base is params.buffers[name[0]], name
            assert not view.any(), name
        # gradients: the same names, shapes and layout, in buffers of their own
        assert list(params.grads) == param_names(variant)
        for name, view in params.grads.items():
            kind = name[0]
            assert view.shape == shapes[kind], name
            assert view.flags.c_contiguous and view.base is params.grad_buffers[kind], name
            assert params.grad_buffers[kind].shape == params.buffers[kind].shape, name
            assert not np.shares_memory(view, params.buffers[kind]), name
            assert not view.any(), name

    def test_cells_compare_by_identity(self):
        a = init_params(Variant.LSTM0, 2, 2, Rng(0))
        b = init_params(Variant.LSTM0, 2, 2, Rng(0))
        assert a == a
        assert a != b  # equal values, two cells; comparing them must not raise

    def test_rejects_bad_dims(self):
        for d, n in ((0, 2), (3, 0), (-1, 2)):
            with pytest.raises(ConfigError):
                CellParams(Variant.LSTM1, d, n)

    def test_tensor_dict_is_not_an_argument(self):
        tensors = {"W_c": np.ones((2, 3)), "U_c": np.ones((2, 2)), "b_c": np.ones(2)}
        with pytest.raises(TypeError):
            CellParams(Variant.LSTM6, 3, 2, tensors)
        with pytest.raises(TypeError):
            CellParams(Variant.LSTM6, 3, 2, 0.5)  # alpha is keyword-only

    def test_lstm6_alpha_bounds(self):
        assert CellParams(Variant.LSTM6, 3, 2, alpha=-0.5).alpha == -0.5
        for alpha in (1.0, -1.0, 2.0):
            with pytest.raises(ConfigError):
                CellParams(Variant.LSTM6, 3, 2, alpha=alpha)
        CellParams(Variant.LSTM0, 3, 2, alpha=2.0)  # only LSTM6 reads alpha


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

    @pytest.mark.parametrize("variant", list(Variant))
    def test_one_draw_equals_per_tensor_draws(self, variant):
        """The weights are drawn in one call, bit-identical to one uniform
        draw per tensor in param_names order, and the stream ends up at the
        same position."""
        d, n = 5, 3
        drawn_once, drawn_each = Rng(17), Rng(17)
        params = init_params(variant, d, n, drawn_once, forget_bias=0.5)
        s_in, s_rec = 1 / np.sqrt(d), 1 / np.sqrt(n)
        for name in param_names(variant):
            kind = name.split("_")[0]
            if kind == "W":
                expected = drawn_each.uniform((n, d), -s_in, s_in)
            elif kind == "U":
                expected = drawn_each.uniform((n, n), -s_rec, s_rec)
            elif kind == "u":
                expected = drawn_each.uniform(n, -s_rec, s_rec)
            else:
                expected = np.full(n, 0.5 if name == "b_f" else 0.0)
            assert params.tensors[name].tobytes() == expected.tobytes(), name
        assert drawn_once.uniform(4).tobytes() == drawn_each.uniform(4).tobytes()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_complex_twin_holds_the_same_draws_and_runs_forward(self, variant):
        """A complex128 build stores the float64 build's draws, and its
        forward pass gives the float64 states in its real part; a float64
        forward stays float64."""
        params = init_params(variant, 4, 3, Rng(8), forget_bias=0.5)
        twin = init_params(variant, 4, 3, Rng(8), forget_bias=0.5, dtype=np.complex128)
        for name, view in params.tensors.items():
            assert twin.tensors[name].dtype == np.complex128
            np.testing.assert_array_equal(twin.tensors[name], view)
        xs = Rng(9).uniform((5, 2, 4), -1, 1)
        init = CellState(Rng(10).uniform((2, 3), -0.5, 0.5), Rng(11).uniform((2, 3), -0.5, 0.5))
        hs, _ = sequence_forward(params, xs, init)
        hs_twin, _ = sequence_forward(twin, xs, init)
        assert hs.dtype == np.float64 and hs_twin.dtype == np.complex128
        np.testing.assert_allclose(hs_twin.real, hs, rtol=1e-14, atol=1e-16)
        assert not hs_twin.imag.any()

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
        d_xs, d_init = sequence_backward(params, cache, np.ones((7, 2, 4)))
        assert d_xs.shape == (7, 2, 3)
        assert d_init.h.shape == d_init.c.shape == (2, 4)
        assert list(params.grads) == list(params.tensors)
        assert all(params.grads[name].shape == params.tensors[name].shape
                   for name in params.grads)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_backward_adds_into_grads(self, variant):
        """sequence_backward accumulates: a second call on the same cache
        doubles every gradient, bit for bit, and leaves the weights alone."""
        params = init_params(variant, 3, 4, Rng(5))
        weights = {name: view.copy() for name, view in params.tensors.items()}
        _, cache = sequence_forward(params, Rng(6).uniform((5, 2, 3), -1, 1))
        d_hs = Rng(7).uniform((5, 2, 4), -1, 1)
        sequence_backward(params, cache, d_hs)
        once = {name: g.copy() for name, g in params.grads.items()}
        sequence_backward(params, cache, d_hs)
        for name, g in params.grads.items():
            assert once[name].any(), name
            assert g.tobytes() == (2.0 * once[name]).tobytes(), name
            assert params.tensors[name].tobytes() == weights[name].tobytes(), name

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
        sequence_backward(params, cache, np.ones((4, 1, 3)))
        assert set(params.grads) == {"W_c", "U_c", "b_c"}
        assert all(g.any() for g in params.grads.values())

    def test_batch_rows_are_independent(self):
        for variant in Variant:
            params = init_params(variant, 3, 4, Rng(10))
            xs = Rng(11).uniform((5, 3, 3), -1, 1)
            hs, _ = sequence_forward(params, xs)
            for b in range(3):
                alone, _ = sequence_forward(params, xs[:, b:b + 1])
                np.testing.assert_allclose(hs[:, b], alone[:, 0], rtol=1e-12, atol=1e-15)


def grad_bytes(params: CellParams, cache, d_hs: np.ndarray) -> list[bytes]:
    """The bytes of d_xs, d_init and every gradient buffer of one backward
    into freshly zeroed gradients."""
    for g in params.grad_buffers.values():
        g[...] = 0.0
    d_xs, d_init = sequence_backward(params, cache, d_hs)
    return [d_xs.tobytes(), d_init.h.tobytes(), d_init.c.tobytes(),
            *(g.tobytes() for g in params.grad_buffers.values())]


class TestLastStatesEntry:
    """d_hs [S, B, n] gives the gradients of the last S hidden states."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_equals_zero_padded_rows(self, variant):
        T, B, d, n = 6, 3, 4, 3
        for seed in range(5):
            rng = Rng(seed)
            params = init_params(variant, d, n, rng.derive(1))
            init = CellState(rng.uniform((B, n), -1, 1), rng.uniform((B, n), -1, 1))
            _, cache = sequence_forward(params, rng.uniform((T, B, d), -1, 1), init)
            d_hs = rng.uniform((T, B, n), -1, 1)
            for S in range(1, T + 1):
                padded = d_hs.copy()
                padded[:T - S] = 0.0
                assert (grad_bytes(params, cache, d_hs[T - S:])
                        == grad_bytes(params, cache, padded)), (seed, S)

    @pytest.mark.parametrize("shape", [(0, 3, 4), (6, 3, 4), (2, 2, 4), (2, 3, 5), (3, 4)])
    def test_rejects_shapes_outside_the_cache(self, shape):
        """S = 0, S > T = 5, a wrong batch or width, or no step axis; the
        refused call leaves the gradients alone."""
        params = init_params(Variant.LSTM0, 2, 4, Rng(5))
        _, cache = sequence_forward(params, Rng(6).uniform((5, 3, 2), -1, 1))
        with pytest.raises(ShapeError, match=r"1 <= S <= T = 5"):
            sequence_backward(params, cache, np.ones(shape))
        assert not any(g.any() for g in params.grad_buffers.values())


@pytest.mark.parametrize("seed", range(5))
def test_lstm3_caches_constant_gates_and_lstm6_none(seed):
    """lstm3's gates are sigmoid(b) at every step and row, bit for bit, from
    any initial state; lstm6 has no gates to cache."""
    rng = Rng(seed)
    T, B, d, n = (1 + int(rng.uniform(()) * top) for top in (9, 9, 6, 20))
    init = CellState(rng.uniform((B, n), -1, 1), rng.uniform((B, n), -1, 1))
    xs = rng.uniform((T, B, d), -1, 1)
    lstm3 = init_params(Variant.LSTM3, d, n, rng.derive(1))
    lstm3.buffers["b"][...] = rng.uniform(4 * n, -3, 3)
    _, cache = sequence_forward(lstm3, xs, init)
    gates = cache.gates
    assert gates.shape == (T, B, 3 * n)
    assert gates.tobytes() == np.broadcast_to(gates[0, 0], gates.shape).tobytes()
    np.testing.assert_allclose(gates[0, 0], 1 / (1 + np.exp(-lstm3.buffers["b"][:3 * n])),
                               rtol=1e-14)
    _, cache6 = sequence_forward(init_params(Variant.LSTM6, d, n, rng.derive(2)), xs, init)
    assert cache6.gates is None


@pytest.mark.parametrize("seed", range(6))
def test_lstm6_hidden_states_are_tanh_of_cell_states(seed):
    """What lstm6's backward reads in place of recomputing tanh(c): its
    cached states h[1:] are np.tanh(c[1:]) bit for bit, at odd and even
    widths, from zeros or from an initial state whose h is not tanh(c)."""
    rng = Rng(100 + seed)
    T, B, d, n = (1 + int(rng.uniform(()) * top) for top in (12, 9, 7, 33))
    params = init_params(Variant.LSTM6, d, n, rng.derive(1))
    xs = rng.uniform((T, B, d), -2, 2)
    init = CellState(rng.uniform((B, n), -1, 1), rng.uniform((B, n), -3, 3))
    for start in (None, init):
        _, cache = sequence_forward(params, xs, start)
        assert cache.gates is None
        assert cache.h[1:].tobytes() == np.tanh(cache.c[1:]).tobytes(), (T, B, d, n, start)


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


@given(st.integers(0, 10_000), st.sampled_from([v for v in Variant if v != Variant.LSTM6]))
@settings(max_examples=120, deadline=None)
def test_gates_strictly_inside_unit_interval(seed, variant):
    rng = Rng(seed)
    d = 1 + int(rng.uniform(()) * 5)
    n = 1 + int(rng.uniform(()) * 5)
    params = CellParams(variant, d, n)
    for view in params.tensors.values():  # param_names order
        view[...] = rng.uniform(view.shape, -1.0, 1.0)
    x = rng.uniform(d, -1.0, 1.0)
    h = rng.uniform(n, -1.0, 1.0)
    for gate in step_gates(params, x, h):
        assert np.all(gate > 0.0) and np.all(gate < 1.0)


def test_lstm6_decay_with_zero_candidate():
    n = 4
    params = CellParams(Variant.LSTM6, 2, n, alpha=DEFAULT_ALPHA)  # zero candidate
    c0 = Rng(2).uniform(n, -1.0, 1.0)
    init = CellState(np.zeros((1, n)), c0[None].copy())
    xs = Rng(3).uniform((12, 1, 2), -1.0, 1.0)
    _, cache = sequence_forward(params, xs, init)
    np.testing.assert_allclose(cache.c[12, 0], DEFAULT_ALPHA ** 12 * c0, atol=1e-15)
