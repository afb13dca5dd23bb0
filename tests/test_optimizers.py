"""Update rules against hand-derived steps, plus convergence properties.

First-step oracles, derived by hand from the update equations:
  sgd      w=1, g=0.5, lr=0.1   -> 1 - 0.1*0.5                    = 0.95
  rmsprop  w=1, g=1,   lr=0.01  -> 1 - 0.01/(sqrt(0.1*1)+1e-8)    = 0.9683772243983162
  adam     w=1, g=0.5, lr=0.001 -> 1 - 0.001*0.5/(0.5+1e-8)       = 0.99900000002
(rmsprop: v1 = 0.1*g^2; adam: bias-corrected m̂=g, v̂=g^2 on step one.)
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DenseReference, assert_in_mapped_pages

from slimrnn import SGD, Adam, ConfigError, RMSprop, ShapeError, clip_by_global_norm
from slimrnn.optimizers import _prefix_sum_of_squares, make_optimizer

# Rows of a [12, 3] table given a gradient on successive steps. Row 1 gets
# one gradient and never another, row 4 comes and goes, and rows 3, 5, 6,
# 8 and 10 never get one.
ROW_STEPS = ([1, 4, 7], [4, 9], [2], [7, 11, 4], [0], [9, 2, 4])


def dense_slots(ref: DenseReference, name: str) -> list[np.ndarray]:
    """The reference's slots for ``name``, in the order the rule keeps them."""
    return [store[name] for store in (ref.m, ref.v) if name in store]


def test_sgd_first_step():
    w = {"w": np.array([1.0])}
    SGD(0.1).apply_update(w, {"w": np.array([0.5])})
    assert w["w"][0] == pytest.approx(0.95, abs=1e-10)


def test_rmsprop_first_step():
    w = {"w": np.array([1.0])}
    RMSprop(0.01).apply_update(w, {"w": np.array([1.0])})
    assert w["w"][0] == pytest.approx(0.9683772243983162, abs=1e-10)


def test_adam_first_step():
    w = {"w": np.array([1.0])}
    Adam(0.001).apply_update(w, {"w": np.array([0.5])})
    assert w["w"][0] == pytest.approx(0.99900000002, abs=1e-10)


def test_rmsprop_two_steps_match_scalar_recurrence():
    lr, rho, eps = 0.05, 0.9, 1e-8
    w = {"w": np.array([2.0])}
    opt = RMSprop(lr)
    wv, v = 2.0, 0.0
    for g in (1.0, -0.5, 0.25):
        opt.apply_update(w, {"w": np.array([g])})
        v = rho * v + (1 - rho) * g * g
        wv -= lr * g / (math.sqrt(v) + eps)
    assert w["w"][0] == pytest.approx(wv, abs=1e-14)


def test_adam_three_steps_match_scalar_recurrence():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    w = {"w": np.array([-1.0])}
    opt = Adam(lr)
    wv, m, v = -1.0, 0.0, 0.0
    for t, g in enumerate((0.3, -0.8, 0.1), start=1):
        opt.apply_update(w, {"w": np.array([g])})
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        wv -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    assert w["w"][0] == pytest.approx(wv, abs=1e-14)


@pytest.mark.parametrize("kind,lr", [("sgd", 0.1), ("rmsprop", 0.05), ("adam", 0.1)])
def test_monotone_descent_on_convex_quadratic(kind, lr):
    """loss(w) = 0.5 * sum((w - target)^2), gradient w - target."""
    target = np.array([1.0, -2.0, 0.5, 3.0])
    w = {"w": np.array([4.0, 4.0, 4.0, -4.0])}
    opt = make_optimizer(kind, lr)
    losses = []
    for _ in range(100):
        grad = w["w"] - target
        losses.append(0.5 * float(np.sum(grad * grad)))
        opt.apply_update(w, {"w": grad})
    losses.append(0.5 * float(np.sum((w["w"] - target) ** 2)))
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-12), f"{kind} loss increased: worst {diffs.max()}"
    assert losses[-1] < losses[0] / 10


def test_slot_state_keyed_by_name():
    opt = Adam(0.01)
    params = {"a": np.array([1.0]), "b": np.array([2.0])}
    opt.apply_update(params, {"a": np.array([1.0]), "b": np.array([0.0])})
    assert opt.slots.keys() == {"a", "b"}
    assert opt.slots["a"][0][0] != 0.0 and opt.slots["b"][0][0] == 0.0


def test_shape_and_key_mismatches():
    opt = SGD(0.1)
    with pytest.raises(ShapeError):
        opt.apply_update({"w": np.zeros(3)}, {"w": np.zeros(4)})
    with pytest.raises(ShapeError) as err:
        opt.apply_update({"w": np.zeros(3)}, {"q": np.zeros(3)})
    assert "w" in str(err.value) and "q" in str(err.value)


@pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
def test_row_step_equals_whole_table_step(kind):
    rng = np.random.default_rng(5)
    table = rng.normal(size=(12, 3))
    bias = rng.normal(size=4)
    fast = {"table": table.copy(), "bias": bias.copy()}
    slow = {"table": table.copy(), "bias": bias.copy()}
    opt, ref = make_optimizer(kind, 0.05), DenseReference(kind, 0.05)
    for step in ROW_STEPS:
        g_table = np.zeros_like(table)
        g_table[step] = rng.normal(size=(len(step), 3))
        grads = {"table": g_table, "bias": rng.normal(size=4)}
        opt.apply_update(fast, {k: g.copy() for k, g in grads.items()},
                         {"table": max(step) + 1})
        ref.apply_update(slow, grads)
        for name in fast:
            assert np.array_equal(fast[name], slow[name]), name
            assert fast[name].tobytes() == slow[name].tobytes(), name
    for name, slots in opt.slots.items():
        assert len(slots) == len(dense_slots(ref, name)) == opt.SLOTS
        for slot, ref_slot in zip(slots, dense_slots(ref, name)):
            assert np.array_equal(slot, ref_slot), name


@st.composite
def mixed_step_runs(draw):
    """Steps on a [n_rows, 3] table, each either whole (no end given, any
    row may be nonzero) or a prefix step (zero from a drawn end on), plus a
    clip norm that fires on some of them."""
    n_rows = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2**32 - 1))
    ends = draw(st.lists(st.one_of(st.none(), st.integers(0, n_rows)), min_size=1, max_size=8))
    max_norm = draw(st.sampled_from([0.0, 0.5, 1e3]))
    return n_rows, seed, ends, max_norm


@pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
@given(mixed_step_runs())
@settings(max_examples=40, deadline=None)
def test_mixed_whole_and_prefix_steps_equal_dense_reference(kind, run):
    # Slots are full size from a tensor's first step, so whole and prefix
    # steps may follow each other in any order.
    n_rows, seed, ends, max_norm = run
    rng = np.random.default_rng(seed)
    start = {"table": rng.normal(size=(n_rows, 3)), "bias": rng.normal(size=4)}
    fast = {k: p.copy() for k, p in start.items()}
    slow = {k: p.copy() for k, p in start.items()}
    opt, ref = make_optimizer(kind, 0.05), DenseReference(kind, 0.05)
    for end in ends:
        grads = {"table": rng.normal(size=(n_rows, 3)), "bias": rng.normal(size=4)}
        given_ends = {}
        if end is not None:
            grads["table"][end:] = 0.0
            given_ends = {"table": end}
        dense = {k: g.copy() for k, g in grads.items()}
        assert clip_by_global_norm(grads, max_norm, given_ends) == clip_by_global_norm(
            dense, max_norm)
        opt.apply_update(fast, grads, given_ends)
        ref.apply_update(slow, dense)
        for name in fast:
            assert fast[name].tobytes() == slow[name].tobytes(), name
    for name, slots in opt.slots.items():
        assert len(slots) == len(dense_slots(ref, name))
        for slot, ref_slot in zip(slots, dense_slots(ref, name)):
            assert slot.tobytes() == ref_slot.tobytes(), name


def test_end_for_unknown_tensor_rejected():
    with pytest.raises(ShapeError):
        SGD(0.1).apply_update({"w": np.zeros(3)}, {"w": np.zeros(3)}, {"q": 0})
    with pytest.raises(ShapeError):
        clip_by_global_norm({"w": np.zeros(3)}, 1.0, {"q": 0})


@pytest.mark.parametrize("bad", [4, -1])
def test_end_outside_the_tensor_rejected(bad):
    with pytest.raises(ShapeError, match="outside"):
        SGD(0.1).apply_update({"w": np.zeros(3)}, {"w": np.zeros(3)}, {"w": bad})
    with pytest.raises(ShapeError, match="outside"):
        clip_by_global_norm({"w": np.zeros(3)}, 1.0, {"w": bad})


@pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
def test_row_step_visits_only_leading_rows(kind):
    # Rows from the largest end given on any step are neither read nor
    # written: NaN put there in the gradient (which the caller promised is
    # zero) goes nowhere.
    opt = make_optimizer(kind, 0.1)
    params = {"w": np.ones((6, 2))}
    for step in ([0, 2], [1], [3, 0]):
        grads = {"w": np.zeros((6, 2))}
        grads["w"][step] = 1.0
        grads["w"][4:] = np.nan
        opt.apply_update(params, grads, {"w": max(step) + 1})
    assert np.isfinite(params["w"][:4]).all()
    assert (params["w"][4:] == 1.0).all()
    for slot in opt.slots["w"]:
        assert (slot[4:] == 0.0).all()
    assert opt.row_end == {"w": 4}


@pytest.mark.parametrize("kind", ["sgd", "rmsprop", "adam"])
@pytest.mark.parametrize("shape", [(3, 4), (2, 2)])
def test_tensor_that_changes_shape_rejected(kind, shape):
    opt = make_optimizer(kind, 0.1)
    opt.apply_update({"w": np.ones((3, 2))}, {"w": np.ones((3, 2))})
    with pytest.raises(ShapeError) as err:
        opt.apply_update({"w": np.ones(shape)}, {"w": np.ones(shape)})
    assert str(shape) in str(err.value) and "(3, 2)" in str(err.value)
    assert opt.t == 1
    assert opt.row_end == {"w": 3}


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_slot_pages_take_memory_only_once_stepped():
    """Whatever block the heap freed before, three Adam steps on the first
    100 rows of a reference-size table bring in about their 200 KB of
    slots, not the two 20 MB slot arrays."""
    def resident() -> int:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    mb = 1 << 20
    params = {"table": np.zeros((20000, 128))}
    grads = {"table": np.zeros((20000, 128))}
    grads["table"][:100] = 1.0
    block = np.ones(20 * mb // 8)
    del block
    opt = Adam(0.1)
    before = resident()
    for _ in range(3):
        opt.apply_update(params, grads, {"table": 100})
    assert resident() - before < 2 * mb
    for slot in opt.slots["table"]:
        assert_in_mapped_pages(slot)


def test_make_optimizer():
    assert isinstance(make_optimizer("SGD", 0.1), SGD)
    assert isinstance(make_optimizer("rmsprop", 0.1), RMSprop)
    with pytest.raises(ConfigError):
        make_optimizer("adamw", 0.1)
    with pytest.raises(ConfigError):
        make_optimizer("sgd", 0.0)
    with pytest.raises(ConfigError):
        make_optimizer("sgd", -1e-3)
    for lr in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            make_optimizer("adam", lr)


def row_sparse(n_rows: int, width: int, rows, seed: int = 0,
               scale: float = 1.0) -> np.ndarray:
    """A [n_rows, width] gradient that is zero outside ``rows``."""
    g = np.zeros((n_rows, width))
    g[list(rows)] = np.random.default_rng(seed).normal(size=(len(rows), width)) * scale
    return g


def prefix_norm_term(g: np.ndarray, rows) -> float:
    end = max(rows) + 1 if len(rows) else 0
    return _prefix_sum_of_squares(g.reshape(-1), g.size, end * g.shape[1])


@st.composite
def row_sparse_cases(draw):
    n_rows = draw(st.integers(1, 300).filter(lambda n: n % 8))
    width = draw(st.integers(1, 200))
    rows = draw(st.one_of(
        st.just([]), st.just([0]), st.just([n_rows - 1]),
        st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=12, unique=True),
        st.integers(1, n_rows).map(lambda end: list(range(end)))))
    scale = 10.0 ** draw(st.integers(-150, 150))
    g = row_sparse(n_rows, width, rows, draw(st.integers(0, 2**32 - 1)), scale)
    if rows and draw(st.booleans()):
        g[rows[-1], draw(st.integers(0, width - 1))] = draw(
            st.sampled_from([math.inf, -math.inf, math.nan]))
    return g, rows


@given(row_sparse_cases())
@settings(max_examples=150, deadline=None)
def test_prefix_norm_equals_whole_tensor_sum(case):
    g, rows = case
    expected, got = float(np.sum(g * g)), prefix_norm_term(g, rows)
    assert got == expected or (math.isnan(got) and math.isnan(expected))


@pytest.mark.parametrize("end", [1, 2, 127, 129, 2048, 2700, 10001, 19999, 20000])
@pytest.mark.parametrize("every", [1, 7])
def test_prefix_norm_at_the_reference_shape(end, every):
    # [20000, 128] is about 15 pairwise levels deep. Every row, or every 7th
    # row, before end is written, and the last row written is end - 1.
    rows = sorted(set(range(0, end, every)) | {end - 1})
    g = row_sparse(20000, 128, rows, seed=end)
    assert prefix_norm_term(g, rows) == float(np.sum(g * g))


class TestClipByGlobalNorm:
    def test_scales_jointly(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_by_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        joint = math.hypot(grads["a"][0], grads["b"][0])
        assert joint == pytest.approx(1.0, abs=1e-12)
        # direction preserved
        assert grads["a"][0] / grads["b"][0] == pytest.approx(0.75)

    @pytest.mark.parametrize("max_norm", [0.05, 100.0, 0.0])
    def test_row_ends_scale_like_whole_tensors(self, max_norm):
        rng = np.random.default_rng(6)
        table = np.zeros((40, 3))
        table[[2, 17, 30]] = rng.normal(size=(3, 3))
        grads = {"table": table, "bias": rng.normal(size=5)}
        ref = {k: g.copy() for k, g in grads.items()}
        norm = clip_by_global_norm(grads, max_norm, {"table": 31})
        assert norm == clip_by_global_norm(ref, max_norm)
        for name in grads:
            assert grads[name].tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("max_norm", [1e-3, 1e6, 0.0])
    @pytest.mark.parametrize("shape,rows", [
        ((3001, 37), [0, 5, 998, 1500, 1501, 2093]),
        ((2000, 128), list(range(1500)) + [1999]),
    ])
    def test_deep_row_ends_scale_like_whole_tensors(self, max_norm, shape, rows):
        # Tables many pairwise levels deep, written sparsely or in a dense prefix.
        rng = np.random.default_rng(8)
        grads = {"table": row_sparse(*shape, rows, seed=8), "bias": rng.normal(size=5)}
        ref = {k: g.copy() for k, g in grads.items()}
        norm = clip_by_global_norm(grads, max_norm, {"table": max(rows) + 1})
        assert norm == clip_by_global_norm(ref, max_norm)
        for name in grads:
            assert grads[name].tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("ends", [{}, {"t": 2}])
    def test_non_contiguous_gradient_clips_like_its_copy(self, ends):
        # Squares are summed in C order, so a strided view gets the norm of
        # its contiguous copy and is scaled in place.
        g = np.zeros((6, 4))[:, ::2]
        g[:2] = np.arange(4.0).reshape(2, 2) + 1.0
        copy = np.ascontiguousarray(g)
        assert clip_by_global_norm({"t": g}, 1.0, ends) == clip_by_global_norm({"t": copy}, 1.0)
        assert g.tobytes() == copy.tobytes()

    def test_noop_under_threshold(self):
        grads = {"a": np.array([0.3, 0.4])}
        norm = clip_by_global_norm(grads, 5.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])

    @given(st.floats(min_value=0.1, max_value=100.0),
           st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_post_clip_norm_never_exceeds_max(self, max_norm, values):
        grads = {"g": np.array(values)}
        clip_by_global_norm(grads, max_norm)
        assert float(np.sqrt(np.sum(grads["g"] ** 2))) <= max_norm * (1 + 1e-12)
