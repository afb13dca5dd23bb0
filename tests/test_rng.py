"""The RNG contract: reproducible on any platform, so every stream is pinned
against a scalar pure-Python reimplementation of the same algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimrnn import ConfigError, Rng, rng

_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _reference_stream(seed: int, n: int) -> list[int]:
    state = seed & _MASK
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        out.append(_mix(state))
    return out


def test_matches_scalar_reference_for_seed_zero():
    # These four values are the published test vector for this generator.
    assert [int(v) for v in Rng(0)._raw(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


@given(st.integers(min_value=0, max_value=_MASK), st.integers(min_value=1, max_value=64))
@settings(max_examples=40, deadline=None)
def test_matches_scalar_reference(seed, n):
    assert [int(v) for v in Rng(seed)._raw(n)] == _reference_stream(seed, n)


def test_stream_is_stateful_and_reproducible():
    a = Rng(123)
    first = a.uniform(5)
    second = a.uniform(5)
    assert not np.array_equal(first, second)
    b = Rng(123)
    np.testing.assert_array_equal(np.concatenate([first, second]), b.uniform(10))


def test_uniform_range_and_shapes():
    r = Rng(9)
    x = r.uniform((100, 3), -2.0, 5.0)
    assert x.shape == (100, 3)
    assert x.min() >= -2.0 and x.max() < 5.0
    assert r.uniform(4).shape == (4,)
    scalar = Rng(9).uniform(())
    assert type(scalar) is np.ndarray and scalar.shape == () and scalar.dtype == np.float64
    assert 0.0 <= float(scalar) < 1.0
    empty = r.uniform((0,))
    assert type(empty) is np.ndarray and empty.shape == (0,) and empty.dtype == np.float64


def _reference_uniform(seed: int, k: int, lo: float, hi: float) -> float:
    """Draw k of a fresh ``Rng(seed).uniform`` stream, from the scalar
    generator."""
    raw = _mix((seed + (k + 1) * 0x9E3779B97F4A7C15) & _MASK)
    return lo + (hi - lo) * ((raw >> 11) * 2.0**-53)


@pytest.mark.parametrize("blocks", [1, 3.5])
def test_uniform_across_block_boundaries(blocks):
    block = rng.UNIFORM_BLOCK
    n = int(blocks * block) + 1
    lo, hi = -0.05, 0.05
    x = Rng(42).uniform(n, lo, hi)
    edges = {0, n - 1} | {k for b in range(block, n, block) for k in (b - 1, b)}
    for k in sorted(edges):
        assert x[k].tobytes() == np.float64(_reference_uniform(42, k, lo, hi)).tobytes(), k
    small = Rng(42)
    parts = [small.uniform(min(7919, n - start), lo, hi) for start in range(0, n, 7919)]
    assert np.concatenate(parts).tobytes() == x.tobytes()


def test_uniform_does_not_depend_on_block_size(monkeypatch):
    expected = Rng(8).uniform((40, 25), -1.0, 3.0)
    monkeypatch.setattr(rng, "UNIFORM_BLOCK", 7)
    assert Rng(8).uniform((40, 25), -1.0, 3.0).tobytes() == expected.tobytes()


def test_uniform_rejects_empty_interval():
    with pytest.raises(ConfigError):
        Rng(1).uniform(3, 1.0, 1.0)
    with pytest.raises(ConfigError):
        Rng(1).uniform(3, 2.0, -2.0)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=200))
@settings(max_examples=30, deadline=None)
def test_permutation_is_a_permutation(seed, n):
    p = Rng(seed).permutation(n)
    assert sorted(p.tolist()) == list(range(n))


def test_permutation_depends_on_seed():
    assert not np.array_equal(Rng(0).permutation(50), Rng(1).permutation(50))


def test_derive_gives_independent_deterministic_children():
    root = Rng(77)
    a, b = root.derive(0), root.derive(1)
    assert a.seed != b.seed
    assert not np.array_equal(a.uniform(8), b.uniform(8))
    # deriving does not advance or depend on the parent's counter
    root.uniform(100)
    assert root.derive(0).seed == a.seed
    np.testing.assert_array_equal(Rng(77).derive(1).uniform(8), Rng(77).derive(1).uniform(8))


def test_uniform_covers_unit_interval_roughly():
    x = Rng(5).uniform(20000)
    assert abs(x.mean() - 0.5) < 0.01
    assert x.var() == pytest.approx(1 / 12, rel=0.05)
