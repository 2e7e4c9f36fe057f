"""Counter-based generator: frozen reference streams and distribution shape."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomst import SplitMix64, UsageError

# First three outputs per seed, frozen from a direct per-call transliteration
# of the mix function (independent of the vectorized implementation).
REFERENCE = {
    0: [16294208416658607535, 7960286522194355700, 487617019471545679],
    1: [10451216379200822465, 13757245211066428519, 17911839290282890590],
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423],
    (1 << 64) - 1: [16490336266968443936, 16834447057089888969, 4048727598324417001],
}


@pytest.mark.parametrize("seed,expected", sorted(REFERENCE.items()))
def test_reference_stream(seed, expected):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(3)] == expected


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(min_value=0, max_value=200))
def test_vectorized_stream_equals_scalar_stream(seed, count):
    scalar = SplitMix64(seed)
    vector = SplitMix64(seed)
    expected = [scalar.next_u64() for _ in range(count)]
    got = vector.u64_array(count)
    assert got.dtype == np.uint64
    assert got.tolist() == expected


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_array_calls_continue_the_stream(seed):
    whole = SplitMix64(seed).u64_array(10).tolist()
    split = SplitMix64(seed)
    assert split.u64_array(4).tolist() + split.u64_array(6).tolist() == whole


def test_uniform_range_and_determinism():
    a = SplitMix64(99).uniform_array(10_000)
    b = SplitMix64(99).uniform_array(10_000)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() < 1.0
    assert abs(a.mean() - 0.5) < 0.02


def test_uniform_is_exactly_top53_bits():
    seed = 31337
    z = SplitMix64(seed).u64_array(64)
    expected = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert np.array_equal(SplitMix64(seed).uniform_array(64), expected)


def test_normal_array_shape_and_moments():
    x = SplitMix64(5).normal_array(20_001)
    assert x.shape == (20_001,)
    assert np.isfinite(x).all()
    assert abs(x.mean()) < 0.03
    assert abs(x.std() - 1.0) < 0.03
    assert np.array_equal(x, SplitMix64(5).normal_array(20_001))


def test_below_bounds_and_determinism():
    rng = SplitMix64(7)
    draws = [rng.below(13) for _ in range(500)]
    assert set(draws) <= set(range(13))
    assert len(set(draws)) == 13
    fresh = SplitMix64(7)
    assert [fresh.below(13) for _ in range(500)] == draws
    with pytest.raises(ValueError):
        rng.below(0)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(min_value=0, max_value=40))
def test_shuffle_is_a_permutation(seed, n):
    items = list(range(n))
    SplitMix64(seed).shuffle(items)
    assert sorted(items) == list(range(n))
    again = list(range(n))
    SplitMix64(seed).shuffle(again)
    assert again == items


def test_distinct_seeds_diverge():
    assert SplitMix64(1).u64_array(4).tolist() != SplitMix64(2).u64_array(4).tolist()


def test_seed_validation():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.bool_(True), "1", None, np.float64(3.0)])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(UsageError, match=r"seed must be an integer in 0\.\.18446744073709551615"):
        SplitMix64(seed)


@pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(7), np.uint8(0)])
def test_numpy_integer_seeds_run_as_their_value(seed):
    assert SplitMix64(seed).u64_array(3).tolist() == SplitMix64(int(seed)).u64_array(3).tolist()
