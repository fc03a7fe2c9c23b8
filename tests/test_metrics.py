"""Error accounting and capacity, checked against an arbitrary-precision oracle."""

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsyncchan.core import BitStream
from fsyncchan.metrics import binary_entropy, capacity, compare_bits

# ---------------------------------------------------------------------------
# compare_bits


def test_compare_bits_all_correct():
    bits = BitStream.from_text("110100")
    rep = compare_bits(bits, bits)
    assert rep.n_bits == 6 and rep.n_ones == 3 and rep.n_zeros == 3
    assert rep.err_1to0 == rep.err_0to1 == 0
    assert rep.rate_1to0 == rep.rate_0to1 == rep.p == 0.0


def test_compare_bits_directional_rates():
    sent = BitStream.from_text("11110000")
    recv = BitStream.from_text("10110001")
    rep = compare_bits(sent, recv)
    assert rep.err_1to0 == 1 and rep.err_0to1 == 1
    assert rep.rate_1to0 == 1 / 4
    assert rep.rate_0to1 == 1 / 4
    assert rep.p == 2 / 8


def test_compare_bits_single_flip_in_long_run():
    sent = BitStream([1] * 4000 + [0] * 4000)
    recv = sent[:100] + BitStream([0]) + sent[101:]
    rep = compare_bits(sent, recv)
    assert rep.err_1to0 == 1 and rep.err_0to1 == 0
    assert rep.rate_1to0 == 1 / 4000
    assert rep.p == 1 / 8000


def test_compare_bits_one_sided_streams():
    rep = compare_bits(BitStream([1, 1]), BitStream([0, 1]))
    assert rep.n_zeros == 0 and rep.rate_0to1 == 0.0
    assert rep.rate_1to0 == 0.5


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=300))
def test_compare_bits_matches_per_bit_count(pairs):
    sent = BitStream(s for s, _ in pairs)
    received = BitStream(r for _, r in pairs)
    rep = compare_bits(sent, received)
    assert rep.n_ones == sum(s for s, _ in pairs)
    assert rep.err_1to0 == sum(1 for s, r in pairs if s == 1 and r == 0)
    assert rep.err_0to1 == sum(1 for s, r in pairs if s == 0 and r == 1)
    assert rep.p == (rep.err_1to0 + rep.err_0to1) / len(pairs)


def test_compare_bits_validation():
    with pytest.raises(ValueError):
        compare_bits(BitStream([1]), BitStream([1, 0]))
    with pytest.raises(ValueError):
        compare_bits(BitStream(), BitStream())


def test_compare_bits_identity():
    rng = random.Random(2)
    sent = BitStream(rng.getrandbits(1) for _ in range(500))
    recv = BitStream(rng.getrandbits(1) for _ in range(500))
    rep = compare_bits(sent, recv)
    assert rep.err_1to0 + rep.err_0to1 == round(rep.p * rep.n_bits)
    assert rep.n_ones + rep.n_zeros == rep.n_bits


# ---------------------------------------------------------------------------
# entropy and capacity


def _oracle_capacity(ts_us, p):
    mp.mp.dps = 50
    B = mp.mpf(10) ** 6 / mp.mpf(ts_us)
    p = mp.mpf(p)
    if p == 0 or p == 1:
        h = mp.mpf(0)
    else:
        h = -(p * mp.log(p, 2) + (1 - p) * mp.log(1 - p, 2))
    return B * (1 - h)


def test_binary_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_capacity_noiseless_is_exact():
    r = capacity(50, 0.0)
    assert r.bandwidth_bps == 20_000.0
    assert r.capacity_bps == 20_000.0
    assert r.raw_capacity_bps == 20_000.0
    assert capacity(200, 0.0).capacity_bps == 5_000.0
    assert capacity(400, 0.0).capacity_bps == 2_500.0


def test_capacity_at_half_is_zero():
    r = capacity(50, 0.5)
    assert r.capacity_bps == 0.0
    assert abs(r.raw_capacity_bps) < 1e-9


def test_capacity_clamps_beyond_half():
    r = capacity(50, 0.9)
    assert r.capacity_bps == 0.0
    assert r.raw_capacity_bps > 0.0
    full = capacity(50, 1.0)
    assert full.capacity_bps == 0.0
    assert full.raw_capacity_bps == 20_000.0


def test_capacity_frozen_oracle_value():
    # mpmath at 60 digits: C(50 us, p=0.004) = 19247.5527935544314090231
    r = capacity(50, 0.004)
    assert math.isclose(r.capacity_bps, 19247.5527935544314, rel_tol=1e-12)


def test_capacity_validation():
    with pytest.raises(ValueError):
        capacity(0, 0.1)
    with pytest.raises(ValueError):
        capacity(-50, 0.1)
    with pytest.raises(ValueError):
        capacity(50, 1.5)


@pytest.mark.parametrize("ts_us", [math.nan, math.inf, -math.inf])
def test_capacity_rejects_non_finite_symbol_time(ts_us):
    with pytest.raises(ValueError, match="positive and finite"):
        capacity(ts_us, 0.1)


def test_capacity_monotone_decreasing_to_half():
    grid = [i / 200 for i in range(0, 101)]  # 0.0 .. 0.5
    caps = [capacity(50, p).capacity_bps for p in grid]
    assert all(a >= b for a, b in zip(caps, caps[1:]))
    assert caps[0] == 20_000.0 and caps[-1] == 0.0


@settings(max_examples=200)
@given(p=st.floats(0.0, 1.0, allow_nan=False))
def test_capacity_matches_mpmath_property(p):
    got = capacity(50, p).raw_capacity_bps
    want = float(_oracle_capacity(50, p))
    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)


@given(p=st.floats(0.0, 1.0, allow_nan=False))
def test_raw_capacity_symmetry_property(p):
    a = capacity(50, p).raw_capacity_bps
    b = capacity(50, 1.0 - p).raw_capacity_bps
    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


@given(ts=st.floats(1.0, 10_000.0, allow_nan=False), p=st.floats(0.0, 0.499))
def test_capacity_bounded_by_bandwidth_property(ts, p):
    r = capacity(ts, p)
    assert 0.0 <= r.capacity_bps <= r.bandwidth_bps + 1e-9
    assert math.isclose(r.bandwidth_bps, 1e6 / ts, rel_tol=1e-12)
