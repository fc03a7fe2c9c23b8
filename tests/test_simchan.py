"""Virtual-clock contention simulator behavior."""

import hashlib
import io
import math
import os
import random
import re
import statistics
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsyncchan
from fsyncchan import simchan
from fsyncchan.core import BitStream, ChannelConfig, TraceMeta, prbs_sequence, trace_write
from fsyncchan.modem import SourceExhausted, TraceSource
from fsyncchan.simchan import (
    IDLE,
    PROBE_OVERHEAD_NS,
    ActivityTimeline,
    ContentionModel,
    LatencyDistribution,
    NoiseDegree,
    NoiseProcess,
    SenderSchedule,
    SimParams,
    SimSource,
    cross_disk_model,
    default_model,
    loopback,
    parse_sim_params,
    sim_receive,
    sim_transmit,
)
from fsyncchan.simchan import _SIM_PARAM_KEYS, _activity_edges, _draw_latencies
from synthgen import (
    WindowGridReference,
    active_at_reference,
    columns,
    merge_windows_reference,
    pairs,
    probe_stream_reference,
    sim_receive_reference,
    validate_sequential,
)

# ---------------------------------------------------------------------------
# latency distributions and models


def test_distribution_zero_std_is_exact():
    dist = LatencyDistribution(30_000, 0)
    rng = random.Random(1)
    assert all(dist.draw(rng) == 30_000 for _ in range(10))
    # every draw takes one Gaussian variate, so probe i always reads variate i
    twin = random.Random(1)
    for _ in range(10):
        twin.gauss(0.0, 1.0)
    assert rng.getstate() == twin.getstate()


def test_distribution_clamps_at_floor():
    dist = LatencyDistribution(1_500, 10_000)
    rng = random.Random(1)
    draws = [dist.draw(rng) for _ in range(2_000)]
    assert min(draws) == 1_000  # heavy left tail must hit the clamp
    assert all(d >= 1_000 for d in draws)


def test_distribution_validation():
    with pytest.raises(ValueError):
        LatencyDistribution(0, 10)
    with pytest.raises(ValueError):
        LatencyDistribution(100, -1)


@pytest.mark.parametrize("field", ["mean_ns", "std_ns"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e300, 1.000001e12])
def test_distribution_rejects_nonfinite_and_huge(field, value):
    # each draw is rint(mean + z * std) with |z| < 9: bounding both keeps
    # every draw and every block's time sum inside int64 ns
    kwargs = {"mean_ns": 21_390.0, "std_ns": 2_479.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite and at most 1e12 ns"):
        LatencyDistribution(**kwargs)


def test_largest_latencies_simulate_inside_int64():
    # a wrapped int64 sum would break the nondecreasing timestamps the trace
    # checks, and an out-of-range float cast warns, which fails the suite
    wide = LatencyDistribution(1e12, 1e12)
    model = ContentionModel(LatencyDistribution(21_390, 1e12), wide)
    sched = SenderSchedule(BitStream([1, 0] * 50), 10**8)
    trace = sim_receive(sched, model, 5, duration_ns=5 * 10**15)
    assert len(trace) > 4_096  # more than one block of draws
    assert int(trace.latencies_ns.max()) <= 10**13


def test_distribution_draws_are_seed_stable():
    a = [LatencyDistribution(21_390, 2_479).draw(random.Random(9)) for _ in range(5)]
    b = [LatencyDistribution(21_390, 2_479).draw(random.Random(9)) for _ in range(5)]
    assert a == b


def test_empirical_model_requires_separation():
    sa = LatencyDistribution(21_390, 2_479)
    with pytest.raises(ValueError):
        ContentionModel.empirical(sa, LatencyDistribution(21_390, 2_522))
    with pytest.raises(ValueError):
        ContentionModel.empirical(sa, LatencyDistribution(20_000, 2_522))


def test_default_model_preset_values():
    m = default_model()
    assert m.standalone.mean_ns == 21_390.0
    assert m.contended.mean_ns == 43_134.0
    assert m.contended.std_ns == 2_522.0


def test_cross_disk_model_contrast():
    m = cross_disk_model()
    assert m.standalone.mean_ns == 21_045.51
    assert m.contended.mean_ns == 22_253.03
    assert m.contended.std_ns == 1_611.29


# ---------------------------------------------------------------------------
# timelines and schedules


def test_activity_timeline_merges_and_sorts():
    tl = ActivityTimeline([(50, 80), (0, 20), (10, 30)])
    assert tl.windows() == [(0, 30), (50, 80)]
    assert tl.duration_ns == 80


_WINDOW_LISTS = st.lists(
    st.tuples(st.integers(0, 60), st.integers(-2, 25)).map(lambda w: (w[0], w[0] + w[1])),
    max_size=30,
)


def _merged_or_error(merge, windows):
    try:
        return merge(windows)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(windows=_WINDOW_LISTS)
def test_activity_timeline_matches_reference_merge(windows):
    # small coordinates make overlapping, nested, touching and duplicate
    # windows common; a nonpositive width must fail on the same window
    got = _merged_or_error(lambda w: ActivityTimeline(w).windows(), windows)
    assert got == _merged_or_error(merge_windows_reference, windows)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), max_size=40),
    ts_us=st.integers(1, 3),
    bursts=_WINDOW_LISTS.map(lambda ws: [(s * 200, e * 200) for s, e in ws if e > s]),
)
def test_activity_edges_are_reference_union(bits, ts_us, bursts):
    # the simulator's contention windows: the union of the sender's runs and
    # the noise bursts, touching windows joined
    runs = [(i * ts_us * 1000, (i + 1) * ts_us * 1000) for i, bit in enumerate(bits) if bit]
    sched = SenderSchedule(BitStream(bits), ts_us)
    for noise in (ActivityTimeline(bursts), None):
        edges = _activity_edges(sched, noise).tolist()
        want = merge_windows_reference(runs + (bursts if noise is not None else []))
        assert list(zip(edges[0::2], edges[1::2])) == want
        assert len(edges) == 2 * len(want) + 1 and edges[-1] == 2**63 - 1  # the sentinel


def test_activity_timeline_validation_and_idle():
    with pytest.raises(ValueError, match=r"empty or inverted window \(10, 10\)"):
        ActivityTimeline([(10, 10)])
    with pytest.raises(ValueError, match=r"empty or inverted window \(10, 5\)"):
        ActivityTimeline([(20, 30), (10, 5), (12, 3)])
    assert len(IDLE) == 0


def test_sender_schedule_alternating_bits():
    sched = SenderSchedule(BitStream.from_text("10101010"), ts_us=50)
    assert isinstance(sched, ActivityTimeline)
    assert len(sched) == 4
    assert sched.duration_ns == 8 * 50_000
    assert sched.windows() == [
        (0, 50_000),
        (100_000, 150_000),
        (200_000, 250_000),
        (300_000, 350_000),
    ]


def test_sender_schedule_merges_runs():
    sched = SenderSchedule(BitStream.from_text("0110"), ts_us=50)
    assert sched.windows() == [(50_000, 150_000)]
    # a trailing 0 is still part of the transmission
    assert sched.duration_ns == 4 * 50_000


def test_sender_schedule_validation():
    with pytest.raises(ValueError):
        SenderSchedule(BitStream([1]), ts_us=0)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 1), max_size=40), ts_us=st.integers(1, 400))
def test_sender_schedule_is_the_bits(bits, ts_us):
    # the timeline columns answer as indexing the bits would, trailing zeros
    # and the empty stream included
    ts = ts_us * 1000
    sched = SenderSchedule(BitStream(bits), ts_us)
    assert sched.duration_ns == len(bits) * ts
    runs = merge_windows_reference([(i * ts, (i + 1) * ts) for i, bit in enumerate(bits) if bit])
    assert sched.windows() == runs
    assert len(sched) == len(runs)
    probes = {-1, sched.duration_ns}
    for start, end in runs:
        probes.update((start - 1, start, start + 1, end - 1, end, end + 1))
    for t in sorted(probes):
        want = 0 <= t < sched.duration_ns and bits[t // ts] == 1
        assert active_at_reference(sched, t) == want, t


# ---------------------------------------------------------------------------
# noise


def test_noise_degree_rates():
    assert [d.bursts_per_second for d in NoiseDegree] == [0.0, 5.0, 50.0, 500.0, 5000.0]


def test_noise_from_degree_none_is_noiseless():
    assert NoiseProcess.from_degree(NoiseDegree.NONE, default_model()) is None
    proc = NoiseProcess.from_degree(NoiseDegree.HIGH, default_model())
    assert proc.degree is NoiseDegree.HIGH
    assert proc.burst_len.mean_ns == 43_134.0


def test_noise_materialize_deterministic_and_sorted():
    proc = NoiseProcess.from_degree(NoiseDegree.HIGH, default_model())
    a = proc.materialize(100_000_000, random.Random(4)).windows()
    b = proc.materialize(100_000_000, random.Random(4)).windows()
    assert a == b
    assert len(a) > 20
    assert all(s < e for s, e in a)
    # merged timeline: strictly ordered, non-overlapping
    flat = [v for w in a for v in w]
    assert flat == sorted(flat)


def test_noise_burst_count_scales_with_degree():
    horizon = 200_000_000  # 200 ms
    totals = []
    for degree in (NoiseDegree.LOW, NoiseDegree.MEDIUM, NoiseDegree.HIGH):
        proc = NoiseProcess.from_degree(degree, default_model())
        n = sum(len(proc.materialize(horizon, random.Random(seed))) for seed in range(10))
        totals.append(n)
    assert totals[0] < totals[1] < totals[2]


def test_noise_burst_cap_checked_before_drawing(monkeypatch):
    # the expected count, rate * horizon, is checked before the first draw
    monkeypatch.setattr(simchan, "MAX_NOISE_BURSTS", 100)
    proc = NoiseProcess.from_degree(NoiseDegree.HIGH, default_model())  # 500 bursts a second
    assert len(proc.materialize(190_000_000, random.Random(1))) > 0
    drawn = random.Random(1)
    message = r"^high noise over a 0\.21 s horizon .* over the limit of 100$"
    with pytest.raises(ValueError, match=message):
        proc.materialize(210_000_000, drawn)
    assert drawn.getstate() == random.Random(1).getstate()


def test_probe_cap_checked_before_drawing(monkeypatch):
    # the probes due at a lower bound on the mean standalone draw are
    # checked before the first probe variate; the bound counts the clamp at
    # the latency floor, and is exact where the mean sits on the floor
    monkeypatch.setattr(simchan, "MAX_SIM_PROBES", 1000)
    model = default_model()
    per_probe = simchan._mean_draw_bound_ns(model.standalone) + PROBE_OVERHEAD_NS
    assert len(sim_receive(IDLE, model, 1, duration_ns=int(990 * per_probe))) > 900

    def no_draw(rng, n, model):
        raise AssertionError("a probe variate was drawn")

    monkeypatch.setattr(simchan, "_draw_latencies", no_draw)
    with pytest.raises(ValueError, match=r"about 1,010 probes, over the limit of 1,000$"):
        sim_receive(IDLE, model, 1, duration_ns=int(1010 * per_probe))
    clamped = LatencyDistribution(1_000, 1_000)
    rng = random.Random(3)
    mean = statistics.fmean(clamped.draw(rng) for _ in range(100_000))
    assert simchan._mean_draw_bound_ns(clamped) == pytest.approx(mean, rel=0.01)
    assert simchan._mean_draw_bound_ns(LatencyDistribution(500, 0)) == 1_000
    for mean_ns, std_ns in ((1_400, 1_000), (200, 5_000), (30_000, 900)):
        dist = LatencyDistribution(mean_ns, std_ns)
        mean = statistics.fmean(dist.draw(rng) for _ in range(100_000))
        assert 0.8 * mean < simchan._mean_draw_bound_ns(dist) < 1.01 * mean, (mean_ns, std_ns)


def test_noise_timeline_queries():
    # materialized bursts are a merged ActivityTimeline the probe queries
    proc = NoiseProcess(NoiseDegree.HIGH, LatencyDistribution(40_000, 0))
    tl = proc.materialize(100_000_000, random.Random(4))
    assert isinstance(tl, ActivityTimeline)
    assert len(tl) > 20
    for start, end in tl.windows():
        assert end - start >= 40_000
        assert active_at_reference(tl, start) and active_at_reference(tl, end - 1)
        assert not active_at_reference(tl, end)


# ---------------------------------------------------------------------------
# probing


def _fixed_model():
    return ContentionModel.empirical(
        LatencyDistribution(30_000, 0), LatencyDistribution(50_000, 0)
    )


class _FixedNoise:
    """A noise process whose bursts are given up front."""

    degree = NoiseDegree.NONE  # no rate, so no burst cap

    def __init__(self, windows):
        self.windows = windows

    def materialize(self, horizon_ns, rng):
        return ActivityTimeline(self.windows)


def test_sim_probe_idle_uses_standalone():
    trace = sim_receive(IDLE, _fixed_model(), 0, duration_ns=40_000)
    assert columns(trace) == ([0, 30_000 + PROBE_OVERHEAD_NS], [30_000, 30_000])


def test_sim_probe_arrival_rule_ignores_future_activity():
    activity = ActivityTimeline([(25_000, 26_000)])  # starts after the arrival
    trace = sim_receive(activity, _fixed_model(), 0, duration_ns=40_000)
    assert trace.latencies_ns.tolist() == [30_000, 30_000]


def test_sim_probe_contended_at_arrival():
    activity = ActivityTimeline([(0, 10_000)])
    trace = sim_receive(activity, _fixed_model(), 0, duration_ns=60_000)
    assert trace.latencies_ns.tolist() == [50_000, 30_000]
    # noise bursts count the same way, and a window's end is not in it
    noise = _FixedNoise([(20_000, 32_000), (60_000, 70_000)])
    trace = sim_receive(IDLE, _fixed_model(), 0, duration_ns=120_000, noise=noise)
    assert trace.timestamps_ns.tolist() == [0, 32_000, 64_000, 116_000]
    assert trace.latencies_ns.tolist() == [30_000, 30_000, 50_000, 30_000]


def test_sim_receive_idle_stays_standalone():
    trace = sim_receive(IDLE, default_model(), 123, duration_ns=5_000_000)
    assert len(trace) > 100
    validate_sequential(trace)
    lo, hi = 21_390 - 5 * 2_479, 21_390 + 5 * 2_479
    assert lo <= trace.latencies_ns.min() and trace.latencies_ns.max() <= hi
    assert trace.meta.probe_mode == "sim-empirical"


def test_sim_receive_deterministic():
    a = sim_receive(IDLE, default_model(), 7, duration_ns=2_000_000)
    b = sim_receive(IDLE, default_model(), 7, duration_ns=2_000_000)
    assert a == b
    c = sim_receive(IDLE, default_model(), 8, duration_ns=2_000_000)
    assert columns(a) != columns(c)  # their meta differs too: compare the columns


def test_sim_receive_validation():
    with pytest.raises(ValueError):
        sim_receive(IDLE, default_model(), 1, duration_ns=0)


def test_sim_receive_peak_memory_is_about_one_trace():
    # the blocks are joined one column at a time and handed over uncopied
    model = default_model()
    sim_receive(IDLE, model, 7, duration_ns=1_000_000)  # warm lazy state outside the window
    tracemalloc.start()
    try:
        trace = sim_receive(IDLE, model, 7, duration_ns=200_000 * 23_400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column_bytes = trace.timestamps_ns.nbytes + trace.latencies_ns.nbytes
    assert len(trace) > 190_000
    assert peak <= 1.75 * column_bytes + 1_000_000, (peak, column_bytes)


def test_sim_receive_checks_the_columns_it_hands_over(monkeypatch):
    # the timestamps are rebuilt from the latencies, so the fault a block
    # can still carry into the trace is a latency
    def zero_latency_block(activity, model, seed, noise, horizon_ns):
        yield np.array([0, 22_000, 44_000, 46_000]), np.array([20_000, 20_000, 0, 20_000])

    trace = sim_receive(IDLE, default_model(), 3, duration_ns=1_000_000)
    for column in (trace.timestamps_ns, trace.latencies_ns):
        with pytest.raises(ValueError):
            column.setflags(write=True)
    monkeypatch.setattr(simchan, "_probe_blocks", zero_latency_block)
    with pytest.raises(ValueError, match="^sample 2: latency must be positive$"):
        sim_receive(IDLE, default_model(), 3, duration_ns=1_000_000)


def test_sim_receive_all_active_matches_contended_mean():
    activity = ActivityTimeline([(0, 10**9)])
    trace = sim_receive(activity, default_model(), 5, duration_ns=460_000_000)
    lats = trace.latencies_ns.tolist()
    assert len(lats) >= 10_000
    mean = statistics.fmean(lats[:10_000])
    assert abs(mean - 43_134) / 43_134 < 0.01


def test_sim_transmit_separates_symbols():
    bits = BitStream.from_text("10" * 50)
    cfg = ChannelConfig(ts_us=50)
    sched = SenderSchedule(bits, 50)
    trace = sim_transmit(bits, cfg, default_model(), 31)
    validate_sequential(trace)
    assert trace.duration_ns <= sched.duration_ns + 50_000  # last fsync may run over
    active = [lat for t, lat in pairs(trace) if active_at_reference(sched, t)]
    idle = [lat for t, lat in pairs(trace) if not active_at_reference(sched, t)]
    assert len(active) > 40 and len(idle) > 70
    assert all(lat > 32_085 for lat in active)
    assert all(lat < 32_085 for lat in idle)
    assert abs(statistics.fmean(active) - 43_134) < 1_000
    assert abs(statistics.fmean(idle) - 21_390) < 1_000


def test_sim_transmit_validation():
    with pytest.raises(ValueError):
        sim_transmit(BitStream(), ChannelConfig(), default_model(), 1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sim_transmit_seed_determinism_property(seed):
    bits = BitStream.from_text("1100101")
    cfg = ChannelConfig(ts_us=50)
    a = sim_transmit(bits, cfg, default_model(), seed)
    b = sim_transmit(bits, cfg, default_model(), seed)
    assert a == b


def test_sim_transmit_pinned():
    # 50 us symbols under high noise: about 100 bursts cross the sender's runs
    model = default_model()
    noise = NoiseProcess.from_degree(NoiseDegree.HIGH, model)
    trace = sim_transmit(prbs_sequence(4000, 9), ChannelConfig(ts_us=50), model, 77, noise=noise)
    buf = io.StringIO()
    trace_write(trace, buf)
    assert len(trace) == 6289
    digest = hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest()
    assert digest == "15771cb9eabf035c58aa1d2a5eef4b532aae626b9c22f1812429264e74d6b123"


def test_noise_makes_quiet_probes_contended_monotonically():
    model = default_model()
    counts = []
    for degree in NoiseDegree:
        total = 0
        for seed in range(10):
            proc = NoiseProcess.from_degree(degree, model)
            trace = sim_receive(IDLE, model, seed, duration_ns=50_000_000, noise=proc)
            total += int((trace.latencies_ns > 32_085).sum())
        counts.append(total)
    assert counts[0] == 0  # none
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


# ---------------------------------------------------------------------------
# block latency draws against one rng.gauss call per variate

_MEANS = st.one_of(
    st.sampled_from([1_000.0, 21_390.0, 43_134.0, 1e12]), st.floats(1e-3, 1e12)
)
_STDS = st.one_of(st.sampled_from([0.0, 2_479.0, 1e9, 1e12]), st.floats(0.0, 1e12))


def _draws(rng, n, dist):
    """dist's next n latencies, one rng.gauss call each."""
    return np.array([dist.draw(rng) for _ in range(n)], dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    earlier=st.integers(0, 3),  # an odd number of earlier gauss calls leaves a spare
    sizes=st.lists(
        st.one_of(st.integers(0, 40), st.sampled_from([255, 256, 4096, 4097, 9001])),
        min_size=1,
        max_size=3,
    ),
    means=st.tuples(_MEANS, _MEANS).map(sorted).filter(lambda m: m[0] < m[1]),
    stds=st.tuples(_STDS, _STDS),
)
def test_draw_latencies_match_gauss_calls(seed, earlier, sizes, means, stds):
    model = ContentionModel(*(LatencyDistribution(m, s) for m, s in zip(means, stds)))
    got_rng = random.Random(seed)
    twins = [random.Random(seed), random.Random(seed)]  # one per state
    for rng in [got_rng, *twins]:
        for _ in range(earlier):
            rng.gauss(0.0, 1.0)
    for n in sizes:  # a block's spare carries into the next block
        got = _draw_latencies(got_rng, n, model)
        for column, twin, dist in zip(got, twins, (model.standalone, model.contended)):
            assert column.dtype == np.int64
            assert np.array_equal(column, _draws(twin, n, dist))
            assert got_rng.getstate() == twin.getstate()


def _off_by(monkeypatch, sign):
    """Make numpy's log 2**-42 off relative to itself, and its cos and sin
    2**-42 off absolute, in the direction of sign."""
    for name, relative in (("log", True), ("cos", False), ("sin", False)):
        fn = getattr(np, name)

        def off(x, *args, _fn=fn, _relative=relative, **kwargs):
            r = _fn(x, *args, **kwargs)
            if _relative:
                r *= 1.0 + sign * 2.0**-42
            else:
                r += sign * 2.0**-42
            return r

        monkeypatch.setattr(np, name, off)


@pytest.mark.parametrize("sign", [0, 1, -1], ids=["numpy", "above", "below"])
@pytest.mark.parametrize("index", [0, 1, 1_001])
def test_draw_latencies_on_a_tie(monkeypatch, sign, index):
    # mean + z * std lands within 1 ulp of k + 0.5 for one known variate (a
    # cosine, a sine, one deep in the block), where a last-bit change in z
    # would move the rounded latency; the odd count leaves a spare in rng
    std = 2_479.0
    twin = random.Random(11)
    z = [twin.gauss(0.0, 1.0) for _ in range(index + 1)][-1]
    dists = []
    for tie in (21_390.5, 43_134.5):
        mean = tie - z * std
        assert abs(mean + z * std - tie) <= math.ulp(tie)
        dists.append(LatencyDistribution(mean, std))
    twins = [random.Random(11), random.Random(11)]
    want = [_draws(twin, 4_097, dist) for twin, dist in zip(twins, dists)]
    if sign:
        _off_by(monkeypatch, sign)
    got_rng = random.Random(11)
    got = _draw_latencies(got_rng, 4_097, ContentionModel(*dists))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got_rng.getstate() == twins[0].getstate()


@pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
def test_sim_receive_exact_with_numpy_off_by_2_to_the_minus_42(monkeypatch, sign):
    # at stds of 1e9 and 3e9 ns, numpy 2**-42 off moves mean + z * std by
    # up to about 1e-3 ns, so a few of the wide run's 7,000 probes round
    # the other way unless the guard (margins 0.03 and 0.1 ns) draws them
    # again with the math module
    wide = ContentionModel.empirical(
        LatencyDistribution(5e9, 1e9), LatencyDistribution(2e10, 3e9)
    )
    wide_activity = ActivityTimeline([(3 * 10**12, 5 * 10**12), (7 * 10**12, 10**13)])
    runs = [
        (wide, wide_activity, 4 * 10**13, NoiseDegree.NONE),
        (default_model(), SenderSchedule(prbs_sequence(2_000, 6), 50), None, NoiseDegree.HIGH),
    ]
    want = []
    for model, activity, duration_ns, degree in runs:
        noise = NoiseProcess.from_degree(degree, model)
        duration_ns = duration_ns or activity.duration_ns
        want.append(sim_receive_reference(activity, model, 9, duration_ns=duration_ns, noise=noise))
    _off_by(monkeypatch, sign)
    for (model, activity, duration_ns, degree), expected in zip(runs, want):
        noise = NoiseProcess.from_degree(degree, model)
        duration_ns = duration_ns or activity.duration_ns
        got = sim_receive(activity, model, 9, duration_ns=duration_ns, noise=noise)
        assert pairs(got) == expected


def test_simulator_leaves_numpy_random_unimported():
    # numpy.random adds about 6 MB of RSS on import; the simulator draws
    # from the random module's generator instead
    script = textwrap.dedent(
        """
        import sys
        import fsyncchan as fc
        model = fc.default_model()
        noise = fc.NoiseProcess.from_degree(fc.NoiseDegree.HIGH, model)
        cfg = fc.ChannelConfig(ts_us=50, payload_len=1000)
        fc.sim_transmit(fc.prbs_sequence(2000, 1), cfg, model, 2, noise=noise)
        fc.loopback(fc.prbs_sequence(2000, 3), cfg, model, calibration_seed=4, channel_seed=5,
                    noise=noise)
        assert "numpy.random" not in sys.modules, "numpy.random was imported"
        """
    )
    src = str(Path(fsyncchan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# stretch simulator against the one-probe-per-call reference

_ONE_FIXED_SIDE = ContentionModel.empirical(
    LatencyDistribution(21_390, 0), LatencyDistribution(43_134, 2_522)
)
_FIXED_EDGES = ContentionModel.empirical(
    LatencyDistribution(20_000, 0), LatencyDistribution(42_000, 0)
)


@pytest.mark.parametrize(
    "activity,model,degree,duration_ns",
    [
        (SenderSchedule(prbs_sequence(2_000, 3), 50), default_model(), NoiseDegree.NONE, None),
        (SenderSchedule(prbs_sequence(800, 4), 400), cross_disk_model(), NoiseDegree.NONE, None),
        (SenderSchedule(prbs_sequence(2_000, 5), 50), _ONE_FIXED_SIDE, NoiseDegree.HIGH, None),
        (SenderSchedule(prbs_sequence(2_000, 6), 50), default_model(), NoiseDegree.HIGH, None),
        (SenderSchedule(prbs_sequence(2_000, 7), 50), default_model(), NoiseDegree.CRITICAL, None),
        (ActivityTimeline([(3_000_000, 5_500_000), (9_000_000, 9_100_000)]),
         default_model(), NoiseDegree.LOW, 12_000_000),
        # probes land exactly on both edges: 0, 22k, 44k (start: contended), 88k (end: not)
        (ActivityTimeline([(44_000, 88_000)]), _FIXED_EDGES, NoiseDegree.NONE, 2_000_000),
        # one contended stretch of ~2,300 probes spans several variate chunks
        (ActivityTimeline([(1_000, 100_000_000)]), default_model(), NoiseDegree.NONE, 120_000_000),
        (IDLE, _FIXED_EDGES, NoiseDegree.CRITICAL, 30_000_000),
    ],
    ids=["default", "cross-disk", "one-fixed-side", "high-noise", "critical-noise", "victims",
         "window-edges", "chunk-edges", "fixed-under-noise"],
)
def test_sim_receive_matches_reference(activity, model, degree, duration_ns):
    if duration_ns is None:
        duration_ns = activity.duration_ns
    noise = NoiseProcess.from_degree(degree, model)
    for seed in (1, 2024):
        got = sim_receive(activity, model, seed, duration_ns=duration_ns, noise=noise)
        want = sim_receive_reference(activity, model, seed, duration_ns=duration_ns, noise=noise)
        assert pairs(got) == want
    if activity is not IDLE and model is _FIXED_EDGES:
        assert pairs(got)[:5] == [
            (0, 20_000), (22_000, 20_000), (44_000, 42_000), (88_000, 20_000), (110_000, 20_000)
        ]



def _stretch_timeline(lengths):
    """Windows under _FIXED_EDGES (22 us idle and 44 us contended probe
    cycles) in which the probes from time 0 fall in stretches of these
    lengths, idle first and alternating; the last length is contended."""
    t, windows = 0, []
    for i, length in enumerate(lengths):
        cycle = 44_000 if i % 2 else 22_000
        if i % 2:
            windows.append((t, t + cycle * length))
        t += cycle * length
    return ActivityTimeline(windows)


def _runs(trace):
    """Lengths of the runs of equal latency in a trace."""
    lat = trace.latencies_ns.tolist()
    cuts = [i for i in range(1, len(lat)) if lat[i] != lat[i - 1]]
    return [b - a for a, b in zip([0] + cuts, cuts + [len(lat)])]


@pytest.mark.parametrize(
    "lengths,tail_probes",
    [
        # both states, on either side of the first search's 8 probes
        ([7, 8, 9, 16, 17, 7, 8, 9, 16, 17], 20),
        # stretches that start in the last 8 probes of a chunk, and a
        # stretch of each state that ends on the last probe of a chunk (256
        # and 768 probes), its edge on the next chunk's first probe
        ([200, 50, 3, 3, 300, 212], 30),
        # the last edge passes mid-chunk, and the idle tail reads the
        # sentinel edge across three chunks
        ([3, 5], 1_500),
    ],
    ids=["short-stretches", "chunk-last-probe", "past-last-edge"],
)
def test_sim_receive_matches_reference_bounded_search(lengths, tail_probes):
    activity = _stretch_timeline(lengths)
    duration_ns = activity.duration_ns + 22_000 * tail_probes
    for seed in (1, 2024):
        got = sim_receive(activity, _FIXED_EDGES, seed, duration_ns=duration_ns)
        want = sim_receive_reference(activity, _FIXED_EDGES, seed, duration_ns=duration_ns)
        assert pairs(got) == want
        assert _runs(got) == lengths + [tail_probes]


@pytest.mark.parametrize("degree", [NoiseDegree.NONE, NoiseDegree.HIGH])
def test_zero_std_keeps_the_variate_stream(degree):
    # a zero std takes its variate like any other, so a state's std moving
    # from 0 to 1e-9 ns moves no later probe in the stream
    activity = SenderSchedule(prbs_sequence(2_000, 5), 50)
    traces = []
    for std in (0, 1e-9):
        model = ContentionModel(LatencyDistribution(21_390, std), LatencyDistribution(43_134, 2_522))
        noise = NoiseProcess.from_degree(degree, model)
        traces.append(sim_receive(activity, model, 7, duration_ns=activity.duration_ns, noise=noise))
    assert traces[0] == traces[1]


def test_sim_receive_drawn_probes_on_window_edges():
    # a window that opens exactly at one drawn probe's start and closes
    # exactly at a later one's: the first probe is contended, the last is not
    model = default_model()
    idle = sim_receive_reference(IDLE, model, 5, duration_ns=2_000_000)
    start = idle[10][0]
    busy_from_start = ActivityTimeline([(start, 10**9)])
    busy = sim_receive_reference(busy_from_start, model, 5, duration_ns=2_000_000)
    end = busy[30][0]
    activity = ActivityTimeline([(start, end)])
    got = sim_receive(activity, model, 5, duration_ns=2_000_000)
    assert pairs(got) == sim_receive_reference(activity, model, 5, duration_ns=2_000_000)
    ts, lat = columns(got)
    assert ts[10] == start and lat[10] > 32_085
    assert ts[30] == end and lat[30] < 32_085

@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gaps=st.lists(st.integers(1, 300_000), min_size=0, max_size=24),
    stds=st.tuples(
        st.sampled_from([0.0, 800.0, 2_479.0]), st.sampled_from([0.0, 2_522.0, 9_000.0])
    ),
    degree=st.sampled_from([NoiseDegree.NONE, NoiseDegree.HIGH, NoiseDegree.CRITICAL]),
)
def test_sim_receive_matches_reference_property(seed, gaps, stds, degree):
    model = ContentionModel.empirical(
        LatencyDistribution(21_390, stds[0]), LatencyDistribution(43_134, stds[1])
    )
    edges = [sum(gaps[: i + 1]) for i in range(len(gaps))]
    activity = ActivityTimeline(zip(edges[0::2], edges[1::2]))
    noise = NoiseProcess.from_degree(degree, model)
    duration_ns = (edges[-1] if edges else 0) + 500_000
    got = sim_receive(activity, model, seed, duration_ns=duration_ns, noise=noise)
    want = sim_receive_reference(activity, model, seed, duration_ns=duration_ns, noise=noise)
    assert pairs(got) == want


def test_sim_source_matches_reference_stream():
    # the live source's windows equal the reference grid over the reference
    # probe loop, with the same noise horizon
    bits = prbs_sequence(3_000, 12)
    model = default_model()
    noise = NoiseProcess.from_degree(NoiseDegree.HIGH, model)
    sched = SenderSchedule(bits, 50)
    live = SimSource(sched, model, 8, noise=noise)
    ref = WindowGridReference(
        probe_stream_reference(sched, model, 8, noise, sched.duration_ns + 100_000_000),
        TraceMeta(probe_mode="sim-empirical", session="seed=8"),
    )
    rng = random.Random(3)
    for i in range(3_200):
        duration_us = rng.choice((50.0, 50.0, 50.0, 7.0, 120.5))
        assert live.probe_for(duration_us) == ref.probe_for(duration_us), f"window {i}"


# ---------------------------------------------------------------------------
# SimSource


def test_sim_source_windows_tile_the_clock():
    src = SimSource(IDLE, default_model(), 99)
    seen = []
    for _ in range(100):
        win = src.probe_for(50.0)
        assert len(win) >= 1
        seen.extend(pairs(win))
    assert src.elapsed_us == 100 * 50.0
    # same stream as the batch API: windows partition the arrivals in order
    ref = sim_receive(IDLE, default_model(), 99, duration_ns=5_000_000)
    assert seen[: len(ref)] == pairs(ref)


def test_sim_source_elapsed_before_first_window():
    src = SimSource(IDLE, default_model(), 99)
    assert src.elapsed_us == 0.0
    src.look_ahead(50.0, 4)  # looking ahead consumes nothing
    assert src.elapsed_us == 0.0
    src.commit(3)
    assert src.elapsed_us == 150.0


def test_sim_source_window_bounds():
    src = SimSource(IDLE, default_model(), 42)
    for k in range(50):
        ts = src.probe_for(50.0).timestamps_ns
        assert k * 50_000 <= ts.min() and ts.max() < (k + 1) * 50_000


def test_sim_source_swallowed_window_reports_inflight_probe():
    # one giant contended latency spans several windows; those windows must
    # echo the stuck probe rather than inventing fresh samples.  With std=0
    # the arrival grid is exact: 0, 22k, 44k, then 44k+180k+2k = 226k.
    model = ContentionModel.empirical(
        LatencyDistribution(20_000, 0), LatencyDistribution(180_000, 0)
    )
    activity = ActivityTimeline([(40_000, 50_000)])
    src = SimSource(activity, model, 3)
    first = src.probe_for(50.0)
    assert columns(first) == ([0, 22_000, 44_000], [20_000, 20_000, 180_000])
    # the 180 us fsync covers [44k, 224k): windows 2-4 are fully swallowed
    for _ in range(3):
        assert columns(src.probe_for(50.0)) == ([44_000], [180_000])
    ts, lat = columns(src.probe_for(50.0))
    assert (ts[0], lat[0]) == (226_000, 20_000)


def test_sim_source_validation():
    src = SimSource(IDLE, default_model(), 1)
    with pytest.raises(ValueError):
        src.probe_for(0)


@pytest.mark.parametrize(
    "ts_us,model",
    [(50, default_model()), (400, cross_disk_model()), (7, default_model())],
    ids=["50us-default", "400us-cross-disk", "7us-inflight"],
)
def test_sim_source_matches_trace_replay(ts_us, model):
    # the live source and the replay of the batch trace window one sample
    # stream on one grid; at 7 us most windows repeat the in-flight sample
    bits = prbs_sequence(3_000, 5)
    trace = sim_transmit(bits, ChannelConfig(ts_us=ts_us), model, 21)
    replay = TraceSource(trace)
    live = SimSource(SenderSchedule(bits, ts_us), model, 21)
    n_windows = 0
    while True:
        try:
            want = replay.probe_for(ts_us)
        except SourceExhausted:
            break
        assert live.probe_for(ts_us) == want, f"window {n_windows}"
        n_windows += 1
    # the replay ends at the last sample, which arrives within one fsync of
    # the end of the transmission
    assert n_windows >= len(bits) - 10


# ---------------------------------------------------------------------------
# loopback


def test_loopback_scores_lost_frames_as_all_errors():
    # contention 1 ns above the quiet floor never crosses theta, so no header
    # is ever found and every frame is lost
    blind = ContentionModel.empirical(
        LatencyDistribution(20_000, 0), LatencyDistribution(20_001, 0)
    )
    payload = prbs_sequence(300, 8)
    report = loopback(
        payload, ChannelConfig(payload_len=100), blind, calibration_seed=1, channel_seed=2
    )
    assert report.n_bits == 300
    assert report.err_1to0 == payload.count(1) and report.err_0to1 == payload.count(0)
    assert report.p == 1.0


# ---------------------------------------------------------------------------
# params files


def test_parse_sim_params_full():
    text = """
    # model fitted on the lab box
    standalone.mean_ns = 21000
    standalone.std_ns = 2400
    contended.mean_ns = 44000   # during sender activity
    contended.std_ns = 2500
    """
    params = parse_sim_params(text)
    assert params.standalone_mean_ns == 21_000.0
    assert params.contended_mean_ns == 44_000.0
    model = params.model()
    assert model.standalone.mean_ns == 21_000.0
    assert model.contended.std_ns == 2_500.0


def test_parse_sim_params_defaults():
    params = parse_sim_params("")
    assert params == SimParams()
    assert params.model().contended.mean_ns == 43_134.0


def test_parse_sim_params_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_sim_params("standalone.mean_ns 21000")
    with pytest.raises(ValueError, match="unknown key"):
        parse_sim_params("standalone.meanns = 21000")
    with pytest.raises(ValueError, match="bad value"):
        parse_sim_params("standalone.mean_ns = abc")
    with pytest.raises(ValueError, match="line 2"):
        parse_sim_params("standalone.mean_ns = 3\ncontended.std_ns = extreme")
    # noise is a setting of each run (--noise), not of the model
    with pytest.raises(ValueError, match="line 1: unknown key 'noise.degree'"):
        parse_sim_params("noise.degree = high")
    # every command takes its seed from --seed, so a params file has none
    with pytest.raises(ValueError, match="line 1: unknown key 'seed'"):
        parse_sim_params("seed = 3")


def test_load_sim_params(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("contended.mean_ns = 50000\n")
    from fsyncchan.simchan import load_sim_params

    assert load_sim_params(path).contended_mean_ns == 50_000.0


def test_sim_params_keys_cover_every_field():
    assert set(_SIM_PARAM_KEYS.values()) == {f.name for f in fields(SimParams)}
    assert sorted(_SIM_PARAM_KEYS) == [
        "contended.mean_ns",
        "contended.std_ns",
        "standalone.mean_ns",
        "standalone.std_ns",
    ]


def test_readme_lists_every_sim_params_key():
    # README lists the keys by hand; the parser derives them from SimParams
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    keys = re.search(r"^  Keys: (.*?)\.$", readme, re.MULTILINE | re.DOTALL).group(1)
    assert sorted(re.findall(r"`([^`]+)`", keys)) == sorted(_SIM_PARAM_KEYS)


def test_sim_params_file_round_trip():
    params = SimParams(20_500.25, 300.5, 30_000.75, 1_611.29)
    assert all(
        getattr(params, f.name) != f.default for f in fields(SimParams)
    ), "every field must differ from its default"
    text = "".join(f"{key} = {getattr(params, attr)!r}\n" for key, attr in _SIM_PARAM_KEYS.items())
    assert parse_sim_params(text) == params


@pytest.mark.parametrize(
    "line, field",
    [
        ("contended.std_ns = inf", "std_ns"),
        ("contended.std_ns = 1e300", "std_ns"),
        ("standalone.mean_ns = nan", "mean_ns"),
    ],
)
def test_sim_params_nonfinite_latency_rejected_by_model(line, field):
    params = parse_sim_params(line)  # parsing takes any float
    key = line.split("=")[0].strip()  # the error names the side as well as the field
    assert key.endswith(field)
    with pytest.raises(ValueError, match=f"^{re.escape(key)} must be finite"):
        params.model()
