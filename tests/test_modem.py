"""Calibration, symbol decisions, and frame recovery."""

import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsyncchan import modem, simchan
from fsyncchan.core import (
    DEFAULT_HEADER,
    BitStream,
    ChannelConfig,
    DecisionRule,
    LatencyTrace,
    TraceMeta,
    prbs_sequence,
)
from fsyncchan.modem import (
    MIN_CALIBRATION_SAMPLES,
    CalibrationError,
    ScheduleBuilder,
    SourceExhausted,
    ThresholdState,
    TraceSource,
    WindowGrid,
    calibrate,
    receive_frame,
    receive_frames,
    receive_symbols,
    search_window,
    send_bits,
)
from fsyncchan.simchan import (
    IDLE,
    NoiseDegree,
    NoiseProcess,
    SenderSchedule,
    SimSource,
    cross_disk_model,
    default_model,
    sim_receive,
    sim_transmit,
)
from synthgen import (
    WindowGridReference,
    columns,
    decision_stream_reference,
    fit_reference,
    pairs,
    receive_frame_reference,
    threshold_reference,
    trace_from_bits,
    window_statistic_reference,
)

QUIET = 21_390
LOUD = 43_134


def _const_quiet_trace(n=MIN_CALIBRATION_SAMPLES, latency=QUIET, warmup=0):
    ts = [i * (latency + 2_000) for i in range(n)]
    return LatencyTrace(ts, [latency] * n, TraceMeta(warmup_samples=warmup))


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_constant_quiet_trace():
    state = calibrate(_const_quiet_trace(), ChannelConfig())
    # zero spread: the 0.5*mean guard dominates 3*std
    assert state.theta_ns == 32_085
    assert state.quiet_mean_ns == QUIET
    assert state.quiet_std_ns == 0.0
    assert state.provenance.startswith("calibrated(")


def test_calibrate_requires_enough_samples():
    with pytest.raises(CalibrationError, match="need >= 64 non-warm-up samples, got 63"):
        calibrate(_const_quiet_trace(n=MIN_CALIBRATION_SAMPLES - 1), ChannelConfig())
    # exactly the minimum is accepted
    calibrate(_const_quiet_trace(n=MIN_CALIBRATION_SAMPLES), ChannelConfig())


def test_calibrate_excludes_warmup():
    ts = [i * 25_000 for i in range(16)] + [500_000 + i * 25_000 for i in range(64)]
    lat = [900_000] * 16 + [QUIET] * 64
    trace = LatencyTrace(ts, lat, TraceMeta(warmup_samples=16))
    state = calibrate(trace, ChannelConfig())
    assert state.theta_ns == 32_085
    # without the warm-up marker those 900 us samples poison the threshold
    poisoned = calibrate(LatencyTrace(ts, lat), ChannelConfig())
    assert poisoned.theta_ns > 100_000


def test_calibrate_on_simulated_quiet_traffic():
    trace = sim_receive(IDLE, default_model(), 2024, duration_ns=5_000_000)
    state = calibrate(trace, ChannelConfig())
    assert abs(state.theta_ns - 32_085) / 32_085 < 0.02
    assert abs(state.quiet_mean_ns - QUIET) < 600


def test_calibrate_stddev_rule():
    cfg = ChannelConfig(ts_us=2000, decision_rule=DecisionRule.STDDEV)
    trace = sim_receive(IDLE, cross_disk_model(), 5, duration_ns=150_000_000)
    state = calibrate(trace, cfg)
    assert state.provenance.startswith("calibrated(rule=stddev,")
    # quiet window spread of the cross-disk preset is ~317 ns
    assert 200 < state.quiet_mean_ns < 450
    assert state.theta_ns < 1_000


def test_calibrate_stddev_needs_windows():
    cfg = ChannelConfig(ts_us=2000, decision_rule=DecisionRule.STDDEV)
    need = "need >= 64 quiet symbol windows with >= 2 samples, got"
    with pytest.raises(CalibrationError, match=f"{need} [1-9]"):
        calibrate(_const_quiet_trace(n=80), cfg)  # 80 samples, too few windows
    with pytest.raises(CalibrationError, match=f"{need} 0$"):
        calibrate(LatencyTrace([], []), cfg)


# ---------------------------------------------------------------------------
# threshold adaptation


def test_threshold_state_update_from_quiet_cluster(monkeypatch):
    monkeypatch.setattr(modem, "_UPDATE_PERIOD", 4)
    monkeypatch.setattr(modem, "_MIN_QUIET_CLUSTER", 2)
    state = ThresholdState(theta_ns=1_000, quiet_mean_ns=600.0, quiet_std_ns=10.0)
    for i, stat in enumerate([500.0, 520.0, 2_000.0, 510.0]):
        state.observe_block((stat,), i)
    assert state.quiet_mean_ns == 510.0
    assert state.theta_ns == round(510.0 + max(3 * 10.0, 255.0))
    assert state.provenance == "adaptive@symbol3"


def test_threshold_state_ignores_loud_only_window(monkeypatch):
    monkeypatch.setattr(modem, "_UPDATE_PERIOD", 4)
    state = ThresholdState(theta_ns=1_000, quiet_mean_ns=600.0, quiet_std_ns=10.0)
    for i in range(12):
        state.observe_block((5_000.0,), i)
    assert state.theta_ns == 1_000
    assert state.provenance == "manual"


def test_threshold_state_requires_min_cluster(monkeypatch):
    monkeypatch.setattr(modem, "_UPDATE_PERIOD", 4)
    monkeypatch.setattr(modem, "_MIN_QUIET_CLUSTER", 3)
    state = ThresholdState(theta_ns=1_000, quiet_mean_ns=600.0, quiet_std_ns=0.0)
    for i, stat in enumerate([500.0, 5_000.0, 5_000.0, 510.0]):
        state.observe_block((stat,), i)
    assert state.theta_ns == 1_000  # only 2 quiet stats, below the cluster floor


@settings(max_examples=300, deadline=None)
@given(
    stats=st.lists(st.floats(0.0, 3_000.0) | st.sampled_from((500.0, 1_000.0, 5_000.0)),
                   max_size=300),
    period=st.sampled_from((1, 5, 64)),
    min_cluster=st.sampled_from((1, 8)),
    data=st.data(),
)
def test_threshold_refresh_matches_reference(stats, period, min_cluster, data):
    # the state observed in random blocks, none past a refresh, refreshes as
    # a plain fit of the quiet statistics among each whole period does
    saved = modem._UPDATE_PERIOD, modem._MIN_QUIET_CLUSTER
    # hypothesis runs no function-scoped fixture per example
    modem._UPDATE_PERIOD, modem._MIN_QUIET_CLUSTER = period, min_cluster
    try:
        state = ThresholdState(1_000, 600.0, 50.0)
        i = 0
        while i < len(stats):
            n = data.draw(st.integers(1, min(state.until_refresh, len(stats) - i)))
            state.observe_block(stats[i : i + n], i + n - 1)
            i += n
    finally:
        modem._UPDATE_PERIOD, modem._MIN_QUIET_CLUSTER = saved
    got = (state.theta_ns, state.quiet_mean_ns, state.quiet_std_ns, state.provenance)
    assert got == threshold_reference(1_000, 600.0, 50.0, stats, period, min_cluster)


def test_threshold_tracks_quiet_drift():
    cfg = ChannelConfig(ts_us=50)
    state = calibrate(_const_quiet_trace(), cfg)
    assert state.theta_ns == 32_085
    # quiet floor rises to 25 us; after one update period theta follows
    drifted = trace_from_bits(BitStream([0] * 64), quiet_ns=25_000)
    receive_symbols(TraceSource(drifted), cfg, state, 64)
    assert state.theta_ns == 37_500
    assert state.provenance == "adaptive@symbol63"


def test_threshold_survives_long_one_run():
    cfg = ChannelConfig(ts_us=50)
    state = calibrate(_const_quiet_trace(), cfg)
    ones = trace_from_bits(BitStream([1] * 300))
    decisions = receive_symbols(TraceSource(ones), cfg, state, 300)
    assert all(d.bit == 1 for d in decisions)
    assert state.theta_ns == 32_085  # never dragged up by the loud run
    assert state.provenance.startswith("calibrated(")


# ---------------------------------------------------------------------------
# symbol reception


def test_receive_symbols_decodes_alternating():
    cfg = ChannelConfig(ts_us=50)
    state = calibrate(_const_quiet_trace(), cfg)
    bits = BitStream.from_text("10101010")
    decisions = receive_symbols(TraceSource(trace_from_bits(bits)), cfg, state, len(bits))
    assert [d.bit for d in decisions] == list(bits)
    assert [d.index for d in decisions] == list(range(8))
    assert all(d.n_samples >= 1 for d in decisions)
    loud = [d.statistic for d in decisions if d.bit == 1]
    quiet = [d.statistic for d in decisions if d.bit == 0]
    assert min(loud) > state.theta_ns >= max(quiet)


def test_receive_symbols_all_quiet_is_all_zero():
    cfg = ChannelConfig(ts_us=50)
    state = calibrate(_const_quiet_trace(), cfg)
    decisions = receive_symbols(TraceSource(trace_from_bits(BitStream([0] * 40))), cfg, state, 40)
    assert [d.bit for d in decisions] == [0] * 40


def test_receive_symbols_stops_at_source_end():
    cfg = ChannelConfig(ts_us=50)
    state = calibrate(_const_quiet_trace(), cfg)
    decisions = receive_symbols(TraceSource(trace_from_bits(BitStream([0] * 10))), cfg, state, 99)
    assert len(decisions) == 10


def test_receive_symbols_validation():
    cfg = ChannelConfig(ts_us=50)
    state = calibrate(_const_quiet_trace(), cfg)
    with pytest.raises(ValueError):
        receive_symbols(TraceSource(trace_from_bits(BitStream([0]))), cfg, state, 0)


def test_receive_symbols_over_simulated_channel():
    cfg = ChannelConfig(ts_us=50)
    model = default_model()
    state = calibrate(sim_receive(IDLE, model, 88, duration_ns=5_000_000), cfg)
    bits = BitStream.from_text("10101010" * 4)
    source = SimSource(SenderSchedule(bits, cfg.ts_us), model, 1234)
    decisions = receive_symbols(source, cfg, state, len(bits))
    assert [d.bit for d in decisions] == list(bits)


def test_stddev_rule_decodes_variance_channel():
    # cross-disk: contention barely moves the mean but widens the spread,
    # so the mean rule goes blind while the stddev rule still decodes
    model = cross_disk_model()
    bits = BitStream.from_text("1010011010")
    quiet = sim_receive(IDLE, model, 6, duration_ns=150_000_000)

    std_cfg = ChannelConfig(ts_us=2000, decision_rule=DecisionRule.STDDEV)
    std_state = calibrate(quiet, std_cfg)
    trace = sim_transmit(bits, std_cfg, model, 77)
    decisions = receive_symbols(TraceSource(trace), std_cfg, std_state, len(bits))
    assert [d.bit for d in decisions] == list(bits)

    mean_cfg = ChannelConfig(ts_us=2000, decision_rule=DecisionRule.MEAN)
    mean_state = calibrate(quiet, mean_cfg)
    blind = receive_symbols(TraceSource(trace), mean_cfg, mean_state, len(bits))
    assert all(d.bit == 0 for d in blind)  # mean shift is under the threshold


# ---------------------------------------------------------------------------
# frame recovery


def _frame_stream(payload_text, prefix_text="", flip_header_at=None):
    header = DEFAULT_HEADER
    if flip_header_at is not None:
        header = (
            header[:flip_header_at]
            + BitStream([1 - header[flip_header_at]])
            + header[flip_header_at + 1 :]
        )
    return BitStream.from_text(prefix_text) + header + BitStream.from_text(payload_text)


def test_receive_frame_after_noise_prefix():
    cfg = ChannelConfig(ts_us=50, payload_len=8)
    state = calibrate(_const_quiet_trace(), cfg)
    stream = _frame_stream("11001010", prefix_text="000")
    got = receive_frame(TraceSource(trace_from_bits(stream)), cfg, state)
    assert got == BitStream.from_text("11001010")


def test_receive_frame_immediate_header():
    cfg = ChannelConfig(ts_us=50, payload_len=4)
    state = calibrate(_const_quiet_trace(), cfg)
    got = receive_frame(TraceSource(trace_from_bits(_frame_stream("1011"))), cfg, state)
    assert got == BitStream.from_text("1011")


def test_receive_frame_tolerates_one_header_flip():
    cfg = ChannelConfig(ts_us=50, payload_len=8)
    state = calibrate(_const_quiet_trace(), cfg)
    stream = _frame_stream("11110000", prefix_text="00", flip_header_at=5)
    assert receive_frame(TraceSource(trace_from_bits(stream)), cfg, state) is None
    assert receive_frame(
        TraceSource(trace_from_bits(stream)), cfg, state, max_mismatches=1
    ) == BitStream.from_text("11110000")


def test_receive_frame_none_without_header():
    cfg = ChannelConfig(ts_us=50, payload_len=8)
    state = calibrate(_const_quiet_trace(), cfg)
    assert receive_frame(TraceSource(trace_from_bits(BitStream([0] * 60))), cfg, state) is None


def test_receive_frame_truncated_payload():
    cfg = ChannelConfig(ts_us=50, payload_len=16)
    state = calibrate(_const_quiet_trace(), cfg)
    stream = DEFAULT_HEADER + BitStream.from_text("1010")  # 4 of 16 payload bits
    assert receive_frame(TraceSource(trace_from_bits(stream)), cfg, state) is None


def test_receive_frame_search_budget():
    cfg = ChannelConfig(ts_us=50, payload_len=8)
    state = calibrate(_const_quiet_trace(), cfg)
    source = TraceSource(trace_from_bits(BitStream([0] * 200)))
    assert receive_frame(source, cfg, state, max_symbols=50) is None
    # the search consumed exactly its budget, not the whole source
    rest = receive_symbols(source, cfg, state, 200)
    assert len(rest) == 150


def test_receive_frame_header_straddles_budget():
    cfg = ChannelConfig(ts_us=50, payload_len=4)
    state = calibrate(_const_quiet_trace(), cfg)
    stream = _frame_stream("1111", prefix_text="0" * 40)
    # header completes at symbol 64 > budget 30
    src = TraceSource(trace_from_bits(stream))
    assert receive_frame(src, cfg, state, max_symbols=30) is None
    short = TraceSource(trace_from_bits(stream))
    assert receive_frame(short, cfg, state, max_symbols=63) is None
    fresh = TraceSource(trace_from_bits(stream))
    assert receive_frame(fresh, cfg, state, max_symbols=64) == BitStream.from_text("1111")


def test_receive_frame_back_to_back_frames():
    cfg = ChannelConfig(ts_us=50, payload_len=6)
    state = calibrate(_const_quiet_trace(), cfg)
    stream = _frame_stream("101011") + _frame_stream("010100")
    src = TraceSource(trace_from_bits(stream))
    assert receive_frame(src, cfg, state) == BitStream.from_text("101011")
    assert receive_frame(src, cfg, state) == BitStream.from_text("010100")


# ---------------------------------------------------------------------------
# sending


class _RecordingEndpoint:
    def __init__(self):
        self.calls = []

    def send(self, bits, ts_us):
        self.calls.append((bits, ts_us))
        return 7 * bits.count(1)


def test_send_bits_drives_endpoint():
    cfg = ChannelConfig(ts_us=50)
    endpoint = _RecordingEndpoint()
    bits = BitStream.from_text("1101")
    fsyncs = send_bits(bits, cfg, endpoint)
    # one call with the bits whole, at cfg's symbol time
    assert endpoint.calls == [(bits, 50)]
    assert endpoint.calls[0][0] is bits
    assert fsyncs == 21


def test_send_bits_returns_the_endpoints_fsync_count():
    # what send returned, not a nominal rate
    class Varying(_RecordingEndpoint):
        def send(self, bits, ts_us):
            super().send(bits, ts_us)
            return 1 + 9 + 16

    endpoint = Varying()
    fsyncs = send_bits(BitStream.from_text("10110"), ChannelConfig(ts_us=200), endpoint)
    assert fsyncs == 1 + 9 + 16
    assert endpoint.calls == [(BitStream.from_text("10110"), 200)]


def test_send_bits_validation():
    endpoint = _RecordingEndpoint()
    with pytest.raises(ValueError):
        send_bits(BitStream(), ChannelConfig(), endpoint)
    assert endpoint.calls == []


def test_schedule_builder_matches_sender_schedule():
    cfg = ChannelConfig(ts_us=50)
    builder = ScheduleBuilder(cfg.ts_us, default_model())
    bits = BitStream.from_text("10101010")
    fsyncs = send_bits(bits, cfg, builder)
    assert builder.bits == bits
    sched = builder.schedule()
    assert sched.windows() == SenderSchedule(bits, 50).windows()
    # nominal standalone fsync cycle is ~23.4 us -> 2 fit in each of 4 busy 50 us slots
    assert fsyncs == 8


def test_schedule_builder_send_matches_per_symbol_reference():
    # each send counts per_slot fsyncs per '1', as a per-symbol sum does, and
    # the schedule holds every send's bits in order
    rng = random.Random("schedule builder")
    for ts_us in (50, 200, 400):
        builder = ScheduleBuilder(ts_us, default_model())
        per_slot = max(1, ts_us * 1000 // (21_390 + simchan.PROBE_OVERHEAD_NS))
        sent = []
        for _ in range(5):
            bits = BitStream(rng.getrandbits(1) for _ in range(rng.randint(0, 3_000)))
            assert builder.send(bits, ts_us) == sum(per_slot for bit in bits if bit)
            sent.append(bits)
        joined = BitStream(b"".join(sent))
        assert builder.bits == joined
        assert builder.schedule().windows() == SenderSchedule(joined, ts_us).windows()


def test_schedule_builder_refuses_another_symbol_time():
    builder = ScheduleBuilder(50, default_model())
    with pytest.raises(ValueError, match="ts_us=200 differs from the builder's 50"):
        send_bits(BitStream.from_text("1"), ChannelConfig(ts_us=200), builder)
    assert builder.bits == BitStream()


def test_schedule_builder_follows_probe_overhead(monkeypatch):
    # the nominal fsyncs per busy slot: slot // (standalone mean + overhead)
    model = default_model()
    one = BitStream([1])
    assert ScheduleBuilder(400, model).send(one, 400) == 400_000 // (21_390 + 2_000)
    monkeypatch.setattr(simchan, "PROBE_OVERHEAD_NS", 78_610)
    assert ScheduleBuilder(400, model).send(one, 400) == 4
    with pytest.raises(TypeError):
        ScheduleBuilder(400, model, overhead_ns=2_000)


def test_schedule_builder_validation():
    with pytest.raises(ValueError):
        ScheduleBuilder(0, default_model())


# ---------------------------------------------------------------------------
# trace replay source


def test_trace_source_windows_and_inheritance():
    # the second probe runs until 115k: it swallows window 1
    src = TraceSource(LatencyTrace([0, 25_000, 117_000], [20_000, 90_000, 20_000]))
    w0 = src.probe_for(50.0)
    assert columns(w0) == ([0, 25_000], [20_000, 90_000])
    w1 = src.probe_for(50.0)
    assert columns(w1) == ([25_000], [90_000])  # inherited from the in-flight probe
    w2 = src.probe_for(50.0)
    assert columns(w2) == ([117_000], [20_000])
    with pytest.raises(SourceExhausted):
        src.probe_for(50.0)


def test_trace_source_anchors_at_first_sample():
    trace = LatencyTrace([1_000_000, 1_030_000], [10_000, 10_000])
    win = TraceSource(trace).probe_for(50.0)
    assert columns(win) == columns(trace)


def test_trace_source_empty_trace_exhausts_immediately():
    src = TraceSource(LatencyTrace([], []))
    with pytest.raises(SourceExhausted):
        src.probe_for(50.0)


def _replay_traces():
    """Fixed traces for the grid comparisons: empty windows and in-flight
    inheritance at 7 us, a late anchor, both models, noise, and edge cases."""
    bits = prbs_sequence(1_500, 17)
    model = default_model()
    noise = NoiseProcess.from_degree(NoiseDegree.HIGH, model)
    swallowing_ts = [0, 25_000, 117_000, 117_000, 519_000]
    swallowing_lat = [20_000, 90_000, 20_000, 400_000, 20_000]
    return [
        sim_transmit(bits, ChannelConfig(ts_us=50), model, 3, noise=noise),
        sim_transmit(bits, ChannelConfig(ts_us=400), cross_disk_model(), 4),
        trace_from_bits(bits[:200], ts_ns=50_000, start_ns=1_234_567),
        LatencyTrace(swallowing_ts, swallowing_lat),
        LatencyTrace(swallowing_ts[:1], swallowing_lat[:1]),
        LatencyTrace([], []),
    ]


def _grid(trace, block):
    """The trace's window grid, fed in blocks of `block` rows (None: one)."""
    if block is None:
        return TraceSource(trace)
    ts, lat = trace.timestamps_ns, trace.latencies_ns
    blocks = [(ts[i : i + block], lat[i : i + block]) for i in range(0, len(ts), block)]
    return WindowGrid(blocks, trace.meta)


@pytest.mark.parametrize("block", [None, 1, 5], ids=["one-block", "row-blocks", "5-row-blocks"])
def test_trace_source_matches_reference_grid(block):
    # identical windows, including empty windows and in-flight inheritance,
    # whatever the blocks the grid reads the samples in
    rng = random.Random(f"block {block}")
    for trace in _replay_traces():
        for duration_us in (7.0, 50.0, 400.0, None):
            got = _grid(trace, block)
            want = WindowGridReference(pairs(trace), trace.meta)
            for i in range(20_000):
                step = duration_us or rng.choice((3.0, 50.0, 120.5, 1000.0))
                try:
                    window = want.probe_for(step)
                except SourceExhausted:
                    with pytest.raises(SourceExhausted):
                        got.probe_for(step)
                    break
                assert got.probe_for(step) == window, f"window {i}"


@pytest.mark.parametrize("block", [None, 1, 5], ids=["one-block", "row-blocks", "5-row-blocks"])
def test_look_ahead_and_commit_match_reference_grid(block):
    # look-ahead chunks of random size, of which a random prefix is
    # committed in two steps, give the reference grid's windows; looking
    # ahead consumes nothing, even across blocks, and an empty window right
    # after a block edge still inherits the last consumed sample
    rng = random.Random(f"look-ahead {block}")
    for trace in _replay_traces():
        for duration_us in (7.0, 50.0, 400.0):
            got = _grid(trace, block)
            want = WindowGridReference(pairs(trace), trace.meta)
            windows = []
            while True:
                n = rng.choice((1, 2, 3, 17, 64))
                ts, lat, lo, hi = got.look_ahead(duration_us, n)
                assert len(lo) == len(hi) <= n
                if not len(lo):
                    break
                assert lo[0] == 0 and hi[-1] == len(ts) == len(lat)
                k = rng.randint(0, len(lo))
                first = rng.randint(0, k)  # commits add up
                got.commit(first)
                got.commit(k - first)
                for a, b in zip(lo[:k], hi[:k]):
                    windows.append((ts[a:b].tolist(), lat[a:b].tolist()))
            for i, (ts, lat) in enumerate(windows):
                window = want.probe_for(duration_us)
                columns = (window.timestamps_ns.tolist(), window.latencies_ns.tolist())
                assert (ts, lat) == columns, f"window {i}"
            with pytest.raises(SourceExhausted):
                want.probe_for(duration_us)


def test_threshold_state_observe_block(monkeypatch):
    # a block of statistics is the same as observing them one by one, and
    # may not run past the next refresh
    monkeypatch.setattr(modem, "_UPDATE_PERIOD", 4)
    monkeypatch.setattr(modem, "_MIN_QUIET_CLUSTER", 2)
    stats = [500.0, 520.0, 2_000.0, 510.0, 530.0, 515.0]
    one, block = (ThresholdState(1_000, 600.0, 10.0) for _ in range(2))
    for i, stat in enumerate(stats):
        one.observe_block((stat,), i)
    assert block.until_refresh == 4
    block.observe_block(stats[:3], 2)
    assert block.until_refresh == 1
    with pytest.raises(ValueError, match="refresh"):
        block.observe_block(stats[3:5], 4)
    block.observe_block(stats[3:4], 3)
    assert block.until_refresh == 4 and block.provenance == "adaptive@symbol3"
    block.observe_block(stats[4:], 5)
    assert block == one
    # decide thresholds no further than the next refresh, and on float64
    # arrays its bits are the complement of the quiet statistics kept, past
    # 2**53 too, where a float64 comparison with theta itself would differ
    assert len(block.decide(np.array(stats))) == block.until_refresh == 2
    for theta, values in ((1_000, stats[:3]), (2**53 + 1, _PAST_2_53), (2**53 + 3, _PAST_2_53)):
        state, values = ThresholdState(theta, 600.0, 10.0), np.array(values)
        bits = state.decide(values)
        assert bits.tolist() == [s > theta for s in values.tolist()]
        state.observe_block(values, 2)
        assert state._quiet == values[~bits].tolist()


def test_trace_source_validation():
    src = TraceSource(trace_from_bits(BitStream([0])))
    with pytest.raises(ValueError):
        src.probe_for(-1.0)
    # the grid's width must be a finite number of ns
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="duration_us must be positive and finite"):
            src.probe_for(bad)
    # a window that rounds to 0 ns would never advance the grid
    with pytest.raises(ValueError, match="zero-width"):
        src.probe_for(0.0004)
    assert src.probe_for(0.001).timestamps_ns.tolist() == [0]
    with pytest.raises(ValueError, match="n must be positive"):
        src.look_ahead(50.0, 0)
    # no window end is past INT64_MAX ns from an anchor
    for n in (1, 4):
        with pytest.raises(ValueError, match=r"duration_us=1e\+16 is wider than INT64_MAX ns"):
            src.look_ahead(1e16, n)


def test_window_ends_near_int64_max_match_the_shifted_trace():
    # 200 samples 30 us apart from 10 ms below INT64_MAX: the grid's ends
    # past INT64_MAX are capped there, not wrapped below the samples
    ts = 30_000 * np.arange(200, dtype=np.int64)
    lat = np.full(200, QUIET, dtype=np.int64)
    top = LatencyTrace(ts + (2**63 - 1 - 10_000_000), lat)
    cfg, state = ChannelConfig(ts_us=50), ThresholdState(30_000, 20_000, 0.0)
    for n in (1, 2, 119, 120, 121, 1024):
        high = TraceSource(top).look_ahead(50, n)
        low = TraceSource(LatencyTrace(ts, lat)).look_ahead(50, n)
        assert [list(high[2]), list(high[3])] == [list(low[2]), list(low[3])]
    symbols = receive_symbols(TraceSource(top), cfg, state, 1000)
    assert len(symbols) == 120
    assert symbols == receive_symbols(TraceSource(LatencyTrace(ts, lat)), cfg, state, 1000)
    # a wide grid well below INT64_MAX: every window asked for while samples
    # remain, though (n - 1) * width / width rounds below n - 1 in float64
    wide = LatencyTrace(10**15 * np.arange(2_000, dtype=np.int64), np.full(2_000, QUIET))
    _, _, lo, hi = TraceSource(wide).look_ahead(10**12, 1024)
    assert len(lo) == len(hi) == 1024
    assert list(hi) == list(range(1, 1025))


# ---------------------------------------------------------------------------
# the batch decision core against the one-window references


class _ProbeOnly:
    """A source with only probe_for, like the benchmark's traced proxy."""

    def __init__(self, source):
        self.probe_for = source.probe_for


def _theta_state(rule):
    theta = 32_085 if rule is DecisionRule.MEAN else 1_500
    return ThresholdState(theta, theta / 1.5, 0.0)


def _next_window(source, ts_us):
    try:
        return source.probe_for(ts_us)
    except SourceExhausted:
        return None


FRAME_PAYLOAD = 40
PREFIXES = (0, 3, 0, 5, 1, 0, 2)  # quiet symbols before each frame
FRAMES = len(PREFIXES)


def _frame_traces():
    """(trace, ts_us) over FRAMES 40-bit frames behind short quiet
    prefixes, some empty (the call then consumes only the header and the
    payload), the fourth header two flips off DEFAULT_HEADER: noise-free at
    50 us, simulated with high noise at 50 us, cross-disk at 400 us."""
    rng = random.Random(5)
    stream = BitStream()
    for i, prefix in enumerate(PREFIXES):
        header = list(DEFAULT_HEADER)
        if i == 3:
            header[2] ^= 1
            header[9] ^= 1
        payload = BitStream(rng.getrandbits(1) for _ in range(FRAME_PAYLOAD))
        stream = stream + BitStream([0] * prefix) + BitStream(header) + payload
    model = default_model()
    noise = NoiseProcess.from_degree(NoiseDegree.HIGH, model)
    return [
        (trace_from_bits(stream), 50),
        (sim_transmit(stream, ChannelConfig(ts_us=50), model, 8, noise=noise), 50),
        (sim_transmit(stream, ChannelConfig(ts_us=400), cross_disk_model(), 9), 400),
    ]


@pytest.mark.parametrize("chunk", [1024, 67, 7, 1])
@pytest.mark.parametrize("rule", list(DecisionRule))
def test_receive_frame_probe_for_only_source(monkeypatch, rule, chunk):
    # a source with only probe_for (the benchmark's traced proxy) feeds the
    # decision core the windows it probes and is asked only for windows the
    # call consumes; frame by frame it returns what the batch path over the
    # grid itself returns, and both match the one-window reference.  With
    # 7-window chunks every 24-bit header straddles a chunk edge; the
    # two-flip header is lost and the search resumes after it.
    monkeypatch.setattr(modem, "_CHUNK", chunk)
    lost = 0
    for trace, ts_us in _frame_traces():
        cfg = ChannelConfig(ts_us=ts_us, payload_len=FRAME_PAYLOAD, decision_rule=rule)
        for update_period in (64, 5):
            monkeypatch.setattr(modem, "_UPDATE_PERIOD", update_period)
            batch, live = TraceSource(trace), TraceSource(trace)
            ref = WindowGridReference(pairs(trace), trace.meta)
            states = [_theta_state(rule) for _ in range(3)]
            for frame in range(FRAMES + 1):
                kwargs = dict(max_symbols=2 * cfg.frame_len, max_mismatches=1)
                want = receive_frame_reference(ref, cfg, states[0], **kwargs)
                assert receive_frame(batch, cfg, states[1], **kwargs) == want, f"frame {frame}"
                assert receive_frame(_ProbeOnly(live), cfg, states[2], **kwargs) == want
                assert states[1] == states[0] == states[2], f"frame {frame}"
                lost += want is None and frame < FRAMES
            # all three consumed the same windows
            want = _next_window(ref, ts_us)
            assert _next_window(batch, ts_us) == want
            assert _next_window(live, ts_us) == want
    assert lost >= 1


@pytest.mark.parametrize("chunk", [1024, 67, 7, 1])
@pytest.mark.parametrize("rule", list(DecisionRule))
def test_receive_frames_matches_receive_frame_calls(monkeypatch, rule, chunk):
    # one receive_frames pass over FRAMES + 1 frames yields what as many
    # receive_frame calls return, over a grid and over a probe_for-only
    # source, and leaves the same threshold and the same next window: the
    # two-flip header is lost and the last frame finds the source dry
    monkeypatch.setattr(modem, "_CHUNK", chunk)
    for trace, ts_us in _frame_traces():
        cfg = ChannelConfig(ts_us=ts_us, payload_len=FRAME_PAYLOAD, decision_rule=rule)
        kwargs = dict(max_symbols=2 * cfg.frame_len, max_mismatches=1)
        for update_period in (64, 5):
            monkeypatch.setattr(modem, "_UPDATE_PERIOD", update_period)
            for wrap in (lambda source: source, _ProbeOnly):
                calls, frames = TraceSource(trace), TraceSource(trace)
                want_state, state = _theta_state(rule), _theta_state(rule)
                want = [
                    receive_frame(wrap(calls), cfg, want_state, **kwargs) for _ in range(FRAMES + 1)
                ]
                got = list(receive_frames(wrap(frames), cfg, state, FRAMES + 1, **kwargs))
                assert got == want
                assert state == want_state
                assert _next_window(frames, ts_us) == _next_window(calls, ts_us)
                assert want[-1] is None
                assert None in want[:-1]


class _CountingGrid:
    """A window grid that counts the look-aheads it serves."""

    def __init__(self, grid):
        self._grid = grid
        self.reads = 0

    def look_ahead(self, duration_us, n):
        self.reads += 1
        return self._grid.look_ahead(duration_us, n)

    def commit(self, k):
        self._grid.commit(k)


def test_receive_frames_reads_the_source_only_inside_next():
    # a lost frame is yielded before the next frame's search starts, so a
    # caller that stops at the first None (live `recv`) stops the probing
    cfg = ChannelConfig(ts_us=50, payload_len=6)
    trace = trace_from_bits(_frame_stream("101011", "0" * 40))
    one = _CountingGrid(TraceSource(trace))
    # the header completes at symbol 64, past the 36-symbol search
    assert receive_frame(one, cfg, calibrate(_const_quiet_trace(), cfg), max_symbols=36) is None
    source = _CountingGrid(TraceSource(trace))
    frames = receive_frames(source, cfg, calibrate(_const_quiet_trace(), cfg), 2, max_symbols=36)
    assert source.reads == 0
    assert next(frames) is None
    assert source.reads == one.reads > 0  # nothing read for the second frame yet
    assert next(frames) == BitStream.from_text("101011")
    assert source.reads > one.reads
    assert next(frames, "done") == "done"


def test_receive_frames_validation():
    cfg = ChannelConfig(ts_us=50, payload_len=6)
    state = calibrate(_const_quiet_trace(), cfg)
    source = _CountingGrid(TraceSource(trace_from_bits(_frame_stream("101011"))))
    for n_frames, kwargs, message in (
        (0, {}, "n_frames must be positive"),
        (-1, {}, "n_frames must be positive"),
        (1, {"max_symbols": 0}, "max_symbols must be positive"),
        (1, {"max_mismatches": -1}, "max_mismatches must be nonnegative"),
    ):
        with pytest.raises(ValueError, match=message):
            next(receive_frames(source, cfg, state, n_frames, **kwargs))
    with pytest.raises(ValueError, match="max_symbols must be positive"):
        receive_frame(source, cfg, state, max_symbols=0)
    assert source.reads == 0
    assert search_window(cfg) == 4 * cfg.frame_len
    assert search_window(cfg, 7) == 7


def _reference_decisions(trace, cfg):
    state = _theta_state(cfg.decision_rule)
    ref = WindowGridReference(pairs(trace), trace.meta)
    return list(decision_stream_reference(ref, cfg, state)), state


@pytest.mark.parametrize("rule", list(DecisionRule))
def test_decisions_match_reference(monkeypatch, rule):
    # the differential gate of the batch demodulator: the same SymbolDecision
    # stream and final ThresholdState as the one-window reference stream,
    # over traces with empty windows and in-flight samples, whatever the
    # blocks the grid reads and the chunks the core decides.  Both sides
    # take each window statistic with the same float64 formula over exact
    # integer sums (float(sum) / n; sqrt(float(n*S2 - S1**2) / float(n*(n-1))))
    # and the same _fit, so no tolerance is needed.
    for trace in _replay_traces():
        for ts_us, update_period in ((7, 64), (50, 5), (400, 64)):
            monkeypatch.setattr(modem, "_UPDATE_PERIOD", update_period)
            cfg = ChannelConfig(ts_us=ts_us, decision_rule=rule)
            want, want_state = _reference_decisions(trace, cfg)
            for chunk, block in ((1024, None), (1, None), (5, 1), (64, 5)):
                monkeypatch.setattr(modem, "_CHUNK", chunk)
                state = _theta_state(rule)
                got = receive_symbols(_grid(trace, block), cfg, state, 10**6)
                assert got == want, (ts_us, chunk, block)
                assert state == want_state, (ts_us, chunk, block)
            state = _theta_state(rule)
            assert receive_symbols(_ProbeOnly(TraceSource(trace)), cfg, state, 10**6) == want
            assert state == want_state


def test_window_statistics_exact_past_int64():
    # window sums, or sums of squares, beyond the int64 range stay exact
    ts = [0, 10, 20, 60_000, 60_010, 60_020]
    lat = [2**62, 2**62 - 1, 3, 2**40, 2**40 + 7, 1]
    for rule in DecisionRule:
        cfg = ChannelConfig(ts_us=50, decision_rule=rule)
        got = receive_symbols(TraceSource(LatencyTrace(ts, lat)), cfg, _theta_state(rule), 10)
        want = [window_statistic_reference(lat[i : i + 3], rule) for i in (0, 3)]
        assert [d.statistic for d in got] == want


def test_window_statistics_n_sum_sq_past_int64():
    # an 80-window chunk with windows of one sample, and two windows whose
    # n * sum of squares is past int64 though every prefix sum fits:
    # n * sum_sq - sum**2 fits in int64 for the first, not for the second.
    # The chunk takes the Python-int path and matches the reference.
    rng = random.Random(13)
    big = 50_000_000
    windows = [[rng.randrange(1, 50_000) for _ in range(rng.randrange(1, 20))] for _ in range(80)]
    windows[40] = [big - rng.randrange(7) for _ in range(1_000)]
    windows[60] = [rng.choice((1, big)) for _ in range(1_000)]
    lat = np.array([v for w in windows for v in w], dtype=np.int64)
    assert big**2 * len(lat) <= 2**63 - 1 < 1_000**2 * (big - 6) ** 2
    hi = np.cumsum([len(w) for w in windows])
    lo = hi - [len(w) for w in windows]
    got = modem._window_statistics(lat, lo, hi, DecisionRule.STDDEV).tolist()
    assert got == [window_statistic_reference(w, DecisionRule.STDDEV) for w in windows]


def _ulps(a: float, b: float) -> int:
    """How many floats apart two nonnegative floats are."""
    x, y = np.array([a, b]).view(np.int64).tolist()
    return abs(x - y)


@st.composite
def _stat_windows(draw, past_int64):
    """One chunk's windows of latencies: any spread, near-constant (a value
    plus offsets of 0-3), equal values and single samples.  Up to 2**24 the
    chunk's n * sum of squares fits in int64; past_int64 draws up to 2**62
    and ends on a sample of at least 2**32, whose square alone passes it."""
    top = 2**62 if past_int64 else 2**24
    windows = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("any", "near", "equal", "one")))
        size = 1 if kind == "one" else draw(st.integers(2, 30))
        if kind == "any":
            window = draw(st.lists(st.integers(1, top), min_size=size, max_size=size))
        elif kind == "near":
            base = draw(st.integers(1, top - 3))
            window = [base + draw(st.integers(0, 3)) for _ in range(size)]
        else:
            window = [draw(st.integers(1, top))] * size
        windows.append(window)
    if past_int64:
        windows.append([draw(st.integers(2**32, top))])
    return windows


@settings(max_examples=300, deadline=None)
@given(windows=st.one_of(_stat_windows(False), _stat_windows(True)))
def test_window_statistics_stddev_within_two_ulps_of_stdev(windows):
    # the float64 STDDEV statistic over int64 sums, and over Python-int sums
    # where the overflow guard sends the chunk to the object path, is within
    # 2 ulps of statistics.stdev; 0.0 exactly for one sample or equal values
    lat = np.array([v for w in windows for v in w], dtype=np.int64)
    sizes = [len(w) for w in windows]
    # the two kinds of chunk fall on the two sides of the overflow guard
    past_int64 = int(lat.max()) ** 2 * max(len(lat), max(sizes) ** 2) > 2**63 - 1
    assert past_int64 == (lat.max() >= 2**32)
    hi = np.cumsum(sizes)
    got = modem._window_statistics(lat, hi - sizes, hi, DecisionRule.STDDEV)
    for stat, window in zip(got, windows):
        if len(set(window)) == 1:
            assert stat == 0.0
        else:
            assert _ulps(stat, statistics.stdev(window)) <= 2, window


@st.composite
def _quiet_statistics(draw):
    """Values for _fit: float statistics of any spread, integer latencies
    (the MEAN rule's calibration), and near-constant floats whose spread goes
    down to one ulp of their mean, equal values included."""
    n = draw(st.integers(2, 80))
    kind = draw(st.sampled_from(("floats", "ints", "near")))
    if kind == "floats":
        return draw(st.lists(st.floats(0.0, 1e7), min_size=n, max_size=n))
    if kind == "ints":
        return draw(st.lists(st.integers(1, 10**7), min_size=n, max_size=n))
    base = draw(st.floats(1e-3, 1e9))
    step = math.ulp(base) * draw(st.sampled_from((1, 2, 16, 2**20)))
    return [base + k * step for k in draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))]


@settings(max_examples=500, deadline=None)
@given(values=_quiet_statistics())
@example(values=[0.0, 2.438350755454362e-288])  # a squared deviation underflows unscaled
def test_fit_std_within_two_ulps_of_stdev(values):
    # the corrected two-pass standard deviation of _fit is within 2 ulps of
    # statistics.stdev, 0.0 exactly for equal values; the mean is fmean
    _, mean, std = modem._fit(values)
    assert mean == statistics.fmean(values)
    want = statistics.stdev(values)
    if want == 0.0:
        assert std == 0.0
    assert _ulps(std, want) <= 2, values
    assert modem._fit(values[:1])[2] == 0.0


@st.composite
def _fit_inputs(draw):
    """1 to 200 ints, some past 2**53, or floats, their spread from 1e-300
    to 1e12 and their center up to a million spreads away from 0."""
    n = draw(st.integers(1, 200))
    if draw(st.booleans()):
        lo = draw(st.integers(-(10**12), 2**62))
        spread = 10 ** draw(st.integers(0, 12))
        return draw(st.lists(st.integers(lo, lo + spread), min_size=n, max_size=n))
    spread = 10.0 ** draw(st.integers(-300, 12))
    center = draw(st.floats(-1e6, 1e6))
    units = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return [spread * (center + u) for u in units]


@settings(max_examples=500, deadline=None)
@given(values=_fit_inputs())
@example(values=[0.0, 2.438350755454362e-288])
@example(values=[21_390])
def test_fit_matches_reference(values):
    # the numpy deviations, scaling and squares give the same doubles as the
    # per-value Python loop, so theta, mean and std are equal exactly
    assert modem._fit(values) == fit_reference(values)


def _numpy_fit(values):
    """_fit as numpy computed it: the deviations, their scaling by a power of
    two and their squares as float64 arrays, and the mean from fmean."""
    mean = statistics.fmean(values)
    n = len(values)
    std = 0.0
    if n >= 2:
        d = np.asarray(values, dtype=np.float64) - mean
        e = math.frexp(float(np.abs(d).max()))[1]
        d = np.ldexp(d, -e)
        var = (math.fsum((d * d).tolist()) - math.fsum(d.tolist()) ** 2 / n) / (n - 1)
        std = math.ldexp(math.sqrt(var), e)
    return round(mean + max(3.0 * std, 0.5 * mean)), mean, std


@st.composite
def _fit_extremes(draw):
    """1 to 80 values: floats whose spread runs from subnormal deviations
    (below 2**-1024, where 2**-e would be no double) to squares past the
    float range, integer latencies, and equal values."""
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(("floats", "subnormal", "ints", "equal")))
    if kind == "floats":
        spread = 10.0 ** draw(st.integers(-320, 300))
        center = draw(st.floats(-1e3, 1e3))
        units = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        return [spread * (center + u) for u in units]
    if kind == "subnormal":
        base = draw(st.sampled_from((0.0, 2.0**-1022, 1e-300)))
        steps = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
        return [base + k * 5e-324 for k in steps]
    if kind == "ints":
        return draw(st.lists(st.integers(1, 10**7), min_size=n, max_size=n))
    return [draw(st.floats(-1e300, 1e300) | st.integers(1, 2**62))] * n


@settings(max_examples=1000, deadline=None)
@given(values=st.one_of(_fit_extremes(), _fit_inputs()))
@example(values=[0.0, 5e-324])  # the only deviation is below 2**-1024
@example(values=[-1e300, 1e300])  # the squared deviations overflow unscaled
@example(values=[-1e300, 1e300, 1e-10])  # a scaled deviation is subnormal
@example(values=[21_390])
def test_fit_matches_numpy_fit(values):
    # the pure-Python fit gives the very tuple the numpy one gave
    assert modem._fit(values) == _numpy_fit(values)


_PAST_2_53 = (2.0**53, 2.0**53 + 2, 2.0**53 + 4)


@pytest.mark.parametrize("theta", [2**53 + 1, 2**53 + 3])
def test_decisions_compare_with_integer_theta_past_2_53(monkeypatch, theta):
    # float(2**53 + 3) rounds up to 2**53 + 4, so a float64 comparison with
    # theta itself would call 2**53 + 4 quiet; each block is decided, and
    # each quiet statistic kept, as the integer comparison does
    ts = [0, 50_000, 100_000]
    trace = LatencyTrace(ts, [int(s) for s in _PAST_2_53])
    state = ThresholdState(theta, 2.0**53, 0.0)
    got = receive_symbols(TraceSource(trace), ChannelConfig(ts_us=50), state, 3)
    assert [d.bit for d in got] == [int(s > theta) for s in _PAST_2_53]
    assert state._quiet == [s for s in _PAST_2_53 if s <= theta]
    monkeypatch.setattr(modem, "_UPDATE_PERIOD", 4)
    monkeypatch.setattr(modem, "_MIN_QUIET_CLUSTER", 1)
    want = threshold_reference(theta, 2.0**53, 0.0, [*_PAST_2_53, theta], 4, 1)
    for block in (np.array(_PAST_2_53), _PAST_2_53, [int(s) for s in _PAST_2_53]):
        state = ThresholdState(theta, 2.0**53, 0.0)
        state.observe_block(block, 2)
        state.observe_block((theta,), 3)
        assert (state.theta_ns, state.quiet_mean_ns, state.quiet_std_ns, state.provenance) == want


def test_loopback_final_threshold_pinned(monkeypatch):
    # the threshold after the loopback of `bench --seed 1234`'s 50 us, high
    # noise row (80,000 bits, 797 errors), as the numpy fit and the
    # per-statistic comparisons left it
    from fsyncchan.cli import derive_seed

    states = []

    def calibrate_spy(*args):
        states.append(calibrate(*args))
        return states[-1]

    monkeypatch.setattr(simchan, "calibrate", calibrate_spy)
    model = default_model()
    simchan.loopback(
        prbs_sequence(80_000, derive_seed(1234, "payload:50:high")), ChannelConfig(ts_us=50), model,
        calibration_seed=derive_seed(1234, "calibrate"),
        channel_seed=derive_seed(1234, "channel:50:high"),
        noise=NoiseProcess.from_degree(NoiseDegree.HIGH, model),
    )
    (state,) = states
    got = (state.theta_ns, state.quiet_mean_ns, state.quiet_std_ns, state.provenance)
    assert got == (32_958, 21971.73611111111, 2266.5733469497904, "adaptive@symbol7975")


@st.composite
def _random_traces(draw):
    """Short traces: bursts of close probes, long in-flight samples that
    swallow windows, equal timestamps and idle gaps."""
    n = draw(st.integers(0, 60))
    t = draw(st.integers(0, 10**6))
    ts, lat = [], []
    for _ in range(n):
        t += draw(st.sampled_from((0, 1, 500, 9_000, 23_000, 60_000, 300_000)))
        ts.append(t)
        lat.append(draw(st.sampled_from((1, 21_000, 22_000, 45_000, 400_000, 2**40))))
    return LatencyTrace(ts, lat)


@settings(max_examples=300, deadline=None)
@given(
    trace=_random_traces(),
    ts_us=st.sampled_from((3, 7, 50, 120)),
    rule=st.sampled_from(list(DecisionRule)),
    update_period=st.sampled_from((1, 2, 5, 64)),
    chunk=st.integers(1, 40),
    block=st.sampled_from((None, 1, 3)),
)
def test_receive_symbols_matches_reference_property(trace, ts_us, rule, update_period, chunk, block):
    cfg = ChannelConfig(ts_us=ts_us, decision_rule=rule)
    saved = modem._UPDATE_PERIOD, modem._CHUNK
    # hypothesis runs no function-scoped fixture per example
    modem._UPDATE_PERIOD = update_period
    try:
        want, want_state = _reference_decisions(trace, cfg)
        state = _theta_state(rule)
        modem._CHUNK = chunk
        got = receive_symbols(_grid(trace, block), cfg, state, 10**6)
    finally:
        modem._UPDATE_PERIOD, modem._CHUNK = saved
    assert got == want
    assert state == want_state
