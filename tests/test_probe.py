"""Real-probe plumbing.

Most tests here monkeypatch the mutation/fsync syscalls so they check the
timing bracket and bookkeeping logic deterministically; the fake-disk tests
also replace the monotonic clock, so a live receive runs in virtual time
against a sender's schedule.  The tests that exercise actual fsync timing
behavior are marked `hardware` and only run with FSYNC_HARDWARE_TESTS=1,
since their physics depend on the host.
"""

import errno
import os
import random
import threading
import time

import numpy as np
import pytest

from fsyncchan import cli
from fsyncchan.cli import derive_seed, main
from fsyncchan.core import (
    BitStream,
    ChannelConfig,
    LatencyTrace,
    ProbeMode,
    encode_frames,
    frames_to_bits,
    prbs_sequence,
)
from fsyncchan.modem import ThresholdState, TraceSource, WindowGrid, receive_frames, send_bits
from fsyncchan.probe import (
    BLOCK_US,
    FTRUNCATE_MAX,
    FTRUNCATE_MIN,
    WARMUP_SAMPLES,
    WRITE_SIZE,
    ProbeError,
    ProbeHandle,
)
from synthgen import validate_sequential


@pytest.fixture
def probe_file(tmp_path):
    path = tmp_path / "probe.dat"
    path.write_bytes(b"\0" * 4096)
    return path


@pytest.fixture
def fast_fsync(monkeypatch):
    monkeypatch.setattr(os, "fsync", lambda fd: None)


# ---------------------------------------------------------------------------
# construction and teardown


def test_missing_file_is_probe_error(tmp_path):
    # a file that does not open, and /dev/null, which opens but that
    # ftruncate cannot pre-size: a ProbeError naming the path, no fd left open
    for path, mode, code in (
        (str(tmp_path / "nope.dat"), ProbeMode.FSYNC_ONLY, errno.ENOENT),
        ("/dev/null", ProbeMode.WRITE_FSYNC, errno.EINVAL),
    ):
        fds = set(os.listdir("/proc/self/fd"))
        with pytest.raises(ProbeError) as exc:
            ProbeHandle(path, mode)
        assert exc.value.errno == code and exc.value.filename == path
        assert path in str(exc.value)
        assert set(os.listdir("/proc/self/fd")) == fds


def test_write_mode_presizes_file(tmp_path):
    path = tmp_path / "small.dat"
    path.write_bytes(b"x")
    with ProbeHandle(path, ProbeMode.WRITE_FSYNC):
        assert path.stat().st_size == WRITE_SIZE
    # an already larger file is left alone
    big = tmp_path / "big.dat"
    big.write_bytes(b"y" * 8192)
    with ProbeHandle(big, ProbeMode.WRITE_FSYNC):
        assert big.stat().st_size == 8192


def test_mode_given_by_value_is_that_mode(tmp_path, monkeypatch):
    # "write" pre-sizes the file as WRITE_FSYNC does; an unknown mode
    # raises before the file is opened, so no descriptor leaks
    path = tmp_path / "small.dat"
    path.write_bytes(b"x")
    with ProbeHandle(path, "write") as handle:
        assert handle.mode is ProbeMode.WRITE_FSYNC
        assert path.stat().st_size == WRITE_SIZE
        assert handle.meta().probe_mode == "write"
    opened = []
    monkeypatch.setattr(os, "open", lambda *args: opened.append(args))
    with pytest.raises(ValueError, match="'bogus' is not a valid ProbeMode"):
        ProbeHandle(path, "bogus")
    assert opened == []


def test_context_manager_and_double_close(probe_file):
    handle = ProbeHandle(probe_file)
    handle.close()
    handle.close()  # idempotent
    with ProbeHandle(probe_file) as h:
        assert h.mode is ProbeMode.FSYNC_ONLY


def test_probe_after_close_fails(probe_file):
    handle = ProbeHandle(probe_file)
    handle.close()
    with pytest.raises(ProbeError):
        handle.probe_for(0.001)


def test_meta_fields(probe_file):
    with ProbeHandle(probe_file, ProbeMode.WRITE_FSYNC) as handle:
        meta = handle.meta(warmup_samples=5)
    assert meta.probe_mode == "write"
    assert str(probe_file) in meta.session
    assert meta.clock_resolution_ns >= 1
    assert meta.warmup_samples == 5


# ---------------------------------------------------------------------------
# timing bracket


def test_only_fsync_is_timed_not_the_mutation(probe_file, monkeypatch):
    # on a fake clock, a 4 ms mutation and a 0.5 ms fsync yield a latency of
    # exactly the fsync's 0.5 ms
    now = [0]

    def advance(ns):
        now[0] += ns

    monkeypatch.setattr(time, "clock_gettime_ns", lambda clock: now[0])
    monkeypatch.setattr(os, "pwrite", lambda fd, buf, off: advance(4_000_000))
    monkeypatch.setattr(os, "fsync", lambda fd: advance(500_000))
    with ProbeHandle(probe_file, ProbeMode.WRITE_FSYNC) as handle:
        latency = handle.probe_for(0.001).latencies_ns[0]
    assert latency == 500_000


def test_fsync_only_mode_never_mutates(probe_file, monkeypatch):
    def boom(*args):
        raise AssertionError("mutation syscall used in fsync-only mode")

    monkeypatch.setattr(os, "pwrite", boom)
    monkeypatch.setattr(os, "ftruncate", boom)
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    with ProbeHandle(probe_file) as handle:
        latency = handle.probe_for(0.001).latencies_ns[0]
    assert latency >= 1  # sub-resolution clamps, never zero


def test_ftruncate_sizes_bounded_and_seeded(probe_file, monkeypatch):
    sizes = []
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: sizes.append(n))
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    with ProbeHandle(probe_file, ProbeMode.FTRUNCATE_FSYNC) as handle:
        for _ in range(50):
            handle.probe_for(0.001)
    assert len(sizes) == 50
    assert all(FTRUNCATE_MIN <= n <= FTRUNCATE_MAX for n in sizes)
    replay = []
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: replay.append(n))
    with ProbeHandle(probe_file, ProbeMode.FTRUNCATE_FSYNC) as handle:
        for _ in range(50):
            handle.probe_for(0.001)
    assert replay == sizes


def test_timestamps_are_session_relative_and_sequential(probe_file, fast_fsync):
    with ProbeHandle(probe_file) as handle:
        trace = handle.probe_for(300.0)
    assert trace.timestamps_ns[0] >= 0
    validate_sequential(trace)


# ---------------------------------------------------------------------------
# error wrapping


def test_fsync_failure_wraps_errno(probe_file, monkeypatch):
    def fail(fd):
        raise OSError(errno.EIO, "I/O error")

    monkeypatch.setattr(os, "fsync", fail)
    with ProbeHandle(probe_file) as handle:
        with pytest.raises(ProbeError) as exc:
            handle.probe_for(0.001)
        assert exc.value.errno == errno.EIO
        with pytest.raises(ProbeError):
            handle.busy_fsync_for(10.0)


def test_mutation_failure_wraps_errno(probe_file, monkeypatch):
    def fail(fd, buf, off):
        raise OSError(errno.ENOSPC, "no space")

    monkeypatch.setattr(os, "pwrite", fail)
    with ProbeHandle(probe_file, ProbeMode.WRITE_FSYNC) as handle:
        with pytest.raises(ProbeError) as exc:
            handle.probe_for(0.001)
    assert exc.value.errno == errno.ENOSPC
    assert "mutation failed" in str(exc.value)


# ---------------------------------------------------------------------------
# durations, warm-up accounting


def test_probe_for_validation_and_minimum_sample(probe_file, fast_fsync):
    with ProbeHandle(probe_file) as handle:
        with pytest.raises(ValueError):
            handle.probe_for(0)
        for duration_us in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="duration_us must be positive and finite"):
                handle.probe_for(duration_us)
        trace = handle.probe_for(0.001)  # far below one probe's cost
        assert len(trace) >= 1


def test_warmup_accounting_across_calls(probe_file, fast_fsync):
    with ProbeHandle(probe_file) as handle:
        first = handle.probe_for(200.0)
        assert len(first) > WARMUP_SAMPLES
        assert first.meta.warmup_samples == WARMUP_SAMPLES
        later = handle.probe_for(100.0)
        assert later.meta.warmup_samples == 0


def test_warmup_spans_calls_when_first_window_is_short(probe_file, monkeypatch):
    calls = 0

    def counted(fd):
        nonlocal calls
        calls += 1

    monkeypatch.setattr(os, "fsync", counted)
    with ProbeHandle(probe_file) as handle:
        first = handle.probe_for(0.001)  # ends after very few probes
        n_first = len(first)
        assert first.meta.warmup_samples == min(WARMUP_SAMPLES, n_first)
        second = handle.probe_for(0.001)
        expect = max(0, min(WARMUP_SAMPLES - n_first, len(second)))
        assert second.meta.warmup_samples == expect


def test_busy_and_idle_endpoints(probe_file, fast_fsync):
    with ProbeHandle(probe_file) as handle:
        count = handle.busy_fsync_for(100.0)
        assert count >= 1
        with pytest.raises(ValueError):
            handle.busy_fsync_for(0)
        handle.idle_for(0.0)
        start = time.perf_counter()
        handle.idle_for(2_000.0)
        assert time.perf_counter() - start >= 0.002
        with pytest.raises(ValueError):
            handle.idle_for(-1.0)


def test_busy_fsync_for_counts_every_fsync(probe_file, monkeypatch):
    calls = 0

    def counted(fd):
        nonlocal calls
        calls += 1

    monkeypatch.setattr(os, "fsync", counted)
    with ProbeHandle(probe_file) as handle:
        count = handle.busy_fsync_for(200.0)
    assert count == calls >= 1


# ---------------------------------------------------------------------------
# the live sample stream, against a fake disk in virtual time


class FakeDisk:
    """Stand-ins for the monotonic clock and fsync: the clock is virtual,
    each read of it costs 300 ns, and an fsync takes about 21.4 us, or about
    43.1 us when it starts inside a '1' symbol of the sender's schedule."""

    def __init__(self, bits=(), ts_us=200, sender_start_ns=0, seed=0):
        self.now = 0
        self.bits = list(bits)
        self.ts_ns = ts_us * 1000
        self.sender_start_ns = sender_start_ns
        self.rng = random.Random(seed)

    def clock_gettime_ns(self, clock_id):
        self.now += 300
        return self.now

    def fsync(self, fd):
        k = (self.now - self.sender_start_ns) // self.ts_ns
        busy = 0 <= k < len(self.bits) and self.bits[k]
        self.now += round(self.rng.gauss(43_134 if busy else 21_390, 1_000))


@pytest.fixture
def fake_disk(monkeypatch):
    def install(disk):
        monkeypatch.setattr(time, "clock_gettime_ns", disk.clock_gettime_ns)
        monkeypatch.setattr(os, "fsync", disk.fsync)
        return disk

    return install


def test_blocks_are_int64_columns_of_about_block_us(probe_file, fake_disk):
    fake_disk(FakeDisk())
    with ProbeHandle(probe_file) as handle:
        stream = handle.blocks()
        blocks = [next(stream) for _ in range(3)]
        trace = handle.probe_for(100.0)
    for ts, lat in blocks:
        assert ts.dtype == lat.dtype == np.int64 and len(ts) == len(lat)
        # a block probes until an fsync returns past BLOCK_US from its start
        assert ts[-1] + lat[-1] - ts[0] >= BLOCK_US * 1000 > ts[-1] - ts[0]
    ts = np.concatenate([b[0] for b in blocks])
    lat = np.concatenate([b[1] for b in blocks])
    validate_sequential(LatencyTrace(ts, lat))
    assert trace.timestamps_ns[0] > ts[-1]
    # the stream's probes count toward the session's warm-up
    assert trace.meta.warmup_samples == 0


def test_blocks_after_close_fails(probe_file):
    handle = ProbeHandle(probe_file)
    handle.close()
    with pytest.raises(ProbeError):
        next(handle.blocks())


def test_fake_disk_sender_keeps_absolute_deadlines(probe_file, fake_disk, monkeypatch):
    # every sleep overshoots by 55.8 us, as on a 2-core VM at 50 us symbols;
    # with symbol i ending at t0 + (i+1)*ts the overshoots do not add up, so
    # 400 symbols end within one fsync and one overshoot of t0 + 400*ts
    ts_us, overshoot_ns = 50, 55_800
    disk = fake_disk(FakeDisk())
    fsync, fsyncs = disk.fsync, []

    def counted(fd):
        fsyncs.append(fd)
        fsync(fd)

    def sleep(seconds):
        disk.now += round(seconds * 1e9) + overshoot_ns

    monkeypatch.setattr(os, "fsync", counted)
    monkeypatch.setattr(time, "sleep", sleep)
    bits = prbs_sequence(400, 3)
    with ProbeHandle(probe_file) as handle:
        t0 = disk.now
        count = send_bits(bits, ChannelConfig(ts_us=ts_us), handle)
    end = t0 + len(bits) * ts_us * 1000
    one_fsync = 43_134 + 5 * 1_000 + 3 * 300  # 5 sigma over FakeDisk's loud fsync, and clock reads
    assert end <= disk.now <= end + one_fsync + overshoot_ns
    assert count == len(fsyncs) >= bits.count(1)


def test_send_after_close_fails_before_the_first_symbol(probe_file, monkeypatch):
    handle = ProbeHandle(probe_file)
    handle.close()
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    with pytest.raises(ProbeError) as exc:
        handle.send(BitStream([0] * 8), 50)
    assert exc.value.errno == errno.EBADF and slept == []


def test_fake_disk_live_recv_decodes_and_replays(probe_file, fake_disk, monkeypatch, capsys):
    # live `recv --file` windows the probe stream on the same absolute grid
    # as replay: with the sender's symbols a tenth of a symbol off the
    # receiver's grid, both frames decode exactly, and the logged stream
    # replayed through TraceSource gives the same payloads and threshold
    ts_us, frame_len, seed = 200, 64, 5
    payload = prbs_sequence(2 * frame_len, derive_seed(seed, "payload"))
    cfg = ChannelConfig(ts_us=ts_us, payload_len=frame_len)
    bits = frames_to_bits(encode_frames(payload, cfg))
    fake_disk(FakeDisk(bits, ts_us, sender_start_ns=round(3.1 * ts_us * 1000), seed=seed))
    logged = []
    blocks = ProbeHandle.blocks

    def logged_blocks(handle):
        for block in blocks(handle):
            logged.append(block)
            yield block

    monkeypatch.setattr(ProbeHandle, "blocks", logged_blocks)
    calls = []

    def spy(source, cfg, state, n_frames, **kwargs):
        calls.append((cfg, state, n_frames, kwargs))
        return receive_frames(source, cfg, state, n_frames, **kwargs)

    monkeypatch.setattr(cli, "receive_frames", spy)
    rc = main(["recv", "--file", str(probe_file), "--ts-us", str(ts_us), "--theta-ns", "32000",
               "--frame-payload-len", str(frame_len), "--frames", "2"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out.strip() == payload.to_text()

    trace = LatencyTrace(
        np.concatenate([b[0] for b in logged]), np.concatenate([b[1] for b in logged])
    )
    replay = TraceSource(trace)
    state = ThresholdState(32000, 32000 / 1.5, 0.0)
    (cfg_, _, n_frames, kwargs), = calls
    got = list(receive_frames(replay, cfg_, state, n_frames, **kwargs))
    assert got == [payload[:frame_len], payload[frame_len:]]
    assert state == calls[-1][1]
    assert state.provenance.startswith("adaptive@")


# ---------------------------------------------------------------------------
# hardware-gated behavior


@pytest.mark.hardware
def test_hw_live_windows_keep_nominal_time(probe_file):
    # 2,000 live 50 us windows on the grid span 2,000 x 50 us of probing
    # (window-by-window deadlines ran 1.5-2x nominal on a quiet disk)
    with ProbeHandle(probe_file) as handle:
        grid = WindowGrid(handle.blocks(), handle.meta())
        windows = [grid.probe_for(50.0) for _ in range(2_000)]
    first, last = windows[0], windows[-1]
    span_ns = last.timestamps_ns[-1] + last.latencies_ns[-1] - first.timestamps_ns[0]
    assert span_ns == pytest.approx(2_000 * 50_000, rel=0.01)



@pytest.mark.hardware
def test_hw_probe_smoke(probe_file):
    with ProbeHandle(probe_file) as handle:
        trace = handle.probe_for(20_000.0)
    assert len(trace) >= 2
    assert (trace.latencies_ns > 0).all()
    validate_sequential(trace)


@pytest.mark.hardware
@pytest.mark.parametrize("mode", [ProbeMode.WRITE_FSYNC, ProbeMode.FTRUNCATE_FSYNC])
def test_hw_mutating_modes_smoke(tmp_path, mode):
    path = tmp_path / "probe.dat"
    path.write_bytes(b"\0" * 4096)
    with ProbeHandle(path, mode) as handle:
        trace = handle.probe_for(20_000.0)
    assert (trace.latencies_ns > 0).all()


@pytest.mark.hardware
def test_hw_contention_raises_probe_latency(tmp_path):
    """A busy fsync neighbor on the same filesystem should not make the
    probe faster; on journaled filesystems it gets distinctly slower."""
    probe_path = tmp_path / "probe.dat"
    noise_path = tmp_path / "noise.dat"
    for p in (probe_path, noise_path):
        p.write_bytes(b"\0" * 4096)

    with ProbeHandle(probe_path) as handle:
        handle.probe_for(50_000.0)  # burn warm-up
        quiet = handle.probe_for(200_000.0)

        stop = threading.Event()

        def hammer():
            with ProbeHandle(noise_path, ProbeMode.WRITE_FSYNC) as noisy:
                while not stop.is_set():
                    noisy.busy_fsync_for(1_000.0)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            time.sleep(0.05)
            busy = handle.probe_for(200_000.0)
        finally:
            stop.set()
            thread.join()

    import statistics

    quiet_mean = statistics.fmean(quiet.latencies_ns[quiet.meta.warmup_samples :].tolist())
    busy_mean = statistics.fmean(busy.latencies_ns[busy.meta.warmup_samples :].tolist())
    assert busy_mean > 0.8 * quiet_mean
