"""Real-probe plumbing.

Most tests here monkeypatch the mutation/fsync syscalls so they check the
timing bracket and bookkeeping logic deterministically.  The tests that
exercise actual fsync timing behavior are marked `hardware` and only run
with FSYNC_HARDWARE_TESTS=1, since their physics depend on the host.
"""

import errno
import os
import threading
import time

import pytest

from fsyncchan.core import ProbeMode
from fsyncchan.probe import (
    FTRUNCATE_MAX,
    FTRUNCATE_MIN,
    WARMUP_SAMPLES,
    WRITE_SIZE,
    ProbeError,
    ProbeHandle,
)


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
    with pytest.raises(ProbeError) as exc:
        ProbeHandle(tmp_path / "nope.dat")
    assert exc.value.errno == errno.ENOENT


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
        handle.probe_once()


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
    # a slow mutation with a fast fsync must yield a small latency
    monkeypatch.setattr(os, "pwrite", lambda fd, buf, off: time.sleep(0.004))
    monkeypatch.setattr(os, "fsync", lambda fd: time.sleep(0.0005))
    with ProbeHandle(probe_file, ProbeMode.WRITE_FSYNC) as handle:
        sample = handle.probe_once()
    assert 400_000 < sample.latency_ns < 3_000_000  # ~0.5 ms, not ~4.5 ms


def test_fsync_only_mode_never_mutates(probe_file, monkeypatch):
    def boom(*args):
        raise AssertionError("mutation syscall used in fsync-only mode")

    monkeypatch.setattr(os, "pwrite", boom)
    monkeypatch.setattr(os, "ftruncate", boom)
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    with ProbeHandle(probe_file) as handle:
        sample = handle.probe_once()
    assert sample.latency_ns >= 1  # sub-resolution clamps, never zero


def test_ftruncate_sizes_bounded_and_seeded(probe_file, monkeypatch):
    sizes = []
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: sizes.append(n))
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    with ProbeHandle(probe_file, ProbeMode.FTRUNCATE_FSYNC, rng_seed=7) as handle:
        for _ in range(50):
            handle.probe_once()
    assert len(sizes) == 50
    assert all(FTRUNCATE_MIN <= n <= FTRUNCATE_MAX for n in sizes)
    replay = []
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: replay.append(n))
    with ProbeHandle(probe_file, ProbeMode.FTRUNCATE_FSYNC, rng_seed=7) as handle:
        for _ in range(50):
            handle.probe_once()
    assert replay == sizes


def test_timestamps_are_session_relative_and_sequential(probe_file, fast_fsync):
    with ProbeHandle(probe_file) as handle:
        trace = handle.probe_for(300.0)
    assert trace[0].timestamp_ns >= 0
    trace.validate_sequential()


# ---------------------------------------------------------------------------
# error wrapping


def test_fsync_failure_wraps_errno(probe_file, monkeypatch):
    def fail(fd):
        raise OSError(errno.EIO, "I/O error")

    monkeypatch.setattr(os, "fsync", fail)
    with ProbeHandle(probe_file) as handle:
        with pytest.raises(ProbeError) as exc:
            handle.probe_once()
        assert exc.value.errno == errno.EIO
        with pytest.raises(ProbeError):
            handle.busy_fsync_for(10.0)


def test_mutation_failure_wraps_errno(probe_file, monkeypatch):
    def fail(fd, buf, off):
        raise OSError(errno.ENOSPC, "no space")

    monkeypatch.setattr(os, "pwrite", fail)
    with ProbeHandle(probe_file, ProbeMode.WRITE_FSYNC) as handle:
        with pytest.raises(ProbeError) as exc:
            handle.probe_once()
    assert exc.value.errno == errno.ENOSPC
    assert "mutation failed" in str(exc.value)


# ---------------------------------------------------------------------------
# durations, warm-up accounting


def test_probe_for_validation_and_minimum_sample(probe_file, fast_fsync):
    with ProbeHandle(probe_file) as handle:
        with pytest.raises(ValueError):
            handle.probe_for(0)
        trace = handle.probe_for(0.001)  # far below one probe's cost
        assert len(trace) >= 1


def test_warmup_accounting_across_calls(probe_file, fast_fsync):
    with ProbeHandle(probe_file) as handle:
        first = handle.probe_for(200.0)
        assert len(first) > WARMUP_SAMPLES
        assert first.meta.warmup_samples == WARMUP_SAMPLES
        assert len(first.non_warmup()) == len(first) - WARMUP_SAMPLES
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


# ---------------------------------------------------------------------------
# hardware-gated behavior


@pytest.mark.hardware
def test_hw_probe_smoke(probe_file):
    with ProbeHandle(probe_file) as handle:
        trace = handle.probe_for(20_000.0)
    assert len(trace) >= 2
    assert all(s.latency_ns > 0 for s in trace)
    trace.validate_sequential()


@pytest.mark.hardware
@pytest.mark.parametrize("mode", [ProbeMode.WRITE_FSYNC, ProbeMode.FTRUNCATE_FSYNC])
def test_hw_mutating_modes_smoke(tmp_path, mode):
    path = tmp_path / "probe.dat"
    path.write_bytes(b"\0" * 4096)
    with ProbeHandle(path, mode) as handle:
        trace = handle.probe_for(20_000.0)
    assert all(s.latency_ns > 0 for s in trace)


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

    quiet_mean = statistics.fmean(s.latency_ns for s in quiet.non_warmup())
    busy_mean = statistics.fmean(s.latency_ns for s in busy.non_warmup())
    assert busy_mean > 0.8 * quiet_mean
