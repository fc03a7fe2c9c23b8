"""Timed fsync probes against a real file.

A probe is one mutation (nothing, a fixed 1024-byte overwrite, or a random
ftruncate) followed by one fsync; only the fsync call is timed, on the raw
monotonic clock.  The probe file must already exist: the caller creates it
and this module only ever touches the descriptor it opened.

A receiver windows blocks(), back-to-back probing without end, on a
modem.WindowGrid; probe_for probes one stretch, for calibration.  The first
samples of a session hit cold caches and allocator paths, so probe_for flags
the first 16 as warm-up in the trace metadata and calibration skips them.
"""

from __future__ import annotations

import errno
import math
import os
import random
import time
from typing import Iterator

import numpy as np

from .core import BitStream, LatencyTrace, ProbeMode, TraceMeta

__all__ = [
    "ProbeError",
    "ProbeHandle",
    "BLOCK_US",
    "WARMUP_SAMPLES",
]

WARMUP_SAMPLES = 16
# per block of blocks(): 20,000 live 50 us windows took 1.001-1.006x nominal
# time with 1-5 ms blocks, 1.005-1.018x with 20 ms (2-core VM, ext4 on virtio)
BLOCK_US = 5000.0
WRITE_SIZE = 1024
FTRUNCATE_MIN = 1024
FTRUNCATE_MAX = 64 * 1024

_CLOCK = getattr(time, "CLOCK_MONOTONIC_RAW", time.CLOCK_MONOTONIC)


class ProbeError(OSError):
    """An fsync or mutation syscall failed; errno is preserved."""


class ProbeHandle:
    """Open descriptor plus per-session probe state.

    Timestamps are relative to handle creation and taken from the same
    monotonic clock as the latencies, so consecutive samples never overlap.
    """

    def __init__(self, path, mode: ProbeMode = ProbeMode.FSYNC_ONLY):
        self.mode = ProbeMode(mode)
        self.path = os.fspath(path)
        try:
            self._fd = os.open(self.path, os.O_RDWR)
        except OSError as exc:
            raise ProbeError(exc.errno, f"cannot open probe file: {exc.strerror}", self.path) from exc
        self._buf = b"\xa5" * WRITE_SIZE
        self._rng = random.Random(0)  # the ftruncate sizes
        self._n_session_samples = 0
        self._resolution_ns = max(1, round(time.clock_getres(_CLOCK) * 1e9))
        # pre-size so every overwrite hits allocated blocks
        try:
            if self.mode is ProbeMode.WRITE_FSYNC and os.fstat(self._fd).st_size < WRITE_SIZE:
                os.ftruncate(self._fd, WRITE_SIZE)
        except OSError as exc:
            self.close()
            raise ProbeError(exc.errno, f"cannot size probe file: {exc.strerror}", self.path) from exc
        self._session_start = time.clock_gettime_ns(_CLOCK)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "ProbeHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def meta(self, warmup_samples: int = 0) -> TraceMeta:
        return TraceMeta(
            probe_mode=self.mode.value,
            session=f"{self.path}@{self._session_start}",
            clock_resolution_ns=self._resolution_ns,
            warmup_samples=warmup_samples,
        )

    def _mutate(self) -> None:
        try:
            if self.mode is ProbeMode.WRITE_FSYNC:
                os.pwrite(self._fd, self._buf, 0)
            elif self.mode is ProbeMode.FTRUNCATE_FSYNC:
                os.ftruncate(self._fd, self._rng.randint(FTRUNCATE_MIN, FTRUNCATE_MAX))
        except OSError as exc:
            raise ProbeError(exc.errno, f"mutation failed: {exc.strerror}", self.path) from exc

    def _check_open(self) -> None:
        if self._fd < 0:
            # os.fsync(-1) raises ValueError, not OSError; fail coherently
            raise ProbeError(errno.EBADF, "probe handle is closed", self.path)

    def _probe_until(self, deadline_ns: int) -> tuple[list[int], list[int]]:
        """Probe back-to-back until an fsync returns at or past deadline_ns;
        at least once.  Each probe is one mutation, then one fsync timed
        alone.  Returns the (timestamps, latencies) columns as int lists."""
        self._check_open()
        ts, lat = [], []
        while True:
            self._mutate()
            t0 = time.clock_gettime_ns(_CLOCK)
            try:
                os.fsync(self._fd)
            except OSError as exc:
                raise ProbeError(exc.errno, f"fsync failed: {exc.strerror}", self.path) from exc
            t1 = time.clock_gettime_ns(_CLOCK)
            if t1 < t0:
                raise RuntimeError("monotonic clock went backwards")
            ts.append(t0 - self._session_start)
            # sub-resolution fsync returns clamp to 1 ns to keep latencies positive
            lat.append(max(1, t1 - t0))
            if t1 >= deadline_ns:
                self._n_session_samples += len(ts)
                return ts, lat

    def _deadline(self, duration_us: float) -> int:
        if not 0 < duration_us < math.inf:  # NaN fails too
            raise ValueError(f"duration_us must be positive and finite, got {duration_us!r}")
        return time.clock_gettime_ns(_CLOCK) + round(duration_us * 1000)

    def probe_for(self, duration_us: float) -> LatencyTrace:
        """Probe back-to-back until at least duration_us has elapsed; at
        least one sample, the last of which may overshoot the duration."""
        before = self._n_session_samples
        ts, lat = self._probe_until(self._deadline(duration_us))
        warmup = max(0, min(WARMUP_SAMPLES - before, len(ts)))
        return LatencyTrace(ts, lat, self.meta(warmup_samples=warmup))

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Probe back-to-back without end, as int64 (timestamps, latencies)
        blocks of about BLOCK_US each: the stream a WindowGrid windows."""
        while True:
            ts, lat = self._probe_until(self._deadline(BLOCK_US))
            yield np.array(ts, dtype=np.int64), np.array(lat, dtype=np.int64)

    def send(self, bits: BitStream, ts_us: float) -> int:
        """Transmit bits on absolute deadlines: with t0 read once, symbol i
        ends at t0 + (i+1)*ts_us.  A '1' probes until its deadline, at least
        once even when it starts late; a '0' spins on the clock to its
        deadline, where waking late from a sleep would delay the next '1'.
        Returns the fsync count."""
        self._check_open()
        first = self._deadline(ts_us)  # symbol 0 ends at t0 + ts, t0 read here
        ts_ns, fsyncs = round(ts_us * 1000), 0
        for i, bit in enumerate(bits):
            deadline = first + i * ts_ns
            if bit:
                fsyncs += len(self._probe_until(deadline)[0])
            else:
                while time.clock_gettime_ns(_CLOCK) < deadline:
                    pass
        return fsyncs

    def busy_fsync_for(self, duration_us: float) -> int:
        """Hammer mutation+fsync for the full duration; returns fsync count."""
        return len(self._probe_until(self._deadline(duration_us))[0])

    def idle_for(self, duration_us: float) -> None:
        if duration_us < 0:
            raise ValueError("duration_us must be nonnegative")
        time.sleep(duration_us / 1e6)
