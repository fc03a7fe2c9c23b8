"""Timed fsync probes against a real file.

A probe is one mutation (nothing, a fixed 1024-byte overwrite, or a random
ftruncate) followed by one fsync; only the fsync call is timed, on the raw
monotonic clock.  The probe file must already exist: the caller creates it
and this module only ever touches the descriptor it opened.

The first samples of a session hit cold caches and allocator paths, so the
first 16 are flagged as warm-up in the trace metadata and calibration skips
them.
"""

from __future__ import annotations

import errno
import os
import random
import time

from .core import LatencySample, LatencyTrace, ProbeMode, TraceMeta

__all__ = [
    "ProbeError",
    "ProbeHandle",
    "WARMUP_SAMPLES",
]

WARMUP_SAMPLES = 16
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

    def __init__(self, path, mode: ProbeMode = ProbeMode.FSYNC_ONLY, *, rng_seed: int = 0):
        self.mode = mode
        self.path = os.fspath(path)
        try:
            self._fd = os.open(self.path, os.O_RDWR)
        except OSError as exc:
            raise ProbeError(exc.errno, f"cannot open probe file: {exc.strerror}", self.path) from exc
        self._buf = b"\xa5" * WRITE_SIZE
        self._rng = random.Random(rng_seed)
        self._n_session_samples = 0
        res = time.clock_getres(_CLOCK)
        self._resolution_ns = max(1, round(res * 1e9))
        if mode is ProbeMode.WRITE_FSYNC:
            # pre-size so every overwrite hits allocated blocks
            if os.fstat(self._fd).st_size < WRITE_SIZE:
                os.ftruncate(self._fd, WRITE_SIZE)
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

    def probe_once(self) -> LatencySample:
        """One mutation + timed fsync; the mutation is outside the bracket."""
        if self._fd < 0:
            # os.fsync(-1) raises ValueError, not OSError; fail coherently
            raise ProbeError(errno.EBADF, "probe handle is closed", self.path)
        self._mutate()
        t0 = time.clock_gettime_ns(_CLOCK)
        try:
            os.fsync(self._fd)
        except OSError as exc:
            raise ProbeError(exc.errno, f"fsync failed: {exc.strerror}", self.path) from exc
        t1 = time.clock_gettime_ns(_CLOCK)
        if t1 < t0:
            raise RuntimeError("monotonic clock went backwards")
        self._n_session_samples += 1
        # sub-resolution fsync returns clamp to 1 ns to keep latencies positive
        return LatencySample(t0 - self._session_start, max(1, t1 - t0))

    def probe_for(self, duration_us: float) -> LatencyTrace:
        """Probe back-to-back until at least duration_us has elapsed.

        Always returns at least one sample.  The last probe may overshoot the
        requested duration; callers needing an absolute grid must re-anchor.
        """
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        before = self._n_session_samples
        deadline = time.clock_gettime_ns(_CLOCK) + round(duration_us * 1000)
        samples = [self.probe_once()]
        while time.clock_gettime_ns(_CLOCK) < deadline:
            samples.append(self.probe_once())
        warmup = max(0, min(WARMUP_SAMPLES - before, len(samples)))
        return LatencyTrace(samples, self.meta(warmup_samples=warmup))

    def busy_fsync_for(self, duration_us: float) -> int:
        """Hammer mutation+fsync for the full duration; returns fsync count."""
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        if self._fd < 0:
            raise ProbeError(errno.EBADF, "probe handle is closed", self.path)
        deadline = time.clock_gettime_ns(_CLOCK) + round(duration_us * 1000)
        count = 0
        while True:
            self._mutate()
            try:
                os.fsync(self._fd)
            except OSError as exc:
                raise ProbeError(exc.errno, f"fsync failed: {exc.strerror}", self.path) from exc
            count += 1
            if time.clock_gettime_ns(_CLOCK) >= deadline:
                return count

    def idle_for(self, duration_us: float) -> None:
        if duration_us < 0:
            raise ValueError("duration_us must be nonnegative")
        time.sleep(duration_us / 1e6)
