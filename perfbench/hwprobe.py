"""Opt-in hardware section: real fsync timings on this host.

The numbers depend on the disk, filesystem and kernel, so they are reported
apart from the workloads and never gated.  The probe file is created in the
given directory and removed afterwards.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from fsyncchan.core import ProbeMode
from fsyncchan.probe import ProbeHandle

PROBE_US = 200_000.0  # one back-to-back probing stretch
SYMBOL_US = 50.0
SYMBOLS = 200


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _overshoot_us(fn, n):
    """Per-call time beyond the requested symbol duration, in us."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter_ns()
        fn(SYMBOL_US)
        out.append((time.perf_counter_ns() - t0) / 1000.0 - SYMBOL_US)
    return out


def measure(directory: Path) -> dict:
    path = directory / f"fsyncchan-perfbench-{os.getpid()}.probe"
    path.write_bytes(b"\0" * 4096)
    try:
        with ProbeHandle(path, ProbeMode.FSYNC_ONLY) as handle:
            trace = handle.probe_for(PROBE_US)
            samples = trace.non_warmup()
            latencies = [s.latency_ns / 1000.0 for s in samples]
            # time from one fsync's return to the next fsync's start
            gaps = [
                (b.timestamp_ns - a.timestamp_ns - a.latency_ns) / 1000.0
                for a, b in zip(samples, samples[1:])
            ]
            busy = _overshoot_us(handle.busy_fsync_for, SYMBOLS)
            idle = _overshoot_us(handle.idle_for, SYMBOLS)
    finally:
        path.unlink(missing_ok=True)
    return {
        "probe.samples": len(latencies),
        "probe.fsync_p50_us": statistics.median(latencies),
        "probe.fsync_p99_us": _percentile(latencies, 99),
        "probe.loop_overhead_p50_us": statistics.median(gaps),
        "probe.busy_overshoot_p50_us": statistics.median(busy),
        "probe.idle_overshoot_p50_us": statistics.median(idle),
        "probe.symbol_us": SYMBOL_US,
        "probe.dir": str(directory),
    }
