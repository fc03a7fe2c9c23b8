"""On-off keying over fsync latency: calibration, symbol decisions, framing.

Sender side: a '1' is transmitted by hammering mutation+fsync for one symbol
duration, a '0' by staying idle.  Receiver side: probe continuously, bin the
samples into symbol windows, reduce each window to a statistic (mean latency,
or standard deviation for channels where contention shows up as variance
instead of a mean shift), and compare against a threshold calibrated on quiet
traffic:

    theta = quiet_mean + max(3 * quiet_std, 0.5 * quiet_mean)

The threshold is re-derived every update_period symbols from the quiet mode
of the recent window statistics, so a long run of '1' symbols does not drag
it upward.  Frame boundaries are found by scanning the decision stream for
the configured header pattern within a mismatch budget.
"""

from __future__ import annotations

import math
import statistics
import sys
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable

import numpy as np

from .core import BitStream, ChannelConfig, DecisionRule, LatencyTrace, TraceMeta

__all__ = [
    "CalibrationError",
    "SourceExhausted",
    "SymbolDecision",
    "ThresholdState",
    "calibrate",
    "receive_symbols",
    "receive_frame",
    "SendReport",
    "send_bits",
    "ScheduleBuilder",
    "TraceSource",
    "WindowGrid",
    "MIN_CALIBRATION_SAMPLES",
]

MIN_CALIBRATION_SAMPLES = 64


class CalibrationError(ValueError):
    """Quiet trace unusable for threshold calibration."""


class SourceExhausted(Exception):
    """A replayed sample source ran out of samples."""


class WindowGrid:
    """Sample source that bins a stream of samples on an absolute window grid.

    The stream arrives as blocks of (timestamps, latencies) int64 columns and
    is first read by the first probe_for.  The grid is anchored at the first
    sample's timestamp, so consecutive probe_for(duration_us) windows tile
    time without drift.  A window with no arriving sample inherits the sample
    still in flight across it (the last one consumed); once the stream is
    spent, probe_for raises SourceExhausted.  Each window is a read-only view
    of the current block.
    """

    def __init__(self, blocks: Iterable[tuple[np.ndarray, np.ndarray]], meta: TraceMeta):
        self._blocks = iter(blocks)
        self._meta = meta
        self._ts = self._lat = np.zeros(0, dtype=np.int64)
        self._ts_view = memoryview(self._ts)  # the timestamps as Python ints, for bisect
        self._i = 0  # index of the pending sample in the current block
        self._consumed = False  # whether sample _i - 1 was consumed
        self._anchor: int | None = None

    def _extend(self) -> bool:
        """Append the next nonempty block to the unconsumed samples; False
        once the stream is spent.  A window reads ahead until it holds a
        sample past its end, so this runs only while a window is open (or
        before the first one) and the samples it drops are never needed."""
        for ts, lat in self._blocks:
            if len(ts):
                break
        else:
            return False
        if self._i < len(self._ts):
            ts = np.concatenate((self._ts[self._i :], ts))
            lat = np.concatenate((self._lat[self._i :], lat))
        ts.setflags(write=False)
        lat.setflags(write=False)
        self._ts, self._lat, self._ts_view, self._i = ts, lat, memoryview(ts), 0
        return True

    def probe_for(self, duration_us: float) -> LatencyTrace:
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        width = round(duration_us * 1000)
        if width == 0:
            raise ValueError(f"duration_us={duration_us} rounds to a zero-width window")
        if self._i == len(self._ts_view) and not self._extend():
            raise SourceExhausted()
        i = self._i
        if self._anchor is None:
            self._anchor = self._ts_view[i]
        self._anchor += width
        j = bisect_left(self._ts_view, self._anchor, i)
        while j == len(self._ts_view) and self._extend():
            i = self._i
            j = bisect_left(self._ts_view, self._anchor, i)
        if j > i:
            self._i = j
            self._consumed = True
        else:
            i = i - 1 if self._consumed else i
            j = i + 1
        return LatencyTrace._view(self._ts[i:j], self._lat[i:j], self._meta)


class TraceSource(WindowGrid):
    """Replay a recorded trace as a sample source on the window grid."""

    def __init__(self, trace: LatencyTrace):
        super().__init__([(trace.timestamps_ns, trace.latencies_ns)], trace.meta)


@dataclass(frozen=True)
class SymbolDecision:
    """One demodulated symbol: the thresholded bit plus its evidence."""

    index: int
    bit: int
    statistic: float
    n_samples: int


def _theta_from(quiet_mean: float, quiet_std: float) -> int:
    return round(quiet_mean + max(3.0 * quiet_std, 0.5 * quiet_mean))


# bits of the scaled square root in _sqrt_of_ratio: enough that rounding it
# to odd and then to a float rounds correctly
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for integers num >= 0 and den > 0, correctly rounded."""
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num  # round to odd: a sticky bit for the remainder
    return float(root << q) if q >= 0 else root / (1 << -q)


def _stdev_from_sums(n: int, total: int, total_sq: int, scale: int = 1) -> float:
    """Sample standard deviation of n >= 2 numbers X_i / scale from the exact
    integer sums of X_i and X_i**2: sqrt((n*sum_sq - sum**2) / (n*(n-1))) / scale,
    correctly rounded, so equal to statistics.stdev of the numbers."""
    return _sqrt_of_ratio(n * total_sq - total * total, n * (n - 1) * scale * scale)


def _stdev(values: list[float]) -> float:
    """statistics.stdev of n >= 2 ints or floats, in integer arithmetic."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)  # a power of two: every denominator divides it
    xs = [num * (scale // den) for num, den in ratios]
    return _stdev_from_sums(len(xs), sum(xs), sum(map(mul, xs, xs)), scale)


def _window_statistic(latencies: list[int], rule: DecisionRule) -> float:
    if rule is DecisionRule.MEAN:
        return math.fsum(latencies) / len(latencies)  # statistics.fmean
    if len(latencies) < 2:
        return 0.0
    return _stdev_from_sums(len(latencies), sum(latencies), sum(map(mul, latencies, latencies)))


def _window_stdevs(ts: np.ndarray, lat: np.ndarray, ts_ns: int) -> list[float]:
    """The STDDEV statistic of each window with >= 2 samples, on the grid of
    width ts_ns anchored at the first sample, in window order."""
    window = (ts - ts[0]) // ts_ns
    starts = np.flatnonzero(np.diff(window, prepend=-1))
    counts = np.diff(starts, append=len(ts))
    if int(lat.max()) ** 2 * int(counts.max()) > np.iinfo(np.int64).max:
        lat = lat.astype(object)  # sums of squares would overflow int64
    total = np.add.reduceat(lat, starts).tolist()
    total_sq = np.add.reduceat(lat * lat, starts).tolist()
    return [
        _stdev_from_sums(n, s1, s2)
        for n, s1, s2 in zip(counts.tolist(), total, total_sq)
        if n >= 2
    ]


@dataclass
class ThresholdState:
    """Decision threshold plus the rolling evidence used to refresh it."""

    theta_ns: int
    quiet_mean_ns: float
    quiet_std_ns: float
    decision_rule: DecisionRule = DecisionRule.MEAN
    update_period: int = 64
    provenance: str = "manual"
    min_quiet_cluster: int = 8
    _window: deque = field(default_factory=deque, repr=False)
    _since_update: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.update_period < 1:
            raise ValueError("update_period must be >= 1")
        self._window = deque(self._window, maxlen=self.update_period)

    def observe(self, statistic: float, symbol_index: int) -> None:
        """Feed one symbol statistic; refresh theta every update_period.

        The refresh uses only the quiet cluster (statistics at or below the
        current theta); with no quiet evidence in the window the threshold is
        left untouched rather than dragged toward the loud mode.
        """
        self._window.append(statistic)
        self._since_update += 1
        if self._since_update < self.update_period:
            return
        self._since_update = 0
        quiet = [s for s in self._window if s <= self.theta_ns]
        if len(quiet) < self.min_quiet_cluster:
            return
        mean = statistics.fmean(quiet)
        std = _stdev(quiet) if len(quiet) >= 2 else 0.0
        self.theta_ns = _theta_from(mean, std)
        self.quiet_mean_ns = mean
        self.quiet_std_ns = std
        self.provenance = f"adaptive@symbol{symbol_index}"


def calibrate(quiet_trace: LatencyTrace, cfg: ChannelConfig) -> ThresholdState:
    """Derive the decision threshold from a trace of quiet traffic.

    MEAN rule: statistics over the non-warm-up sample latencies directly.
    STDDEV rule: the decision statistic is a per-symbol-window standard
    deviation, so calibration computes those window statistics first and
    applies the same formula to them.
    """
    warmup = quiet_trace.meta.warmup_samples
    ts = quiet_trace.timestamps_ns[warmup:]
    lat = quiet_trace.latencies_ns[warmup:]
    if cfg.decision_rule is DecisionRule.MEAN:
        if len(lat) < MIN_CALIBRATION_SAMPLES:
            raise CalibrationError(
                f"need >= {MIN_CALIBRATION_SAMPLES} non-warm-up samples, got {len(lat)}"
            )
        values = lat.tolist()
    else:
        if not len(lat):
            raise CalibrationError("empty quiet trace")
        values = _window_stdevs(ts, lat, cfg.ts_ns)
        if len(values) < MIN_CALIBRATION_SAMPLES:
            raise CalibrationError(
                f"need >= {MIN_CALIBRATION_SAMPLES} quiet symbol windows with >= 2 samples, "
                f"got {len(values)}"
            )
    mean = statistics.fmean(values)
    std = _stdev(values) if len(values) >= 2 else 0.0
    state = ThresholdState(
        theta_ns=_theta_from(mean, std),
        quiet_mean_ns=mean,
        quiet_std_ns=std,
        decision_rule=cfg.decision_rule,
        provenance=f"calibrated(rule={cfg.decision_rule.value},n={len(values)})",
    )
    return state


def _decision_stream(source, cfg: ChannelConfig, state: ThresholdState, start_index: int = 0):
    """Yield SymbolDecisions from a sample source until it is exhausted."""
    index = start_index
    probe_for, ts_us, rule = source.probe_for, cfg.ts_us, cfg.decision_rule
    while True:
        try:
            trace = probe_for(ts_us)
        except SourceExhausted:
            return
        latencies = trace.latencies()
        stat = _window_statistic(latencies, rule)
        bit = 1 if stat > state.theta_ns else 0
        state.observe(stat, index)
        yield SymbolDecision(index=index, bit=bit, statistic=stat, n_samples=len(latencies))
        index += 1


def receive_symbols(source, cfg: ChannelConfig, state: ThresholdState, n_symbols: int) -> list[SymbolDecision]:
    """Demodulate up to n_symbols from the source (fewer if it runs dry).

    The source contract is probe_for(duration_us) -> LatencyTrace; both the
    live probe handle and the simulator/trace replays satisfy it.
    """
    if n_symbols <= 0:
        raise ValueError("n_symbols must be positive")
    out = []
    for decision in _decision_stream(source, cfg, state):
        out.append(decision)
        if len(out) >= n_symbols:
            break
    return out


def receive_frame(
    source,
    cfg: ChannelConfig,
    state: ThresholdState,
    *,
    max_symbols: int | None = None,
    max_mismatches: int = 0,
) -> BitStream | None:
    """Scan the decision stream for a frame header, then read its payload.

    Returns the payload bits, or None when no header (or only a truncated
    payload) appears within max_symbols (default 4 frame lengths).
    """
    if max_symbols is None:
        max_symbols = 4 * cfg.frame_len
    elif max_symbols < 1:
        raise ValueError("max_symbols must be positive")
    if max_mismatches < 0:
        raise ValueError("max_mismatches must be nonnegative")
    header = bytes(cfg.header)
    h = len(header)
    window: deque = deque(maxlen=h)
    payload: list[int] = []
    collecting = False
    consumed = 0
    for decision in _decision_stream(source, cfg, state):
        consumed += 1
        if collecting:
            payload.append(decision.bit)
            if len(payload) == cfg.payload_len:
                return BitStream(payload)
        else:
            window.append(decision.bit)
            if len(window) == h:
                mismatches = sum(a != b for a, b in zip(window, header))
                if mismatches <= max_mismatches:
                    collecting = True
            if not collecting and consumed >= max_symbols:
                return None
    return None


@dataclass(frozen=True)
class SendReport:
    """What the sender actually did, bit by bit."""

    bits: BitStream
    ts_us: int
    fsyncs_per_bit: tuple[int, ...]

    @property
    def total_fsyncs(self) -> int:
        return sum(self.fsyncs_per_bit)


def send_bits(bits: BitStream, cfg: ChannelConfig, endpoint) -> SendReport:
    """Drive the sender endpoint: hammer fsyncs for '1', idle for '0'.

    The endpoint contract is busy_fsync_for(duration_us) -> count and
    idle_for(duration_us); a real probe handle transmits on hardware, a
    ScheduleBuilder records the equivalent simulator schedule.
    """
    if len(bits) == 0:
        raise ValueError("bits must not be empty")
    counts = []
    for bit in bits:
        if bit:
            counts.append(endpoint.busy_fsync_for(cfg.ts_us))
        else:
            endpoint.idle_for(cfg.ts_us)
            counts.append(0)
    return SendReport(bits=bits, ts_us=cfg.ts_us, fsyncs_per_bit=tuple(counts))


class ScheduleBuilder:
    """Sender endpoint that records a simulator schedule instead of syscalls.

    Each busy/idle call appends one symbol slot; the busy fsync count is the
    nominal number of standalone-cost fsyncs fitting the slot.
    """

    def __init__(self, ts_us: int, model=None):
        from .simchan import PROBE_OVERHEAD_NS

        if ts_us <= 0:
            raise ValueError("ts_us must be positive")
        self.ts_us = ts_us
        self._bits: list[int] = []
        if model is not None:
            cycle = round(model.standalone.mean_ns) + PROBE_OVERHEAD_NS
        else:
            cycle = ts_us * 1000
        self._per_slot = max(1, (ts_us * 1000) // cycle)

    def busy_fsync_for(self, duration_us: float) -> int:
        self._bits.append(1)
        return self._per_slot

    def idle_for(self, duration_us: float) -> None:
        self._bits.append(0)

    @property
    def bits(self) -> BitStream:
        return BitStream(self._bits)

    def schedule(self):
        from .simchan import SenderSchedule

        return SenderSchedule(self.bits, self.ts_us)
