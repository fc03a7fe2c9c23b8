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

import statistics
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .core import BitStream, ChannelConfig, DecisionRule, LatencySample, LatencyTrace, TraceMeta

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

    The grid is anchored at the first sample's timestamp, so consecutive
    probe_for(duration_us) windows tile time without drift.  A window with no
    arriving sample inherits the sample still in flight across it (the last
    one consumed); once the stream is spent, probe_for raises
    SourceExhausted.
    """

    def __init__(self, samples: Iterable[LatencySample], meta: TraceMeta):
        self._samples = iter(samples)
        self._meta = meta
        self._pending = next(self._samples, None)
        self._anchor = self._pending.timestamp_ns if self._pending is not None else 0
        self._last_consumed: LatencySample | None = None

    def probe_for(self, duration_us: float) -> LatencyTrace:
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        pending = self._pending
        if pending is None:
            raise SourceExhausted()
        window_end = self._anchor + round(duration_us * 1000)
        window = []
        while pending is not None and pending.timestamp_ns < window_end:
            window.append(pending)
            pending = next(self._samples, None)
        self._pending = pending
        self._anchor = window_end
        if window:
            self._last_consumed = window[-1]
        else:
            window = [self._last_consumed if self._last_consumed is not None else pending]
        return LatencyTrace(window, self._meta)


class TraceSource(WindowGrid):
    """Replay a recorded trace as a sample source on the window grid."""

    def __init__(self, trace: LatencyTrace):
        super().__init__(trace.samples, trace.meta)


@dataclass(frozen=True)
class SymbolDecision:
    """One demodulated symbol: the thresholded bit plus its evidence."""

    index: int
    bit: int
    statistic: float
    n_samples: int


def _theta_from(quiet_mean: float, quiet_std: float) -> int:
    return round(quiet_mean + max(3.0 * quiet_std, 0.5 * quiet_mean))


def _window_statistic(latencies: list[int], rule: DecisionRule) -> float:
    if rule is DecisionRule.MEAN:
        return statistics.fmean(latencies)
    return statistics.stdev(latencies) if len(latencies) >= 2 else 0.0


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
        std = statistics.stdev(quiet) if len(quiet) >= 2 else 0.0
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
    samples = quiet_trace.non_warmup()
    if cfg.decision_rule is DecisionRule.MEAN:
        if len(samples) < MIN_CALIBRATION_SAMPLES:
            raise CalibrationError(
                f"need >= {MIN_CALIBRATION_SAMPLES} non-warm-up samples, got {len(samples)}"
            )
        values = [s.latency_ns for s in samples]
    else:
        if not samples:
            raise CalibrationError("empty quiet trace")
        ts_ns = cfg.ts_ns
        origin = samples[0].timestamp_ns
        windows: dict[int, list[int]] = {}
        for s in samples:
            windows.setdefault((s.timestamp_ns - origin) // ts_ns, []).append(s.latency_ns)
        values = [
            statistics.stdev(lats) for lats in windows.values() if len(lats) >= 2
        ]
        if len(values) < MIN_CALIBRATION_SAMPLES:
            raise CalibrationError(
                f"need >= {MIN_CALIBRATION_SAMPLES} quiet symbol windows with >= 2 samples, "
                f"got {len(values)}"
            )
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) >= 2 else 0.0
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
    while True:
        try:
            trace = source.probe_for(cfg.ts_us)
        except SourceExhausted:
            return
        latencies = trace.latencies()
        stat = _window_statistic(latencies, cfg.decision_rule)
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

    def __init__(self, ts_us: int, model=None, overhead_ns: int = 2000):
        if ts_us <= 0:
            raise ValueError("ts_us must be positive")
        self.ts_us = ts_us
        self._bits: list[int] = []
        if model is not None:
            cycle = round(model.standalone.mean_ns) + overhead_ns
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
