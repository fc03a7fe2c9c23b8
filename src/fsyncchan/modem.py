"""On-off keying over fsync latency: calibration, symbol decisions, framing.

Sender side: a '1' is transmitted by hammering mutation+fsync for one symbol
duration, a '0' by staying idle.  Receiver side: probe continuously, bin the
samples into symbol windows, reduce each window to a statistic (mean latency,
or standard deviation for channels where contention shows up as variance
instead of a mean shift), and compare against a threshold calibrated on quiet
traffic:

    theta = quiet_mean + max(3 * quiet_std, 0.5 * quiet_mean)

The threshold is re-derived every 64 symbols from the quiet mode of the
recent window statistics, so a long run of '1' symbols does not drag
it upward.  One frame loop, receive_frames, finds each frame's header by a
sliding mismatch count against core.DEFAULT_HEADER and reads its payload.

One decision core serves every source.  A WindowGrid (trace replay, the
simulated channel, the live probe) lets it look ahead at a chunk of up to
_CHUNK windows without consuming them: the window statistics of the chunk
come from exact prefix sums, each block of bits up to a threshold refresh
is one float64 array comparison, and the grid then commits exactly the
windows the caller used, so a frame search consumes what a window-at-a-time
receiver would; the quiet statistics are filtered as they arrive.  A source
with only probe_for(duration_us) (the benchmark's traced proxy) feeds the
same core the windows it probes, and is asked only for windows it consumes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import DEFAULT_HEADER, BitStream, ChannelConfig, DecisionRule, LatencyTrace, TraceMeta

__all__ = [
    "CalibrationError",
    "SourceExhausted",
    "SymbolDecision",
    "ThresholdState",
    "calibrate",
    "receive_symbols",
    "receive_frame",
    "receive_frames",
    "search_window",
    "send_bits",
    "ScheduleBuilder",
    "TraceSource",
    "WindowGrid",
    "MIN_CALIBRATION_SAMPLES",
]

MIN_CALIBRATION_SAMPLES = 64
_UPDATE_PERIOD = 64  # symbols between threshold refreshes
_MIN_QUIET_CLUSTER = 8  # the fewest quiet statistics a refresh fits


class CalibrationError(ValueError):
    """Quiet trace unusable for threshold calibration."""


class SourceExhausted(Exception):
    """A replayed sample source ran out of samples."""


class WindowGrid:
    """Sample source that bins a stream of samples on an absolute window grid.

    The stream arrives as blocks of (timestamps, latencies) int64 columns and
    is first read by the first look-ahead.  The grid is anchored at the first
    sample's timestamp, so consecutive windows of one width tile time without
    drift.  A window with no arriving sample inherits the sample still in
    flight across it (the last one consumed before it); once the stream is
    spent, there are no more windows.

    look_ahead(duration_us, n) returns the bounds of the next n windows
    without consuming them, and commit(k) then consumes the next k of them:
    the decision core reads whole chunks of windows this way.  probe_for is the
    one-window case, for callers that want each window as a trace.
    """

    def __init__(self, blocks: Iterable[tuple[np.ndarray, np.ndarray]], meta: TraceMeta):
        self._blocks = iter(blocks)
        self._meta = meta
        self._ts = self._lat = np.zeros(0, dtype=np.int64)
        self._ts_view = memoryview(self._ts)  # the timestamps as Python ints, for bisect
        self._i = 0  # index of the pending sample (the first unconsumed one) in the columns
        self._anchor: int | None = None  # end of the last consumed window
        self._ahead: tuple = (0, 0, ())  # the last look-ahead: anchor, width, window ends

    def _extend(self) -> bool:
        """Append the next nonempty block to the columns, from the last
        consumed sample on (an empty window may still inherit it); False once
        the stream is spent."""
        for ts, lat in self._blocks:
            if len(ts):
                break
        else:
            return False
        keep = max(self._i - 1, 0)
        if keep < len(self._ts):
            ts = np.concatenate((self._ts[keep:], ts))
            lat = np.concatenate((self._lat[keep:], lat))
        ts.setflags(write=False)
        lat.setflags(write=False)
        self._ts, self._lat, self._ts_view, self._i = ts, lat, memoryview(ts), self._i - keep
        return True

    def look_ahead(self, duration_us: float, n: int):
        """The next n windows of duration_us, not yet consumed: (timestamps,
        latencies, lo, hi), window k being rows lo[k]:hi[k] of the two
        column views (lo and hi are sequences of ints).  Fewer windows once
        the stream is spent, none at its end.  Reads the stream until it
        holds a sample past the last window."""
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        width = round(duration_us * 1000)
        if width == 0:
            raise ValueError(f"duration_us={duration_us} rounds to a zero-width window")
        if n < 1:
            raise ValueError("n must be positive")
        if self._i == len(self._ts_view) and not self._extend():
            return _NO_WINDOWS
        anchor = self._anchor if self._anchor is not None else self._ts_view[self._i]
        last = anchor + n * width
        while self._ts_view[-1] < last and self._extend():
            pass
        i, ts, lat = self._i, self._ts, self._lat
        # probe_for on a grid (tests, the benchmark's traced proxy) and the
        # rare one-window chunk: a bisection beats the numpy calls below
        # (TraceSource.probe_for over a 50 us trace: 3.4 us a window, 14-16
        # without, on a 2-core VM)
        if n == 1:
            j = bisect_left(self._ts_view, last, i)
            self._ahead = (anchor, width, (j,))
            lo = i if j > i else i - 1  # the first window ever holds the first sample
            return ts[lo:j], lat[lo:j], [0], [j - lo]
        hi = np.searchsorted(ts, np.arange(anchor + width, last + 1, width, dtype=np.int64))
        starts = np.concatenate(([i], hi[:-1]))  # each window's pending sample
        m = int(np.searchsorted(starts, len(ts)))  # windows whose pending sample exists
        hi = hi[:m]
        lo = starts[:m] - (hi == starts[:m])
        self._ahead = (anchor, width, hi)
        base, end = int(lo[0]), int(hi[-1])
        return ts[base:end], lat[base:end], lo - base, hi - base

    def commit(self, k: int) -> None:
        """Consume the next k windows of the last look-ahead."""
        if k:
            anchor, width, hi = self._ahead
            self._i = int(hi[k - 1])
            self._anchor = anchor + k * width
            self._ahead = (self._anchor, width, hi[k:])

    def probe_for(self, duration_us: float) -> LatencyTrace:
        """Consume the next window and return its samples."""
        ts, lat, lo, _ = self.look_ahead(duration_us, 1)
        if not len(lo):
            raise SourceExhausted()
        self.commit(1)
        return LatencyTrace._view(ts, lat, self._meta)


_EMPTY_COLUMN = np.zeros(0, dtype=np.int64)
_EMPTY_COLUMN.setflags(write=False)
_NO_WINDOWS = (_EMPTY_COLUMN, _EMPTY_COLUMN, [], [])


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


def _fit(values: Sequence[float]) -> tuple[int, float, float]:
    """The threshold fitted on quiet statistics (at least one), with their
    mean and sample standard deviation: (theta, mean, std).  The standard
    deviation is the corrected two-pass one (Chan, Golub & LeVeque 1983)
    over deviations from the float mean, summed with math.fsum: within 2
    ulps of statistics.stdev, and 0.0 for one value."""
    n = len(values)
    mean = math.fsum(values) / n  # statistics.fmean
    std = 0.0
    if n >= 2:
        # the deviations scaled by 2**-e (a double: e >= -1023) near the
        # largest of them, found by monotone rounding from the extreme values;
        # squares of deviations below 1e-154 no longer underflow
        e = max(math.frexp(max(max(values) - mean, mean - min(values)))[1], -1023)
        scale = math.ldexp(1.0, -e)
        d = [(v - mean) * scale for v in values]
        var = (math.fsum([x * x for x in d]) - math.fsum(d) ** 2 / n) / (n - 1)
        std = math.ldexp(math.sqrt(var), e)
    return round(mean + max(3.0 * std, 0.5 * mean)), mean, std


_INT64_MAX = int(np.iinfo(np.int64).max)


def _window_statistics(lat: np.ndarray, lo, hi, rule: DecisionRule) -> np.ndarray:
    """The decision statistic of each window lat[lo[k]:hi[k]]; the windows
    ascend and span lat (lo[0] == 0, hi[-1] == len(lat)).  A window of n
    samples has the sums S1 and S2 of its samples and of their squares,
    exact from prefix sums of the column (in Python ints where int64 could
    overflow).  MEAN is float(S1) / n, which is statistics.fmean.  STDDEV is
    sqrt(float(n*S2 - S1**2) / float(n*(n-1))) in float64, 0.0 for one
    sample: within 2 ulps of statistics.stdev.  A float64 array."""
    if not len(lat):
        return np.zeros(0)
    lo, hi = np.asarray(lo), np.asarray(hi)
    counts = hi - lo
    mean = rule is DecisionRule.MEAN
    peak = int(lat.max())
    # the largest integers formed: the prefix sums, and for STDDEV each window's n*S2
    widest = peak * len(lat) if mean else peak**2 * max(len(lat), int(counts.max()) ** 2)
    if widest > _INT64_MAX:
        lat = lat.astype(object)
    s1 = np.concatenate(([0], np.cumsum(lat)))
    sums = s1[hi] - s1[lo]
    if mean:
        return sums.astype(np.float64) / counts
    s2 = np.concatenate(([0], np.cumsum(lat * lat)))
    num = counts * (s2[hi] - s2[lo]) - sums * sums
    return np.sqrt(num.astype(np.float64) / np.maximum(counts * (counts - 1), 1))


def _float_at_or_below(theta: int) -> float:
    """The largest float at or below the integer theta: a float is above
    theta exactly when it is above this one, past 2**53 too."""
    f = float(theta)
    return f if f <= theta else math.nextafter(f, -math.inf)


def _window_stdevs(ts: np.ndarray, lat: np.ndarray, ts_ns: int) -> list[float]:
    """The STDDEV statistic of each window with >= 2 samples, on the grid of
    width ts_ns anchored at the first sample, in window order.  It visits only
    the windows that hold samples; a WindowGrid look-ahead walks every window
    of the span, and two samples 10**15 ns apart at 50 us would ask it for
    2 * 10**10 windows."""
    window = (ts - ts[0]) // ts_ns
    starts = np.flatnonzero(np.diff(window, prepend=-1))
    ends = np.append(starts[1:], len(ts))
    stats = _window_statistics(lat, starts, ends, DecisionRule.STDDEV)
    return stats[ends - starts >= 2].tolist()


@dataclass
class ThresholdState:
    """Decision threshold plus the count and quiet statistics seen since its last refresh."""

    theta_ns: int
    quiet_mean_ns: float
    quiet_std_ns: float
    provenance: str = "manual"
    _seen: int = field(default=0, init=False, repr=False)
    _quiet: list = field(default_factory=list, init=False, repr=False)

    @property
    def until_refresh(self) -> int:
        """Symbols left to observe before theta next refreshes."""
        return _UPDATE_PERIOD - self._seen

    def observe_block(self, statistics_: Sequence[float], symbol_index: int) -> None:
        """Feed the statistics of consecutive symbols, the last one numbered
        symbol_index; theta refreshes when they complete an update period, so
        a block may not run past the next refresh.

        The refresh uses only the quiet cluster (statistics at or below the
        current theta, which holds until then, so they are kept on arrival);
        with no quiet evidence the threshold is left untouched rather than
        dragged toward the loud mode.
        """
        if len(statistics_) > self.until_refresh:
            raise ValueError("a block of statistics may not run past the next refresh")
        if isinstance(statistics_, np.ndarray) and statistics_.dtype == np.float64:
            self._quiet += statistics_[statistics_ <= _float_at_or_below(self.theta_ns)].tolist()
        else:
            self._quiet += [s for s in statistics_ if s <= self.theta_ns]
        self._seen += len(statistics_)
        if self._seen < _UPDATE_PERIOD:
            return
        quiet, self._quiet, self._seen = self._quiet, [], 0
        if len(quiet) < _MIN_QUIET_CLUSTER:
            return
        self.theta_ns, self.quiet_mean_ns, self.quiet_std_ns = _fit(quiet)
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
    theta, mean, std = _fit(values)
    return ThresholdState(
        theta_ns=theta,
        quiet_mean_ns=mean,
        quiet_std_ns=std,
        provenance=f"calibrated(rule={cfg.decision_rule.value},n={len(values)})",
    )


# windows the decision core looks ahead at a time: bounds the memory of a pass
_CHUNK = 1024


class _ProbeWindows:
    """look_ahead/commit over a source that has only probe_for (perfbench's
    spans.TracedSource, until it passes look_ahead and commit through): a
    look-ahead probes its windows, which are consumed at once, so the
    decision core looks ahead only at windows it will consume."""

    def __init__(self, source):
        self._probe_for = source.probe_for

    def look_ahead(self, duration_us: float, n: int):
        traces = []
        try:
            for _ in range(n):
                traces.append(self._probe_for(duration_us))
        except SourceExhausted:
            if not traces:
                return _NO_WINDOWS
        hi = list(accumulate(map(len, traces)))
        ts = np.concatenate([t.timestamps_ns for t in traces])
        lat = np.concatenate([t.latencies_ns for t in traces])
        return ts, lat, [0, *hi[:-1]], hi

    def commit(self, k: int) -> None:
        pass


class _Decisions:
    """The decision core: decides a source's symbol windows in blocks that
    share one threshold, from chunks of window statistics (a float64 array).

    decide() returns the bits of the next block, which ends at the state's
    next refresh, with one comparison; take(k) consumes its first k windows:
    the source's grid commits them and the state observes their statistics.
    Symbols are numbered from 0 per instance.
    """

    __slots__ = ("_look_ahead", "_commit", "_ts_us", "_rule", "_state", "_stats", "_lo", "_hi",
                 "_done", "index")

    def __init__(self, source, cfg: ChannelConfig, state: ThresholdState):
        grid = source if hasattr(source, "look_ahead") else _ProbeWindows(source)
        self._look_ahead, self._commit = grid.look_ahead, grid.commit
        self._ts_us = cfg.ts_us
        self._rule = cfg.decision_rule
        self._state = state
        self._stats = np.zeros(0)  # the statistics of the looked-ahead chunk's windows
        self._lo = self._hi = []  # and their bounds
        self._done = 0  # windows of the chunk consumed
        self.index = 0  # symbols consumed

    def decide(self, limit: int, sure: int) -> list[bool]:
        """Bits of the next block of at most limit windows, not yet consumed;
        empty once the source is spent.  The caller will consume at least
        `sure` more windows, which is what a new chunk reads: a probe_for
        source (the benchmark's traced proxy) consumes the windows it probes."""
        a, stats = self._done, self._stats
        if a == len(stats):
            _, lat, self._lo, self._hi = self._look_ahead(self._ts_us, min(sure, _CHUNK))
            stats = self._stats = _window_statistics(lat, self._lo, self._hi, self._rule)
            self._done = a = 0
        state = self._state
        block = stats[a : a + min(limit, state.until_refresh)]
        return (block > _float_at_or_below(state.theta_ns)).tolist()

    def evidence(self, k: int) -> tuple[list[float], list[int]]:
        """Statistics and sample counts of the first k windows of the block."""
        a, b = self._done, self._done + k
        return self._stats[a:b].tolist(), np.subtract(self._hi[a:b], self._lo[a:b]).tolist()

    def take(self, k: int) -> None:
        """Consume the first k windows of the last decided block."""
        a = self._done
        self._done = a + k
        self.index += k
        self._commit(k)
        self._state.observe_block(self._stats[a : a + k], self.index - 1)


def receive_symbols(source, cfg: ChannelConfig, state: ThresholdState, n_symbols: int) -> list[SymbolDecision]:
    """Demodulate up to n_symbols from the source (fewer if it runs dry).

    The source is a WindowGrid (TraceSource, SimSource, the live probe's),
    whose windows are read a chunk at a time, or anything with
    probe_for(duration_us) -> LatencyTrace, such as the benchmark's traced
    proxy, probed one window per call.
    """
    if n_symbols <= 0:
        raise ValueError("n_symbols must be positive")
    core = _Decisions(source, cfg, state)
    out: list[SymbolDecision] = []
    while core.index < n_symbols:
        left = n_symbols - core.index
        bits = core.decide(left, left)
        if not bits:
            break
        stats, counts = core.evidence(len(bits))
        first = core.index
        core.take(len(bits))
        out.extend(map(SymbolDecision, range(first, core.index), map(int, bits), stats, counts))
    return out


_HEADER_WORD = int(DEFAULT_HEADER.to_text(), 2)  # DEFAULT_HEADER, its first bit highest


def search_window(cfg: ChannelConfig, max_symbols: int | None = None) -> int:
    """Symbols receive_frames searches for a header: max_symbols, by default 4 frame lengths."""
    if max_symbols is not None and max_symbols < 1:
        raise ValueError("max_symbols must be positive")
    return 4 * cfg.frame_len if max_symbols is None else max_symbols


def receive_frames(
    source, cfg: ChannelConfig, state: ThresholdState, n_frames: int, *,
    max_symbols: int | None = None, max_mismatches: int = 0
) -> Iterator[BitStream | None]:
    """Yield the payload bits of n_frames back-to-back frames, or None for a
    frame with no header (or only a truncated payload) in max_symbols.

    The header search is a sliding mismatch count of the last header-length
    bits against DEFAULT_HEADER.  A frame consumes the windows up to its
    payload's end, or exactly max_symbols when no header completes in them,
    and numbers its symbols from 0; the source is read only inside next().
    """
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    if max_mismatches < 0:
        raise ValueError("max_mismatches must be nonnegative")
    max_symbols = search_window(cfg, max_symbols)
    h = len(DEFAULT_HEADER)
    mask = (1 << h) - 1
    need = cfg.payload_len
    for _ in range(n_frames):
        core = _Decisions(source, cfg, state)
        window, payload = 0, None  # the last h bits, the latest lowest; the payload once found
        while payload is None or len(payload) < need:
            left = max_symbols - core.index if payload is None else need - len(payload)
            # the least this frame consumes: a header completing at the first
            # symbol where one can, and its payload; or the rest of the budget
            bits = left and core.decide(left, min(left, max(h - core.index, 1) + need))
            if not bits:
                break
            used = len(bits)
            if payload is not None:
                payload += bits
            else:
                for n, bit in enumerate(bits, 1):
                    window = (window << 1 | bit) & mask
                    if (window ^ _HEADER_WORD).bit_count() <= max_mismatches and core.index + n >= h:
                        payload = bits[n : n + need]
                        used = n + len(payload)
                        break
            core.take(used)
        yield None if payload is None or len(payload) < need else BitStream(payload)


def receive_frame(source, cfg: ChannelConfig, state: ThresholdState, **kw) -> BitStream | None:
    """receive_frames' one-frame case, with its keywords: the payload bits, or None."""
    return next(receive_frames(source, cfg, state, 1, **kw))


def send_bits(bits: BitStream, cfg: ChannelConfig, endpoint) -> int:
    """Drive the sender endpoint: hammer fsyncs for '1', idle for '0'.

    The endpoint contract is busy_fsync_for(duration_us) -> count and
    idle_for(duration_us); a real probe handle transmits on hardware, a
    ScheduleBuilder records the equivalent simulator schedule.  Returns the
    endpoint's fsync count, the sum of its busy_fsync_for results.
    """
    if len(bits) == 0:
        raise ValueError("bits must not be empty")
    fsyncs = 0
    for bit in bits:
        if bit:
            fsyncs += endpoint.busy_fsync_for(cfg.ts_us)
        else:
            endpoint.idle_for(cfg.ts_us)
    return fsyncs


class ScheduleBuilder:
    """Sender endpoint that records a simulator schedule instead of syscalls.

    Each busy/idle call appends one symbol slot; the busy fsync count is the
    nominal number of standalone-cost fsyncs fitting the slot.
    """

    def __init__(self, ts_us: int, model):
        from .simchan import PROBE_OVERHEAD_NS

        if ts_us <= 0:
            raise ValueError("ts_us must be positive")
        self.ts_us = ts_us
        self._bits: list[int] = []
        cycle = round(model.standalone.mean_ns) + PROBE_OVERHEAD_NS
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
