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
numpy mismatch count against core.DEFAULT_HEADER and reads its payload.

One decision core serves every source.  A WindowGrid (trace replay, the
simulated channel, the live probe) lets it look ahead at a chunk of up to
_CHUNK windows without consuming them: the window statistics of the chunk
come from exact prefix sums, and ThresholdState, the one place a statistic
meets theta, walks the chunk's theta trajectory once: a float64 array
comparison per refresh period, each refit kept.  Where a bound on the quiet
std shows the 0.5 * mean floor sets theta, the exact std waits until the
state stops there.  The grid then commits exactly the windows the caller
used, so a frame search consumes what a window-at-a-time receiver would, and
the state moves to the trajectory's point after them.  A source with only
probe_for(duration_us) (the benchmark's traced proxy) feeds the same core
the windows it probes, and is asked only for windows it consumes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    "quiet_duration_ns",
]

MIN_CALIBRATION_SAMPLES = 64
_UPDATE_PERIOD = 64  # symbols between threshold refreshes
_MIN_QUIET_CLUSTER = 8  # the fewest quiet statistics a refresh fits
_INT64_MAX = int(np.iinfo(np.int64).max)


def quiet_duration_ns(cfg: ChannelConfig) -> int:
    """Quiet traffic a fit under cfg's rule needs: 5 ms, and under STDDEV 70
    symbols, so that MIN_CALIBRATION_SAMPLES windows hold 2 or more samples."""
    return max(5_000_000, 70 * cfg.ts_ns if cfg.decision_rule is DecisionRule.STDDEV else 0)


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
        if not 0 < duration_us < math.inf:  # NaN fails too
            raise ValueError(f"duration_us must be positive and finite, got {duration_us!r}")
        width = round(duration_us * 1000)
        if width == 0:
            raise ValueError(f"duration_us={duration_us} rounds to a zero-width window")
        if width > _INT64_MAX:
            raise ValueError(f"duration_us={duration_us} is wider than INT64_MAX ns")
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
        if last < _INT64_MAX:
            ends = anchor + width * np.arange(1, n + 1, dtype=np.int64)
        else:  # capped: no sample starts at INT64_MAX, so that end holds every remaining sample
            ends = [*range(anchor + width, _INT64_MAX, width), _INT64_MAX]
        hi = np.searchsorted(ts, ends)
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


def _refit(quiet: list, squares) -> tuple[int, float, float | None]:
    """_fit(quiet), its std None where a bound on the variance shows the
    0.5 * mean floor sets theta: the bound, from the sum and the sum of
    squares (a dot product) each padded by 1e-10 of itself, far above the
    rounding of 64 terms, and by 1e-300 for underflow, under (mean / 6)**2."""
    n = len(quiet)
    total = math.fsum(quiet)
    mean = total / n
    bound = squares * (1 + 1e-10) + 1e-300 - mean * total * (1 - 1e-10)
    if mean > 0 and 36 * bound < (n - 1) * mean * mean:
        return round(mean + 0.5 * mean), mean, None
    return _fit(quiet)


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


def _window_stdevs(ts: np.ndarray, lat: np.ndarray, ts_ns: int) -> list[float]:
    """The STDDEV statistic of each window with >= 2 samples, on the grid of
    width ts_ns anchored at the first sample, in window order.  It visits only
    the windows that hold samples; a WindowGrid look-ahead walks every window
    of the span, and two samples 10**15 ns apart at 50 us would ask it for
    2 * 10**10 windows."""
    if not len(ts):
        return []
    window = (ts - ts[0]) // ts_ns
    starts = np.flatnonzero(np.diff(window, prepend=-1))
    ends = np.append(starts[1:], len(ts))
    stats = _window_statistics(lat, starts, ends, DecisionRule.STDDEV)
    return stats[ends - starts >= 2].tolist()


# statistics' theta trajectory from a state with seen and quiet since its last
# refresh: their bits and refits, (end, theta, mean, std or None, quiet) each
_Walk = namedtuple("_Walk", "statistics bits seen quiet refits")


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

    @staticmethod
    def _float_at_or_below(theta: int) -> float:
        """The largest float at or below the integer theta: a float is above
        theta exactly when it is above this one, past 2**53 too."""
        f = float(theta)
        return f if f <= theta else math.nextafter(f, -math.inf)

    def _walk(self, statistics_: np.ndarray) -> _Walk:
        """The trajectory over consecutive statistics (float64, or objects
        compared as Python numbers) from this state, which stays as it is.
        Each update period's end refits theta on the period's quiet cluster,
        statistics at or below theta, if it has _MIN_QUIET_CLUSTER of them:
        a loud period leaves theta rather than drag it toward the loud mode."""
        exact = statistics_.dtype != np.float64
        bits = np.empty(len(statistics_), dtype=bool)
        walk = _Walk(statistics_, bits, self._seen, self._quiet, [])
        theta, quiet, a, b = self.theta_ns, self._quiet, 0, self.until_refresh
        with np.errstate(over="ignore"):  # squares past the float range only miss the floor
            while a < len(statistics_):
                period = statistics_[a:b]
                loud = bits[a:b] = period > (theta if exact else self._float_at_or_below(theta))
                if b > len(statistics_):
                    break
                kept = period[~loud]
                squares = float(np.dot(kept, kept)) + sum(x * x for x in quiet)
                quiet = quiet + kept.tolist()  # a new list: the state keeps its own
                if len(quiet) >= _MIN_QUIET_CLUSTER:
                    walk.refits.append((b, *_refit(quiet, squares), quiet))
                    theta = walk.refits[-1][1]
                quiet, a, b = [], b, b + _UPDATE_PERIOD
        return walk

    def _move(self, walk: _Walk, k: int, first: int) -> None:
        """Move to walk's point after its first k statistics, the first of
        them symbol number first: its last refit at or before k, and the
        count and quiet statistics of the update period k falls in."""
        j = bisect_right(walk.refits, k, key=lambda refit: refit[0])
        if j:
            end, theta, mean, std, quiet = walk.refits[j - 1]
            self.theta_ns, self.quiet_mean_ns = theta, mean
            self.quiet_std_ns = _fit(quiet)[2] if std is None else std
            self.provenance = f"adaptive@symbol{first + end - 1}"
        opening = _UPDATE_PERIOD - walk.seen  # statistics up to the walk's first refresh
        if k < opening:
            start, self._seen, quiet = 0, walk.seen + k, walk.quiet
        else:
            start = k - (k - opening) % _UPDATE_PERIOD
            self._seen, quiet = k - start, []
        self._quiet = quiet + walk.statistics[start:k][~walk.bits[start:k]].tolist()

    def observe_block(self, statistics_: Sequence[float], symbol_index: int) -> None:
        """Feed the statistics of consecutive symbols, the last one numbered
        symbol_index: the walk over them, all committed.  Theta refreshes
        when they complete an update period, so a block may not run past
        the next refresh."""
        if len(statistics_) > self.until_refresh:
            raise ValueError("a block of statistics may not run past the next refresh")
        if not (isinstance(statistics_, np.ndarray) and statistics_.dtype == np.float64):
            statistics_ = np.array(statistics_, dtype=object)  # ints past 2**53 stay exact
        self._move(self._walk(statistics_), len(statistics_), symbol_index - len(statistics_) + 1)


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
        values, what = lat.tolist(), "non-warm-up samples"
    else:
        values, what = _window_stdevs(ts, lat, cfg.ts_ns), "quiet symbol windows with >= 2 samples"
    if len(values) < MIN_CALIBRATION_SAMPLES:
        raise CalibrationError(f"need >= {MIN_CALIBRATION_SAMPLES} {what}, got {len(values)}")
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
    """The decision core: decides a source's symbol windows a chunk at a
    time, by the state's walk over the chunk's window statistics.

    decide() returns the bits of the next block of the chunk; take(k)
    consumes its first k windows: the source's grid commits them and the
    state moves to the walk's point after them.  Symbols are numbered from
    0 per instance.
    """

    __slots__ = ("_look_ahead", "_commit", "_ts_us", "_rule", "_state", "_walk", "_lo", "_hi",
                 "_done", "index")

    def __init__(self, source, cfg: ChannelConfig, state: ThresholdState):
        grid = source if hasattr(source, "look_ahead") else _ProbeWindows(source)
        self._look_ahead, self._commit = grid.look_ahead, grid.commit
        self._ts_us = cfg.ts_us
        self._rule = cfg.decision_rule
        self._state = state
        self._walk = state._walk(np.zeros(0))  # over the looked-ahead chunk's windows
        self._lo = self._hi = []  # and their bounds
        self._done = 0  # windows of the chunk consumed
        self.index = 0  # symbols consumed

    def decide(self, limit: int, sure: int) -> np.ndarray:
        """Bits (a bool array) of at most limit windows not yet consumed, up
        to the chunk's end; empty once the source is spent.  The caller will
        consume at least `sure` more windows, which is what a new chunk reads:
        a probe_for source (the benchmark's traced proxy) consumes the windows
        it probes."""
        a, walk = self._done, self._walk
        if a == len(walk.bits):
            _, lat, self._lo, self._hi = self._look_ahead(self._ts_us, min(sure, _CHUNK))
            stats = _window_statistics(lat, self._lo, self._hi, self._rule)
            walk = self._walk = self._state._walk(stats)
            self._done = a = 0
        return walk.bits[a : a + limit]

    def evidence(self, k: int) -> tuple[list[float], list[int]]:
        """Statistics and sample counts of the first k windows of the block."""
        a, b, stats = self._done, self._done + k, self._walk.statistics
        return stats[a:b].tolist(), np.subtract(self._hi[a:b], self._lo[a:b]).tolist()

    def take(self, k: int) -> None:
        """Consume the first k windows of the last decided block."""
        a = self._done
        self._done = a + k
        self._commit(k)
        self._state._move(self._walk, a + k, self.index - a)
        self.index += k


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
        if not len(bits):
            break
        stats, counts = core.evidence(len(bits))
        first = core.index
        core.take(len(bits))
        out.extend(map(SymbolDecision, range(first, core.index), map(int, bits), stats, counts))
    return out


_HEADER = np.frombuffer(DEFAULT_HEADER, dtype=bool)


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

    The header search counts the mismatches of every header-length window
    of the bits against DEFAULT_HEADER, and takes the first within the
    budget.  A frame consumes the windows up to its payload's end, or
    exactly max_symbols when no header completes in them, and numbers its
    symbols from 0; the source is read only inside next().
    """
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    if max_mismatches < 0:
        raise ValueError("max_mismatches must be nonnegative")
    max_symbols = search_window(cfg, max_symbols)
    h = len(DEFAULT_HEADER)
    need = cfg.payload_len
    for _ in range(n_frames):
        core = _Decisions(source, cfg, state)
        # the last h - 1 bits searched; once found, the payload's blocks and their length
        tail, payload, got = _HEADER[:0], None, 0
        while payload is None or got < need:
            left = max_symbols - core.index if payload is None else need - got
            # the least this frame consumes: a header completing at the first
            # symbol where one can, and its payload; or the rest of the budget
            if not left or not len(bits := core.decide(left, min(left, max(h - core.index, 1) + need))):
                break
            used = len(bits)
            if payload is not None:
                payload.append(bits)
                got += used
            else:
                searched, n = np.concatenate((tail, bits)), h - len(tail)
                tail = searched[1 - h :]
                if n <= used:  # a whole header's length searched
                    windows = sliding_window_view(searched, h)
                    found = np.count_nonzero(windows != _HEADER, axis=1) <= max_mismatches
                    if found.any():  # consume up to the header's end
                        payload, used = [], n + int(found.argmax())
            core.take(used)
        yield BitStream(np.concatenate(payload).tobytes()) if got == need else None


def receive_frame(source, cfg: ChannelConfig, state: ThresholdState, **kw) -> BitStream | None:
    """receive_frames' one-frame case, with its keywords: the payload bits, or None."""
    return next(receive_frames(source, cfg, state, 1, **kw))


def send_bits(bits: BitStream, cfg: ChannelConfig, endpoint) -> int:
    """Transmit bits at cfg's symbol time; returns the endpoint's fsync count.

    The endpoint contract is send(bits, ts_us) -> fsyncs, and the endpoint
    runs the symbol loop, fsyncs for '1' and idle for '0': a ProbeHandle on
    hardware, on absolute deadlines; a ScheduleBuilder as a simulator schedule.
    """
    if len(bits) == 0:
        raise ValueError("bits must not be empty")
    return endpoint.send(bits, cfg.ts_us)


class ScheduleBuilder:
    """Sender endpoint that records a simulator schedule instead of syscalls.

    send keeps each BitStream whole, and bits joins them once.  The fsync
    count of a busy slot is the nominal number of standalone-cost fsyncs
    fitting it.
    """

    def __init__(self, ts_us: int, model):
        from .simchan import PROBE_OVERHEAD_NS

        if ts_us <= 0:
            raise ValueError("ts_us must be positive")
        self.ts_us = ts_us
        self._sent: list[BitStream] = []
        cycle = round(model.standalone.mean_ns) + PROBE_OVERHEAD_NS
        self._per_slot = max(1, (ts_us * 1000) // cycle)

    def send(self, bits: BitStream, ts_us: int) -> int:
        if ts_us != self.ts_us:
            raise ValueError(f"ts_us={ts_us} differs from the builder's {self.ts_us}")
        self._sent.append(bits)
        return self._per_slot * int(np.count_nonzero(np.frombuffer(bits, dtype=np.uint8)))

    @property
    def bits(self) -> BitStream:
        return BitStream(b"".join(self._sent))

    def schedule(self):
        from .simchan import SenderSchedule

        return SenderSchedule(self.bits, self.ts_us)
