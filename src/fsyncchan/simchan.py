"""Deterministic virtual-clock simulator of fsync-latency contention.

The receiver in this channel repeatedly times fsync on its own file; a sender
(or any noisy neighbor) sharing the filesystem journal stretches those
latencies while it is busy.  The simulator reproduces that coupling with a
virtual clock so the whole toolchain can be exercised reproducibly at desk
scale: given the same seed and inputs, every run yields the identical trace.

Model
-----
Probe latency is drawn from a measured (empirical) truncated Gaussian:
`standalone` when the probe runs alone, `contended` when sender activity or a
noise burst is in flight at the moment the probe's fsync arrives.  The
arrival-instant rule reflects FIFO journal commits: a probe that entered the
journal first is not delayed by work arriving later, while a probe arriving
mid-commit waits for the remainder.

Each probe advances the clock by its drawn latency plus a fixed per-probe
overhead (PROBE_OVERHEAD_NS, 2 us) covering the mutation syscall and loop
bookkeeping.

Competing activity has one type, ActivityTimeline: sorted half-open windows
in which overlapping or touching windows have merged, held as read-only int64
start and end columns plus a duration.  Every timeline is stored by one path,
as columns: a list of windows and the materialized noise bursts go through
the merge, and a SenderSchedule takes the runs of 1-bits of a bit stream,
its duration covering every bit.

The probe loop is simulated a stretch at a time.  The sender windows and
the noise bursts merge, by the function that builds every timeline, into one
sorted list of windows, whose edges cut the clock into stretches of constant
state.  The seeded RNG first materializes the noise bursts, then draws
standard Gaussian variates in order, in chunks: probe i of the stream takes
variate i, whatever its state, and each chunk, sized to the probes left
before the horizon, yields one block of probes.
Per chunk, each state's latencies plus the overhead are summed into a prefix
sum; a bisection on it counts the probes that start before the stretch
ends, and the clock jumps to the start of the first one that does not.
Most stretches are a few probes long, so the bisection looks at the next
eight probes first and at the rest of the chunk only when the stretch is
longer.  The edges end with one INT64_MAX sentinel, which no clock reaches,
so the loop needs no test for having passed the last edge.  A stretch that
outlasts a chunk continues on the next one.

A chunk of variates is drawn as a block, straight to each state's integer
latencies, equal value for value to max(LATENCY_FLOOR_NS, round(
rng.gauss(mean, std))) per variate and leaving the RNG in the same state,
spare variate included: one getrandbits call yields the Mersenne Twister
words the calls would consume, and numpy builds the uniforms and the whole
Box-Muller arithmetic from them, its own log, cos and sin included.  Those
may differ from the math module's, which random.gauss calls, in the last
bits, but only the rounded latency is an output, and it moves only when
v = mean + z * std lies within that error of a half-integer.  A rounding
guard therefore draws again, from its pair's uniforms with the math module's
log, cos and sin, every variate whose v (in either state) lies within
std * g * 2**-38 + 4 ulp(|mean| + |z| * std) of a half-integer, for g =
sqrt(-2 log(1 - u2)) the pair's radius; the guard takes g = |z| = 9, above
any radius random() allows.  The margin holds while numpy's log is within
2**-40 relative and its cos and sin within 2**-40 absolute of the math
module's, thousands of times looser than any real implementation (4 ulp is
about 2**-50).  The sine kept as the RNG's spare is always the math
module's.  So the stream stays the one the seed has always given.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Union

import numpy as np

from .core import (
    BitStream,
    ChannelConfig,
    LatencyTrace,
    TraceMeta,
    decode_frames,
    encode_frames,
    frames_to_bits,
)
from .metrics import ErrorReport, compare_bits
from .modem import WindowGrid, calibrate, quiet_duration_ns, receive_frames

__all__ = [
    "LatencyDistribution",
    "ContentionModel",
    "SAME_DISK_PRESET",
    "CROSS_DISK_PRESET",
    "default_model",
    "cross_disk_model",
    "ActivityTimeline",
    "IDLE",
    "SenderSchedule",
    "NoiseDegree",
    "NoiseProcess",
    "MAX_NOISE_BURSTS",
    "MAX_SIM_PROBES",
    "MAX_SIM_SYMBOLS",
    "SOURCE_TAIL_NS",
    "check_sim_caps",
    "check_symbol_cap",
    "PROBE_OVERHEAD_NS",
    "LATENCY_FLOOR_NS",
    "sim_receive",
    "sim_transmit",
    "SimSource",
    "calibration_trace",
    "loopback",
    "SimParams",
    "parse_sim_params",
    "load_sim_params",
]

PROBE_OVERHEAD_NS = 2000
# every latency draw is clamped to at least this many ns
LATENCY_FLOOR_NS = 1000
# largest mean or std a latency may have: draws are rint(mean + z * std) with
# |z| < 9, so every draw, and the time of every 4,096-probe block, fits int64 ns
_MAX_LATENCY_NS = 1e12


@dataclass(frozen=True)
class LatencyDistribution:
    """Gaussian latency in ns, truncated below at LATENCY_FLOOR_NS (1 us).

    Truncation is a clamp, not a redraw, so each draw consumes exactly one
    Gaussian variate, a zero std_ns included; for every preset here the floor
    sits >7 sigma below the mean, where the two schemes are indistinguishable.
    """

    mean_ns: float
    std_ns: float

    def __post_init__(self):
        for name in ("mean_ns", "std_ns"):
            value = getattr(self, name)
            if not abs(value) <= _MAX_LATENCY_NS:  # NaN fails too
                raise ValueError(f"{name} must be finite and at most 1e12 ns, got {value!r}")
        if self.mean_ns <= 0:
            raise ValueError("mean_ns must be positive")
        if self.std_ns < 0:
            raise ValueError("std_ns must be nonnegative")

    def draw(self, rng: random.Random) -> int:
        return max(LATENCY_FLOOR_NS, round(rng.gauss(self.mean_ns, self.std_ns)))


# Bundled empirical presets (ns), (standalone, contended) fsync-vs-fsync pairs:
# profiled on a single rig with both parties' files in one ext4 journal
# ("same disk") and with the probe file on a second disk whose journal still
# shares the device queue ("cross disk").  Recalibrate with `fsyncchan
# calibrate` for different hardware.  Against a cross-disk competitor that
# dirties the file first, the fsync-only probe measured 22456.78 +- 2770.05
# (ftruncate) and 24262.37 +- 4272.32 (write) contended.
#
# Rounded same-disk pair (measured 21390.42 +- 2478.57 alone, 43133.73 +-
# 2521.81 contended) used as the out-of-the-box model.
SAME_DISK_PRESET = ((21390.0, 2479.0), (43134.0, 2522.0))
CROSS_DISK_PRESET = ((21045.51, 316.97), (22253.03, 1611.29))


@dataclass(frozen=True)
class ContentionModel:
    """Latency model for one probe stream against one competitor stream."""

    standalone: LatencyDistribution
    contended: LatencyDistribution

    def __post_init__(self):
        if self.contended.mean_ns <= self.standalone.mean_ns:
            raise ValueError("contended mean must exceed standalone mean")

    @classmethod
    def empirical(cls, standalone: LatencyDistribution, contended: LatencyDistribution):
        """The constructor; kept only because perfbench/workloads.py calls it,
        so the next change to the benchmark can delete it."""
        return cls(standalone, contended)


def default_model() -> ContentionModel:
    """Same-disk fsync-vs-fsync empirical preset."""
    return ContentionModel(*(LatencyDistribution(*pair) for pair in SAME_DISK_PRESET))


def cross_disk_model() -> ContentionModel:
    """Cross-disk preset: contention survives mostly as variance, not mean."""
    return ContentionModel(*(LatencyDistribution(*pair) for pair in CROSS_DISK_PRESET))


def _merge(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The union of the half-open windows [starts[i], ends[i]) as sorted,
    disjoint start and end columns: windows that overlap or touch join.
    Raises ValueError on the first empty or inverted window in sorted order."""
    order = np.lexsort((ends, starts))
    starts, ends = starts[order], ends[order]
    bad = np.flatnonzero(ends <= starts)
    if len(bad):
        raise ValueError(f"empty or inverted window ({starts[bad[0]]}, {ends[bad[0]]})")
    if not len(starts):
        return starts, ends
    # a window opens a new run when it starts after every earlier window ended
    reach = np.maximum.accumulate(ends)
    opens = np.flatnonzero(starts[1:] > reach[:-1]) + 1
    return starts[np.concatenate(([0], opens))], reach[np.concatenate((opens - 1, [-1]))]


class ActivityTimeline:
    """Sorted, merged half-open [start, end) windows of competing activity,
    held as read-only int64 start and end columns, plus a duration (by
    default the last end)."""

    __slots__ = ("_starts", "_ends", "_duration_ns")

    def __init__(self, windows: Iterable[tuple[int, int]] = ()):
        columns = np.array(list(windows), dtype=np.int64).reshape(-1, 2)
        self._store(*_merge(columns[:, 0], columns[:, 1]))

    def _store(self, starts: np.ndarray, ends: np.ndarray, duration_ns: int | None = None) -> None:
        starts.setflags(write=False)
        ends.setflags(write=False)
        self._starts, self._ends = starts, ends
        if duration_ns is None:
            duration_ns = int(ends[-1]) if len(ends) else 0
        self._duration_ns = duration_ns

    def __len__(self) -> int:
        return len(self._starts)

    def windows(self) -> list[tuple[int, int]]:
        return list(zip(self._starts.tolist(), self._ends.tolist()))

    @property
    def duration_ns(self) -> int:
        return self._duration_ns

    def window_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end columns of the windows (read-only)."""
        return self._starts, self._ends


IDLE = ActivityTimeline()


class SenderSchedule(ActivityTimeline):
    """Sender activity derived from a bit stream: bit i of value 1 occupies
    [i*ts, (i+1)*ts) with back-to-back mutation+fsync, 0 is idle.  The
    windows are the runs of 1-bits; the duration spans every bit, trailing
    0s included."""

    __slots__ = ()

    def __init__(self, bits: BitStream, ts_us: int):
        if ts_us <= 0:
            raise ValueError("ts_us must be positive")
        check_symbol_cap(len(bits))
        ts_ns = ts_us * 1000
        # +1 where a run of 1-bits starts, -1 one past where it ends
        steps = np.diff(np.frombuffer(bits, dtype=np.int8), prepend=0, append=0)
        self._store(
            np.flatnonzero(steps == 1) * ts_ns, np.flatnonzero(steps == -1) * ts_ns, len(bits) * ts_ns
        )


class NoiseDegree(str, Enum):
    """Background-writer intensity, mapped to expected bursts per second."""

    NONE = "none"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    CRITICAL = "critical"

    @property
    def bursts_per_second(self) -> float:
        return _DEGREE_RATES[self]


_DEGREE_RATES = {
    NoiseDegree.NONE: 0.0,
    NoiseDegree.LOW: 5.0,
    NoiseDegree.MEDIUM: 50.0,
    NoiseDegree.HIGH: 500.0,
    NoiseDegree.CRITICAL: 5000.0,
}


# the most bursts (rate x horizon) NoiseProcess.materialize draws: at the
# cap, 2.7 s and 180 MB on a 2-core VM; the longest noisy run of the tests,
# the acceptance gate and the benchmark is due about 41,000
MAX_NOISE_BURSTS = 1_000_000
# the most probes the probe loop may be due, horizon / (_mean_draw_bound_ns
# of the standalone draw + PROBE_OVERHEAD_NS): at the cap, a quiet sim_receive
# of 10,000,018 probes (a 160 MB trace) took 1.0-1.2 s and a peak RSS of
# 193 MB in a fresh process on a 2-core VM; the acceptance sweep's 80,240
# symbols of 400 us, the longest simulated run of the tests, is due about
# 1.4 million
MAX_SIM_PROBES = 10_000_000
# the most symbols a simulated sender may send: each is held several times
# over (the framed bits, then SenderSchedule's int8 steps and run columns),
# so a run under both caps above could still need gigabytes. At the cap, a
# sim `send` of 8,000,000 symbols of 1 us peaked at 186 MB of RSS in a fresh
# process on a 2-core VM, about what the probe cap allows; the longest
# simulated run of the tests sends 80,240 symbols
MAX_SIM_SYMBOLS = 8_000_000


def _mean_draw_bound_ns(dist: LatencyDistribution) -> float:
    """A lower bound on the mean of dist.draw, max(F, X) for F the floor and
    X ~ N(mu, sigma): at least F, at least mu, and, as max(F, X) >= m +
    max(0, X - mu) for m = min(F, mu), at least m + sigma / sqrt(2 pi)."""
    least = min(LATENCY_FLOOR_NS, dist.mean_ns)
    return max(LATENCY_FLOOR_NS, dist.mean_ns, least + dist.std_ns / math.sqrt(2 * math.pi))


def _check_burst_cap(degree: NoiseDegree, horizon_ns: int) -> float:
    """The burst rate of degree per ns; a ValueError when more than
    MAX_NOISE_BURSTS bursts (rate x horizon_ns) are due on average."""
    rate_per_ns = degree.bursts_per_second / 1e9
    due = rate_per_ns * horizon_ns
    if due > MAX_NOISE_BURSTS:
        raise ValueError(
            f"{degree.value} noise over a {horizon_ns / 1e9:,g} s horizon would draw "
            f"about {due:,.0f} bursts, over the limit of {MAX_NOISE_BURSTS:,}"
        )
    return rate_per_ns


def check_sim_caps(model: ContentionModel, noise: NoiseProcess | None, horizon_ns: int) -> None:
    """A ValueError when simulating horizon_ns of the probe loop would draw
    more than MAX_NOISE_BURSTS noise bursts on average, or more than
    MAX_SIM_PROBES probes fit in it at _mean_draw_bound_ns of the standalone
    draw; the burst cap is checked first."""
    if noise is not None:
        _check_burst_cap(noise.degree, horizon_ns)
    due = horizon_ns / (_mean_draw_bound_ns(model.standalone) + PROBE_OVERHEAD_NS)
    if due > MAX_SIM_PROBES:
        raise ValueError(
            f"simulating a {horizon_ns / 1e9:,g} s horizon would take about {due:,.0f} "
            f"probes, over the limit of {MAX_SIM_PROBES:,}"
        )


def check_symbol_cap(n_symbols: int) -> None:
    """A ValueError when a simulated sender would send more than MAX_SIM_SYMBOLS."""
    if n_symbols > MAX_SIM_SYMBOLS:
        raise ValueError(
            f"simulating {n_symbols:,} symbols is over the limit of {MAX_SIM_SYMBOLS:,}"
        )


@dataclass(frozen=True)
class NoiseProcess:
    """Poisson bursts of journal activity from an unrelated neighbor.

    Burst arrivals form a Poisson process at bursts_per_second; each burst
    lasts one draw of burst_len (by default the contended latency, i.e. one
    foreign commit).  Bursts are materialized up front for determinism.
    """

    degree: NoiseDegree
    burst_len: LatencyDistribution

    @classmethod
    def from_degree(cls, degree: NoiseDegree, model: ContentionModel) -> "NoiseProcess | None":
        if degree is NoiseDegree.NONE:
            return None
        return cls(degree, model.contended)

    def materialize(self, horizon_ns: int, rng: random.Random) -> ActivityTimeline:
        """Draw the bursts that start before horizon_ns; a ValueError, before
        any draw, when more than MAX_NOISE_BURSTS are due on average."""
        rate_per_ns = _check_burst_cap(self.degree, horizon_ns)
        if rate_per_ns <= 0 or horizon_ns <= 0:
            return IDLE
        starts, ends = [], []
        t = 0.0
        while True:
            t += rng.expovariate(rate_per_ns)
            if t >= horizon_ns:
                break
            start = int(t)
            starts.append(start)
            ends.append(start + self.burst_len.draw(rng))
        timeline = ActivityTimeline.__new__(ActivityTimeline)
        timeline._store(*_merge(np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)))
        return timeline


_FIRST_CHUNK = 256  # the fewest variates in a chunk
_MAX_CHUNK = 4096  # and the most
_NEAR = 8  # a stretch's end is first sought among its first _NEAR probes
_TWOPI = 2.0 * math.pi


# every g = sqrt(-2 log(1 - u)) random.gauss can form is below 8.58, as
# 1 - u >= 2**-53, so _G_BOUND bounds g and |z| in the rounding guard
_G_BOUND = 9.0


def _draw_latencies(
    rng: random.Random, n: int, model: ContentionModel
) -> tuple[np.ndarray, np.ndarray]:
    """The standalone and contended int64 latency columns of the next n
    Gaussian variates: entry i of a state's column is its
    max(LATENCY_FLOOR_NS, round(rng.gauss(mean_ns, std_ns))) for the i-th of
    n gauss calls, and rng, its spare variate included, is left as those n
    calls would leave it.

    random.gauss: a spare from the previous pair comes first; each new pair
    takes two random() uniforms, each built from two 32-bit Mersenne Twister
    words, and returns cos(x2pi) * g2rad, keeping sin(x2pi) * g2rad as the
    spare.  Here all the words come from one getrandbits call (word i in bits
    32i..32i+31) and the arithmetic, log, cos and sin included, runs in
    numpy; the rounding guard of the module docstring draws again, with the
    math module's calls, every variate whose latency numpy's last bits could
    move, and the spare left in rng is always the math module's sine.
    """
    z = np.empty(n)
    taken = 0
    if n and rng.gauss_next is not None:
        z[0] = rng.gauss_next
        rng.gauss_next = None
        taken = 1
    pairs = (n - taken + 1) // 2
    if pairs:
        words = np.frombuffer(rng.getrandbits(128 * pairs).to_bytes(16 * pairs, "little"), "<u4")
        a1, b1, a2, b2 = words.reshape(pairs, 4).T
        x2pi = ((a1 >> 5) * 67108864.0 + (b1 >> 6)) * (1.0 / 9007199254740992.0)
        x2pi *= _TWOPI
        # 1.0 - random(), the argument of the log
        w = ((a2 >> 5) * 67108864.0 + (b2 >> 6)) * (1.0 / 9007199254740992.0)
        np.subtract(1.0, w, out=w)
        g2rad = np.log(w)
        g2rad *= -2.0
        np.sqrt(g2rad, out=g2rad)
        trig = np.cos(x2pi)
        np.multiply(trig, g2rad, out=z[taken::2])
        np.sin(x2pi, out=trig)
        trig *= g2rad
        z[taken + 1 :: 2] = trig[: (n - taken) // 2]
        if (n - taken) % 2:
            last = pairs - 1
            rng.gauss_next = math.sin(x2pi[last]) * math.sqrt(-2.0 * math.log(w[last]))
    columns = []
    for d in (model.standalone, model.contended):
        v = z * d.std_ns
        v += d.mean_ns
        lat = np.rint(v)
        # |v - rint(v)| is exact, and at least 0.5 - margin where v lies
        # within margin of a half-integer
        v -= lat
        np.abs(v, out=v)
        margin = d.std_ns * _G_BOUND * 2.0**-38 + (d.mean_ns + _G_BOUND * d.std_ns) * 2.0**-50
        near = np.flatnonzero(v >= 0.5 - margin).tolist()
        lat = lat.astype(np.int64)
        np.maximum(lat, LATENCY_FLOOR_NS, out=lat)
        for i in near:
            j = i - taken
            if j < 0:  # the spare is the math module's already
                continue
            p = j >> 1
            trig_fn = math.sin if j & 1 else math.cos
            zi = trig_fn(x2pi[p]) * math.sqrt(-2.0 * math.log(w[p]))
            lat[i] = max(LATENCY_FLOOR_NS, round(d.mean_ns + zi * d.std_ns))
        columns.append(lat)
    return columns[0], columns[1]


def _activity_edges(activity: ActivityTimeline, noise: ActivityTimeline | None) -> memoryview:
    """Sorted edges of the union of the activity windows and the noise
    bursts: start, end, start, end, ..., then one INT64_MAX sentinel, which
    no clock reaches.  A time t is contended when an odd number of edges lie
    at or before it."""
    starts, ends = activity.window_bounds()
    if noise is not None:
        noise_starts, noise_ends = noise.window_bounds()
        starts, ends = _merge(
            np.concatenate((starts, noise_starts)), np.concatenate((ends, noise_ends))
        )
    edges = np.empty(2 * len(starts) + 1, dtype=np.int64)
    edges[0:-1:2], edges[1::2] = starts, ends
    edges[-1] = np.iinfo(np.int64).max
    return memoryview(edges)


def _probe_blocks(
    activity: ActivityTimeline,
    model: ContentionModel,
    seed: int,
    noise: NoiseProcess | None,
    horizon_ns: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The receiver probe loop from virtual time 0, without end, as blocks of
    (timestamps, latencies) columns, a few thousand probes each.

    The seeded RNG first materializes noise bursts up to horizon_ns, then
    draws the probe variates (see the module docstring); check_sim_caps
    runs before anything is drawn.
    """
    check_sim_caps(model, noise, horizon_ns)
    rng = random.Random(seed)
    timeline = noise.materialize(horizon_ns, rng) if noise is not None else None
    edges = _activity_edges(activity, timeline)
    clock = 0
    k = bisect_right(edges, clock)  # edges at or before the clock
    edge = edges[k]  # the next edge
    cycle = _mean_draw_bound_ns(model.standalone) + PROBE_OVERHEAD_NS
    while True:
        # one variate per probe: the probes due before the horizon, and a margin
        size = min(max(int((horizon_ns - clock) / cycle * 1.05) + 16, _FIRST_CHUNK), _MAX_CHUNK)
        lat_cols = _draw_latencies(rng, size, model)
        prefixes = [
            memoryview(np.concatenate(([0], np.cumsum(lat + PROBE_OVERHEAD_NS))))
            for lat in lat_cols
        ]
        start, n = clock, 0
        states: list[int] = []
        lengths: list[int] = []
        while n < size:
            state = k & 1
            q = prefixes[state]
            qn = q[n]
            # the first probe at or past the next edge: most stretches are a
            # few probes long, so look at the next _NEAR ones first
            target = edge - clock + qn
            near = n + _NEAR
            stop = bisect_left(q, target, n + 1, near if near < size else size)
            if stop == near:
                stop = bisect_left(q, target, near, size)
            clock += q[stop] - qn
            states.append(state)
            lengths.append(stop - n)
            n = stop
            while edge <= clock:
                k += 1
                edge = edges[k]
        contended = np.repeat(np.array(states, dtype=bool), lengths)
        lat = np.where(contended, lat_cols[1], lat_cols[0])
        yield start + np.concatenate(([0], np.cumsum(lat[:-1] + PROBE_OVERHEAD_NS))), lat


def _sim_meta(seed: int) -> TraceMeta:
    return TraceMeta(probe_mode="sim-empirical", session=f"seed={seed}", warmup_samples=0)


def sim_receive(
    activity: ActivityTimeline,
    model: ContentionModel,
    seed: int,
    *,
    duration_ns: int,
    noise: NoiseProcess | None = None,
) -> LatencyTrace:
    """Run the receiver probe loop for duration_ns of virtual time."""
    if duration_ns <= 0:
        raise ValueError("duration_ns must be positive")
    lat_parts = []
    for ts, lat in _probe_blocks(activity, model, seed, noise, duration_ns):
        cut = int(np.searchsorted(ts, duration_ns))
        lat_parts.append(lat[:cut])
        if cut < len(ts):
            break
    # only the latency blocks are kept: the timestamps are 0, then the
    # running sum of latency plus overhead, as each block's are, built in
    # place once the blocks are joined and freed, and no copy on the way in
    lat = np.concatenate(lat_parts)
    del lat_parts
    ts = np.empty_like(lat)
    ts[0] = 0
    np.add(lat[:-1], PROBE_OVERHEAD_NS, out=ts[1:])
    np.cumsum(ts[1:], out=ts[1:])
    return LatencyTrace._adopt(ts, lat, _sim_meta(seed))


def sim_transmit(
    bits: BitStream,
    cfg: ChannelConfig,
    model: ContentionModel,
    seed: int,
    *,
    noise: NoiseProcess | None = None,
) -> LatencyTrace:
    """Receiver-side trace of a full transmission of `bits` at cfg.ts_us."""
    if len(bits) == 0:
        raise ValueError("bits must not be empty")
    sched = SenderSchedule(bits, cfg.ts_us)
    return sim_receive(sched, model, seed, duration_ns=sched.duration_ns, noise=noise)


# how far past its activity a SimSource materializes noise bursts
SOURCE_TAIL_NS = 100_000_000


class SimSource(WindowGrid):
    """Live simulated sample source for the receiver front end.

    The receiver probe loop against `activity`, windowed on the absolute grid
    from virtual time 0.  Noise bursts are materialized up to SOURCE_TAIL_NS
    past the end of the activity.
    """

    def __init__(
        self,
        activity: ActivityTimeline,
        model: ContentionModel,
        seed: int,
        *,
        noise: NoiseProcess | None = None,
    ):
        horizon_ns = activity.duration_ns + SOURCE_TAIL_NS
        super().__init__(_probe_blocks(activity, model, seed, noise, horizon_ns), _sim_meta(seed))

    @property
    def elapsed_us(self) -> float:
        """Virtual time consumed by the windows so far (0.0 before the first)."""
        return self._anchor / 1000.0 if self._anchor is not None else 0.0


def calibration_trace(model: ContentionModel, cfg: ChannelConfig, seed: int) -> LatencyTrace:
    """Simulate enough quiet probing for a threshold fit under cfg's rule."""
    return sim_receive(IDLE, model, seed, duration_ns=quiet_duration_ns(cfg))


def loopback(
    payload: BitStream,
    cfg: ChannelConfig,
    model: ContentionModel,
    *,
    calibration_seed: int,
    channel_seed: int,
    noise: NoiseProcess | None = None,
) -> ErrorReport:
    """Send `payload` over the simulated channel and score what comes back.

    The sender endpoint records the frame schedule; the receiver calibrates
    on quiet traffic, then searches each frame within two frame lengths and
    one header mismatch.  A lost frame is scored as the complement of its
    payload: every one of its bits is an error, in the direction of the sent
    bit.  Only the len(payload) payload bits are scored, not the zeros that
    pad the last frame.
    """
    frames = encode_frames(payload, cfg)
    schedule = SenderSchedule(frames_to_bits(frames), cfg.ts_us)
    state = calibrate(calibration_trace(model, cfg, calibration_seed), cfg)
    source = SimSource(schedule, model, channel_seed, noise=noise)
    got = receive_frames(
        source, cfg, state, len(frames), max_symbols=2 * cfg.frame_len, max_mismatches=1
    )
    received = [BitStream(f.payload.translate(_COMPLEMENT)) if p is None else p
                for f, p in zip(frames, got)]
    return compare_bits(payload, decode_frames(received, len(payload)))


_COMPLEMENT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


@dataclass(frozen=True)
class SimParams:
    """The contention model's settings, parsed from a key=value params file.
    Noise is not one: it is set per run (`--noise`)."""

    standalone_mean_ns: float = SAME_DISK_PRESET[0][0]
    standalone_std_ns: float = SAME_DISK_PRESET[0][1]
    contended_mean_ns: float = SAME_DISK_PRESET[1][0]
    contended_std_ns: float = SAME_DISK_PRESET[1][1]

    def model(self) -> ContentionModel:
        """The contention model; a latency out of range raises a ValueError
        naming its params-file key, such as `contended.std_ns`."""
        return ContentionModel(self._latency("standalone"), self._latency("contended"))

    def _latency(self, side: str) -> LatencyDistribution:
        mean, std = getattr(self, f"{side}_mean_ns"), getattr(self, f"{side}_std_ns")
        try:
            return LatencyDistribution(mean, std)
        except ValueError as exc:
            raise ValueError(f"{side}.{exc}") from None


# params-file key -> SimParams field: the field name with its first "_" as "."
_SIM_PARAM_KEYS = {f.name.replace("_", ".", 1): f.name for f in fields(SimParams)}


def parse_sim_params(text: str) -> SimParams:
    """Parse `key=value` lines; `#` comments and blank lines are ignored."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SIM_PARAM_KEYS:
            raise ValueError(f"line {line_no}: unknown key {key!r}")
        try:
            values[_SIM_PARAM_KEYS[key]] = float(value)
        except ValueError:
            raise ValueError(f"line {line_no}: bad value {value!r} for {key}") from None
    return SimParams(**values)


def load_sim_params(path: Union[str, Path]) -> SimParams:
    return parse_sim_params(Path(path).read_text(encoding="utf-8"))
