"""Synthetic workloads and independent reference implementations.

Everything here is deliberately naive: plain-Python scans and brute-force
groupings that restate each contract from scratch, so the tests compare the
package against an implementation that shares no code with it.  The
one-probe-per-call simulator, the sample-at-a-time window grid, the window
statistics from Python-int sums, the one-window-per-call decision stream and
frame search, the line-at-a-time trace parser and the "%d" trace writer are
the package's earlier implementations, kept as references for the vectorized
ones, and so are the window merge loop of the activity timeline and the
one-call-per-variate draw of the simulator's Gaussian chunks, the
per-value threshold fit and the refresh of the threshold from a whole
window of statistics, the one-shift-per-bit PRBS register and the
per-character bit text conversions.
"""

from __future__ import annotations

import math
import random
import statistics
from bisect import bisect_right
from collections import Counter, deque
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np

from fsyncchan import modem
from fsyncchan.analyzer import Episode, FeatureVector
from fsyncchan.core import (
    DEFAULT_HEADER,
    TRACE_CSV_HEADER,
    BitStream,
    DecisionRule,
    LatencyTrace,
    TraceFormatError,
    trace_write,
)
from fsyncchan.modem import SourceExhausted, SymbolDecision
from fsyncchan.simchan import (
    PROBE_OVERHEAD_NS,
    ActivityTimeline,
    ContentionModel,
    LatencyDistribution,
    sim_receive,
)

# ---------------------------------------------------------------------------
# reference implementations


def prbs_reference(n_bits, seed):
    """The 31-bit LFSR payload (taps 31 and 28), one register shift per bit."""
    if n_bits < 0:
        raise ValueError("n_bits must be nonnegative")
    mask = (1 << 31) - 1
    state = ((seed & mask) * 2654435761 + 0x9E3779B9) & mask
    state |= 1  # LFSR state must never be all zero
    out = bytearray(n_bits)
    for i in range(n_bits):
        bit = ((state >> 30) ^ (state >> 27)) & 1
        state = ((state << 1) | bit) & mask
        out[i] = bit
    return BitStream(out)


def to_text_reference(bits):
    """A BitStream as a '0'/'1' string, one character per bit."""
    return "".join("1" if b else "0" for b in bits)


def from_text_reference(text):
    """Parse a '0'/'1' string one character at a time, skipping the
    characters for which str.isspace() is true; ValueError names the first
    other character."""
    bits = []
    for ch in text:
        if ch in "01":
            bits.append(ch == "1")
        elif not ch.isspace():
            raise ValueError(f"invalid bit character {ch!r}")
    return BitStream(bits)


def find_frame_start_reference(bits, header, max_mismatches=0):
    """Earliest offset whose window is within the mismatch budget, full scan."""
    n, h = len(bits), len(header)
    for off in range(n - h + 1):
        mism = sum(1 for i in range(h) if bits[off + i] != header[i])
        if mism <= max_mismatches:
            return off
    return None


def episodes_reference(samples, theta_ns, max_gap_ns):
    """Group above-threshold (timestamp, latency) samples by start-to-start
    gap, brute force."""
    above = [(t, lat) for t, lat in samples if lat > theta_ns]
    groups: list[list[tuple[int, int]]] = []
    for t, lat in above:
        if groups and t - groups[-1][-1][0] <= max_gap_ns:
            groups[-1].append((t, lat))
        else:
            groups.append([(t, lat)])
    return [
        Episode(start_ns=g[0][0], end_ns=max(t + lat for t, lat in g), n_samples=len(g))
        for g in groups
    ]


def _normalized(counts):
    total = sum(counts)
    if total == 0:
        return [0.0] * len(counts)
    return [c / total for c in counts]


def knn_reference(train, k, query):
    """k-NN restated in pure Python: Euclidean over normalized histograms,
    distance ties broken by training index, vote ties by nearest tied class."""
    q = _normalized([int(c) for c in query.counts])
    scored = []
    for idx, fv in enumerate(train):
        v = _normalized([int(c) for c in fv.counts])
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(v, q)))
        scored.append((d, idx))
    scored.sort()
    top = scored[:k]
    votes = Counter(train[idx].label for _, idx in top)
    best = max(votes.values())
    tied = {label for label, n in votes.items() if n == best}
    if len(tied) == 1:
        return tied.pop()
    for _, idx in top:
        if train[idx].label in tied:
            return train[idx].label
    raise AssertionError("unreachable")


def exact_sq_distances(train, query):
    """Exact rational squared distances, used to reject accidental ties."""
    qc = [int(c) for c in query.counts]
    qt = sum(qc) or 1
    out = []
    for fv in train:
        vc = [int(c) for c in fv.counts]
        vt = sum(vc) or 1
        out.append(sum((Fraction(a, vt) - Fraction(b, qt)) ** 2 for a, b in zip(vc, qc)))
    return out


def split_detection_reference(episodes, truth, split_threshold_ns, tol_ns):
    """(tp, fp, fn, tn, precision, recall, f1) of split detection with a
    skip pointer and a forward scan: each truth op, in sorted order, takes
    the unused episode with the nearest start within tol_ns, the earlier one
    on a tie; an unmatched op is not detected, and each unused episode
    longer than the threshold is a false alarm."""
    episodes = sorted(episodes, key=lambda e: e.start_ns)
    starts = [e.start_ns for e in episodes]
    used = [False] * len(episodes)
    tp = fp = fn = tn = 0
    j = 0
    for op_start, is_split in sorted(truth):
        while j < len(episodes) and (used[j] or starts[j] < op_start - tol_ns):
            j += 1
        best = None
        for k in range(j, len(episodes)):
            if used[k]:
                continue
            if starts[k] > op_start + tol_ns:
                break
            if best is None or abs(starts[k] - op_start) < abs(starts[best] - op_start):
                best = k
        detected = False
        if best is not None:
            used[best] = True
            detected = episodes[best].est_latency_ns > split_threshold_ns
        if is_split and detected:
            tp += 1
        elif is_split:
            fn += 1
        elif detected:
            fp += 1
        else:
            tn += 1
    fp += sum(not u and e.est_latency_ns > split_threshold_ns for u, e in zip(used, episodes))
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return tp, fp, fn, tn, precision, recall, f1


def classification_reference(y_true, y_pred):
    """Per-class (support, precision, recall, f1) and the accuracy, three
    passes over the labels for each class."""
    labels = list(zip(y_true, y_pred))
    per_class = {}
    for cls in sorted(set(y_true) | set(y_pred)):
        tp = sum(t == cls and p == cls for t, p in labels)
        fp = sum(t != cls and p == cls for t, p in labels)
        fn = sum(t == cls and p != cls for t, p in labels)
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        per_class[cls] = (tp + fn, precision, recall, f1)
    return per_class, sum(t == p for t, p in labels) / len(labels)


def merge_windows_reference(windows):
    """Sorted union of half-open [start, end) windows, one window at a time:
    a window that overlaps or touches the last merged one extends it.  Raises
    ValueError on the first empty or inverted window in sorted order."""
    merged: list[list[int]] = []
    for start, end in sorted(windows):
        if end <= start:
            raise ValueError(f"empty or inverted window ({start}, {end})")
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def active_at_reference(timeline, t_ns):
    """Whether instant t_ns lies in one of the timeline's half-open windows,
    by a bisect over its window_bounds() columns."""
    starts, ends = timeline.window_bounds()
    i = bisect_right(memoryview(starts), t_ns) - 1
    return i >= 0 and t_ns < int(ends[i])


def sim_probe_reference(clock_ns, activity, model, noise, rng):
    """One timed fsync at virtual time clock_ns: contended when the activity
    or a noise burst is active at that instant.  Returns the (timestamp,
    latency) sample and the clock advanced past the fsync plus the per-probe
    overhead."""
    contended = active_at_reference(activity, clock_ns) or (
        noise is not None and active_at_reference(noise, clock_ns)
    )
    latency = (model.contended if contended else model.standalone).draw(rng)
    return (clock_ns, latency), clock_ns + latency + PROBE_OVERHEAD_NS


def probe_stream_reference(activity, model, seed, noise, horizon_ns):
    """The receiver probe loop from virtual time 0, one probe per call; the
    RNG materializes the noise first."""
    rng = random.Random(seed)
    timeline = noise.materialize(horizon_ns, rng) if noise is not None else None
    clock = 0
    while True:
        sample, clock = sim_probe_reference(clock, activity, model, timeline, rng)
        yield sample


def sim_receive_reference(activity, model, seed, *, duration_ns, noise=None):
    """Samples of the reference probe loop that start before duration_ns."""
    out = []
    for sample in probe_stream_reference(activity, model, seed, noise, duration_ns):
        if sample[0] >= duration_ns:
            return out
        out.append(sample)


class WindowGridReference:
    """The window grid over a stream of (timestamp, latency) samples, one
    sample at a time."""

    def __init__(self, samples, meta):
        self._samples = iter(samples)
        self._meta = meta
        self._pending = next(self._samples, None)
        self._anchor = self._pending[0] if self._pending is not None else 0
        self._last_consumed = None

    def probe_for(self, duration_us):
        if duration_us <= 0:
            raise ValueError("duration_us must be positive")
        pending = self._pending
        if pending is None:
            raise SourceExhausted()
        window_end = self._anchor + round(duration_us * 1000)
        window = []
        while pending is not None and pending[0] < window_end:
            window.append(pending)
            pending = next(self._samples, None)
        self._pending = pending
        self._anchor = window_end
        if window:
            self._last_consumed = window[-1]
        else:
            window = [self._last_consumed if self._last_consumed is not None else pending]
        return trace_from_pairs(window, self._meta)


def columns(trace):
    """A trace's (timestamps, latencies) columns as two lists of ints."""
    return trace.timestamps_ns.tolist(), trace.latencies_ns.tolist()


def pairs(trace):
    """A trace's samples as a list of (timestamp, latency) int pairs, the
    form the references walk."""
    return list(zip(*columns(trace)))


def trace_from_pairs(samples, meta=None):
    """The trace of a sequence of (timestamp, latency) pairs."""
    samples = list(samples)
    return LatencyTrace([t for t, _ in samples], [lat for _, lat in samples], meta)


def validate_sequential(trace):
    """Raise ValueError unless the trace has the sequential-probe property:
    each probe starts at or after the previous fsync returned."""
    ts, lat = trace.timestamps_ns, trace.latencies_ns
    finish = ts[:-1] + lat[:-1]
    bad = np.flatnonzero(ts[1:] < finish)
    if bad.size:
        i = int(bad[0]) + 1
        raise ValueError(
            f"sample {i} starts at {ts[i]} before previous fsync finished at {finish[i - 1]}"
        )


def window_statistic_reference(latencies, rule):
    """Window mean, or the STDDEV statistic of n samples from their Python-int
    sum S1 and sum of squares S2: sqrt(float(n*S2 - S1**2) / float(n*(n-1))),
    0.0 for one sample."""
    if rule is DecisionRule.MEAN:
        return statistics.fmean(latencies)
    n = len(latencies)
    if n < 2:
        return 0.0
    num = n * sum(x * x for x in latencies) - sum(latencies) ** 2
    return math.sqrt(float(num) / float(n * (n - 1)))


def fit_reference(values):
    """The threshold fit, (theta, mean, std), one Python float operation per
    value: deviations from the fmean, scaled by the power of two of the
    largest one, and the corrected two-pass variance summed with math.fsum."""
    mean = statistics.fmean(values)
    n = len(values)
    std = 0.0
    if n >= 2:
        d = [v - mean for v in values]
        e = math.frexp(max(map(abs, d)))[1]
        d = [math.ldexp(x, -e) for x in d]
        var = (math.fsum(map(mul, d, d)) - math.fsum(d) ** 2 / n) / (n - 1)
        std = math.ldexp(math.sqrt(var), e)
    return round(mean + max(3.0 * std, 0.5 * mean)), mean, std


def threshold_reference(theta_ns, quiet_mean_ns, quiet_std_ns, stats, period=64, min_cluster=8):
    """The threshold state after a stream of window statistics, as (theta,
    quiet mean, quiet std, provenance): at each multiple of period it refits
    on the quiet statistics (at or below the current theta) among the last
    period, when there are at least min_cluster of them."""
    state = (theta_ns, quiet_mean_ns, quiet_std_ns, "manual")
    for end in range(period, len(stats) + 1, period):
        quiet = [s for s in stats[end - period : end] if s <= state[0]]
        if len(quiet) >= min_cluster:
            state = (*fit_reference(quiet), f"adaptive@symbol{end - 1}")
    return state


def decision_stream_reference(source, cfg, state):
    """Yield SymbolDecisions one window at a time from source.probe_for
    until it is exhausted, keeping the state as a ThresholdState keeps it,
    by threshold_reference's rule: each statistic at or below theta is kept
    as quiet, and at the end of each update period (modem._UPDATE_PERIOD,
    read per call) theta is refitted with fit_reference on the period's
    quiet statistics when there are at least modem._MIN_QUIET_CLUSTER."""
    period, min_cluster = modem._UPDATE_PERIOD, modem._MIN_QUIET_CLUSTER
    index = 0
    while True:
        try:
            trace = source.probe_for(cfg.ts_us)
        except SourceExhausted:
            return
        latencies = trace.latencies_ns.tolist()
        stat = window_statistic_reference(latencies, cfg.decision_rule)
        bit = 1 if stat > state.theta_ns else 0
        quiet = state._quiet + ([] if bit else [stat])
        state._seen += 1
        if state._seen == period:
            if len(quiet) >= min_cluster:
                state.theta_ns, state.quiet_mean_ns, state.quiet_std_ns = fit_reference(quiet)
                state.provenance = f"adaptive@symbol{index}"
            quiet, state._seen = [], 0
        state._quiet = quiet
        yield SymbolDecision(index=index, bit=bit, statistic=stat, n_samples=len(latencies))
        index += 1


def receive_frame_reference(source, cfg, state, *, max_symbols, max_mismatches=0):
    """Frame search over the reference decision stream: the payload after
    the first window of header length within the mismatch budget, or None
    when no header completes within max_symbols or the source runs dry."""
    header = bytes(DEFAULT_HEADER)
    window: deque = deque(maxlen=len(header))
    payload: list[int] = []
    collecting = False
    consumed = 0
    for decision in decision_stream_reference(source, cfg, state):
        consumed += 1
        if collecting:
            payload.append(decision.bit)
            if len(payload) == cfg.payload_len:
                return BitStream(payload)
        else:
            window.append(decision.bit)
            if len(window) == len(header):
                mismatches = sum(a != b for a, b in zip(window, header))
                if mismatches <= max_mismatches:
                    collecting = True
            if not collecting and consumed >= max_symbols:
                return None
    return None


def trace_read_reference(source):
    """Line-at-a-time trace CSV parser: the rows as (timestamp, latency)
    tuples, or TraceFormatError at the first bad line.  Fields may be any
    spelling int() accepts, of any size.  Each line's trailing CRs and LFs
    are stripped, and a line left empty is blank.  Rows that all parse still
    make no trace when one ends past INT64_MAX, or more than INT64_MAX after
    the first row starts: ValueError names the first such sample."""
    first = source.readline()
    if first.rstrip("\r\n") != TRACE_CSV_HEADER:
        raise TraceFormatError(1, f"expected header {TRACE_CSV_HEADER!r}")
    rows = []
    prev_ts = None
    for line_no, line in enumerate(source, start=2):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceFormatError(line_no, "expected two comma-separated fields")
        try:
            ts, lat = int(parts[0]), int(parts[1])
        except ValueError:
            raise TraceFormatError(line_no, f"non-integer field in {line!r}") from None
        if lat <= 0:
            raise TraceFormatError(line_no, "latency must be positive")
        if prev_ts is not None and ts < prev_ts:
            raise TraceFormatError(line_no, "timestamps must be nondecreasing")
        prev_ts = ts
        rows.append((ts, lat))
    for i, (ts, lat) in enumerate(rows):
        if ts + lat > 2**63 - 1:
            raise ValueError(f"sample {i}: timestamp + latency passes INT64_MAX")
        if ts + lat - rows[0][0] > 2**63 - 1:
            raise ValueError(
                f"sample {i}: completion lies more than INT64_MAX ns after the first timestamp"
            )
    return rows


def trace_write_reference(trace, sink):
    """Trace CSV writer formatting every row with "%d,%d\n" in Python."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="ascii", newline="") as fh:
            trace_write_reference(trace, fh)
        return
    sink.write(TRACE_CSV_HEADER + "\n")
    rows = zip(trace.timestamps_ns.tolist(), trace.latencies_ns.tolist())
    sink.write("".join("%d,%d\n" % row for row in rows))


# ---------------------------------------------------------------------------
# random traces for episode fuzzing


def random_episode_trace(rng: random.Random):
    """(timestamp, latency) samples with alternating quiet/loud stretches;
    may contain overlapping samples (latency running past the next
    timestamp) on purpose."""
    samples = []
    t = rng.randrange(0, 1_000_000)
    for _ in range(rng.randrange(0, 180)):
        gap = rng.choice((rng.randrange(5_000, 60_000), rng.randrange(200_000, 4_000_000)))
        t += gap
        if rng.random() < 0.5:
            lat = max(1, round(rng.gauss(21_000, 3_000)))
        else:
            lat = max(1, round(rng.gauss(120_000, 60_000)))
        samples.append((t, lat))
    return samples


# ---------------------------------------------------------------------------
# victim-activity simulations


def victim_model(contended_mean_ns: float, contended_std_ns: float) -> ContentionModel:
    return ContentionModel.empirical(
        LatencyDistribution(21390.0, 2479.0),
        LatencyDistribution(contended_mean_ns, contended_std_ns),
    )


def insert_workload(
    n_ops: int = 400,
    n_splits: int = 49,
    seed: int = 7,
):
    """Sequential commit windows, a minority of them page-split expensive.

    Returns (windows, truth) where truth rows are (op_start_ns, is_split).
    """
    rng = random.Random(seed)
    split_at = set(rng.sample(range(n_ops), n_splits))
    windows = []
    truth = []
    t = 2_000_000
    for i in range(n_ops):
        if i in split_at:
            dur = max(1_200_000, round(rng.gauss(1_700_000, 350_000)))
        else:
            dur = max(80_000, round(rng.gauss(350_000, 220_000)))
        windows.append((t, t + dur))
        truth.append((t, i in split_at))
        t += dur + rng.randrange(18_000_000, 25_000_000)
    return windows, truth


def keystroke_workload(n_keys: int = 100, seed: int = 11):
    """SQLite-style per-keystroke commit windows with human inter-key gaps.

    Returns (windows, key_times_ns).
    """
    rng = random.Random(seed)
    key_times = []
    windows = []
    t = 5_000_000
    for _ in range(n_keys):
        key_times.append(t)
        dur = max(60_000, round(rng.gauss(150_000, 30_000)))
        windows.append((t, t + dur))
        t += max(100_000_000, round(rng.gauss(180_000_000, 60_000_000)))
    return windows, key_times


def victim_trace(windows, seed, contended=(120_000, 20_000), tail_ns=2_000_000):
    """Probe trace over the given activity windows."""
    model = victim_model(*contended)
    activity = ActivityTimeline(windows)
    duration = windows[-1][1] + tail_ns if windows else tail_ns
    return sim_receive(activity, model, seed, duration_ns=duration)


# ---------------------------------------------------------------------------
# workload histograms for the classifier

WORKLOAD_LATENCY_PROFILES = {
    "insert_heavy": (2_000_000, 400_000),
    "query_light": (30_000, 8_000),
    "update_small": (150_000, 40_000),
    "update_large": (600_000, 150_000),
}


def workload_latencies(label: str, n: int, rng: random.Random):
    mean, std = WORKLOAD_LATENCY_PROFILES[label]
    return [max(10_001, round(rng.gauss(mean, std))) for _ in range(n)]


# ---------------------------------------------------------------------------
# deterministic symbol traces for modem tests


def trace_from_bits(
    bits,
    ts_ns: int = 50_000,
    quiet_ns: int = 21_390,
    loud_ns: int = 43_134,
    overhead_ns: int = 2_000,
    start_ns: int = 0,
):
    """Noise-free trace whose per-window statistics reproduce the given bits:
    every probe arriving inside a '1' window has the loud latency, '0' the
    quiet one.  Arrival timestamps advance exactly like the blocking probe."""
    ts, lats = [], []
    t = start_ns
    end = start_ns + len(bits) * ts_ns
    while t < end:
        idx = (t - start_ns) // ts_ns
        lat = loud_ns if bits[idx] == 1 else quiet_ns
        ts.append(t)
        lats.append(lat)
        t += lat + overhead_ns
    return LatencyTrace(ts, lats)


def bits_from_text(text: str) -> BitStream:
    return BitStream.from_text(text)


# ---------------------------------------------------------------------------
# labeled datasets whose labels.csv names a file outside the directory

# `{outside}` stands for the absolute path of a trace next to the directory
ESCAPING_NAMES = ("../outside.csv", "{outside}", "sub/b.csv", ".", "..", "")


def escaping_dataset(root: Path, name: str) -> Path:
    """A dataset directory under root whose labels.csv lists `a.csv` on line
    2 and `name` on line 3; a valid trace lies wherever a name points."""
    data = root / "data"
    (data / "sub").mkdir(parents=True)
    for path in (data / "a.csv", data / "sub" / "b.csv", root / "outside.csv"):
        trace_write(LatencyTrace([0, 100_000], [10_000, 90_000]), path)
    name = name.format(outside=root / "outside.csv")
    (data / "labels.csv").write_text(f"filename,label\na.csv,busy\n{name},idle\n")
    return data
