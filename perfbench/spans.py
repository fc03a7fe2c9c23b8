"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer's public function, made from the benchmark's
own code: name (``layer.function``), start, end, parent span and run id.  The
spans of one pass share a run id.  Spans live in flat arrays (about 30 bytes
each) because the per-symbol source proxy records tens of thousands per pass;
they are written out once, when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

_now = time.perf_counter_ns


class NullRecorder:
    """Untraced run: calls go straight through and nothing is kept."""

    traced = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    def source(self, source, name):
        return source


class SpanRecorder:
    """Records spans and counters; `run_id` tags everything recorded."""

    traced = True

    def __init__(self):
        self.run_id = 0
        self._names: dict[str, int] = {}
        self._parent = array("i")
        self._name = array("h")
        self._run = array("h")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._counts: dict[int, Counter] = defaultdict(Counter)

    def begin(self, name: str) -> int:
        name_id = self._names.setdefault(name, len(self._names))
        idx = len(self._start)
        self._parent.append(self._stack[-1])
        self._name.append(name_id)
        self._run.append(self.run_id)
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(_now())
        return idx

    def end(self, idx: int) -> None:
        self._end[idx] = _now()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def count(self, name: str, n=1) -> None:
        self._counts[self.run_id][name] += n

    def counts(self, run_id: int) -> Counter:
        return self._counts[run_id]

    def source(self, source, name):
        return TracedSource(source, self, name)

    def layer_times(self) -> dict[int, tuple[dict, dict]]:
        """Per run id: (self seconds by span name, total seconds by span name)."""
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        name = np.frombuffer(self._name, dtype=np.int16)
        run = np.frombuffer(self._run, dtype=np.int16)
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        names = sorted(self._names, key=self._names.get)
        out = {}
        for run_id in np.unique(run):
            sel = run == run_id
            self_ns = np.bincount(name[sel], weights=own[sel], minlength=len(names))
            total_ns = np.bincount(name[sel], weights=dur[sel], minlength=len(names))
            out[int(run_id)] = (
                {n: self_ns[i] / 1e9 for i, n in enumerate(names)},
                {n: total_ns[i] / 1e9 for i, n in enumerate(names)},
            )
        return out

    def write(self, path: Path) -> None:
        """Save every span as numpy columns plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self._names, key=self._names.get)
        np.savez(
            path,
            names=np.array(names),
            name=np.frombuffer(self._name, dtype=np.int16),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            run=np.frombuffer(self._run, dtype=np.int16),
            start_ns=np.frombuffer(self._start, dtype=np.int64),
            end_ns=np.frombuffer(self._end, dtype=np.int64),
        )


class TracedSource:
    """Proxy over a receiver sample source (the ``probe_for(duration_us)``
    contract) that records one span per symbol window and counts symbols,
    windows with no new sample, and distinct samples delivered.  The counts
    are plain attributes, to keep the per-symbol cost low."""

    def __init__(self, source, rec: SpanRecorder, name: str):
        self._source = source
        self._rec = rec
        self._name = name
        self._last_ts = -1
        self.symbols = self.empty_windows = self.samples = 0

    def probe_for(self, duration_us):
        idx = self._rec.begin(self._name)
        try:
            trace = self._source.probe_for(duration_us)
        finally:
            self._rec.end(idx)
        self.symbols += 1
        # a window with no new sample repeats the sample still in flight
        last_ts = trace.samples[-1].timestamp_ns
        if last_ts > self._last_ts:
            self.samples += len(trace.samples)
            self._last_ts = last_ts
        else:
            self.empty_windows += 1
        return trace
