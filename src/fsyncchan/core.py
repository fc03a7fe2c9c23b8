"""Shared channel types: bit streams, frames, latency traces, and trace CSV I/O.

Everything downstream (simulator, modem, analyzers, CLI) speaks in terms of the
types defined here.  All of them are immutable after construction so they can be
shared freely between the sender and receiver halves of a loopback run.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

__all__ = [
    "ProbeMode",
    "DecisionRule",
    "BitStream",
    "prbs_sequence",
    "DEFAULT_HEADER",
    "ChannelConfig",
    "Frame",
    "encode_frames",
    "decode_frames",
    "frames_to_bits",
    "LatencySample",
    "TraceMeta",
    "LatencyTrace",
    "TraceFormatError",
    "trace_read",
    "trace_write",
]


class ProbeMode(str, Enum):
    """How a probe dirties state before timing the fsync call."""

    FSYNC_ONLY = "fsync"
    WRITE_FSYNC = "write"
    FTRUNCATE_FSYNC = "ftruncate"


class DecisionRule(str, Enum):
    """Per-symbol statistic the receiver thresholds against."""

    MEAN = "mean"
    STDDEV = "stddev"


class BitStream:
    """Immutable sequence of 0/1 bits.

    Stored as bytes with one byte per bit; supports slicing, concatenation,
    and lossless text round-trips.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] = ()):
        data = bytes(bits)
        if data.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "_bits", data)

    def __setattr__(self, name, value):
        raise AttributeError("BitStream is immutable")

    def __reduce__(self):
        # pickle rebuilds through __init__, since __setattr__ refuses
        return BitStream, (self._bits,)

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BitStream(self._bits[index])
        return self._bits[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, BitStream):
            return self._bits == other._bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits)

    def __bytes__(self) -> bytes:
        """One byte per bit."""
        return self._bits

    def __add__(self, other: "BitStream") -> "BitStream":
        if not isinstance(other, BitStream):
            return NotImplemented
        return BitStream(self._bits + other._bits)

    def __repr__(self) -> str:
        text = self.to_text()
        if len(text) > 32:
            text = text[:29] + "..."
        return f"BitStream({text!r}, length={len(self)})"

    def count(self, value: int) -> int:
        return self._bits.count(value)

    def to_text(self) -> str:
        """Render as a '0'/'1' string."""
        return "".join("1" if b else "0" for b in self._bits)

    @classmethod
    def from_text(cls, text: str) -> "BitStream":
        """Parse a '0'/'1' string; whitespace is ignored."""
        bits = []
        for ch in text:
            if ch in "01":
                bits.append(ch == "1")
            elif not ch.isspace():
                raise ValueError(f"invalid bit character {ch!r}")
        return cls(bits)


def prbs_sequence(n_bits: int, seed: int) -> BitStream:
    """Pseudo-random bit sequence from a 31-bit LFSR (taps 31 and 28).

    Both ends of a run derive the same payload from the shared seed, so no
    ground-truth file needs to cross the channel.
    """
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


# 16-bit alternating preamble followed by an 8-bit sync word.  13 ones total,
# so a quiet (all-zero) prefix can never alias the header within one mismatch.
DEFAULT_HEADER = BitStream.from_text("1010101010101010" "10110101")


@dataclass(frozen=True)
class ChannelConfig:
    """Parameters shared by the sender and receiver of one channel."""

    ts_us: int = 50
    decision_rule: DecisionRule = DecisionRule.MEAN
    header: BitStream = DEFAULT_HEADER
    payload_len: int = 8000

    def __post_init__(self):
        if self.ts_us <= 0:
            raise ValueError("ts_us must be positive")
        if self.payload_len <= 0:
            raise ValueError("payload_len must be positive")
        if len(self.header) < 8:
            raise ValueError("header must be at least 8 bits")

    @property
    def ts_ns(self) -> int:
        return self.ts_us * 1000

    @property
    def frame_len(self) -> int:
        return len(self.header) + self.payload_len


@dataclass(frozen=True)
class Frame:
    """One transmission unit: sync header followed by a fixed-size payload."""

    header: BitStream
    payload: BitStream


def encode_frames(payload_bits: BitStream, cfg: ChannelConfig) -> list[Frame]:
    """Split payload into fixed-size frames, zero-padding the last one.

    The total payload bit count is carried out-of-band by the caller; decoding
    trims the padding against it.
    """
    if len(payload_bits) == 0:
        raise ValueError("payload must not be empty")
    frames = []
    for off in range(0, len(payload_bits), cfg.payload_len):
        chunk = payload_bits[off : off + cfg.payload_len]
        if len(chunk) < cfg.payload_len:
            chunk = chunk + BitStream([0] * (cfg.payload_len - len(chunk)))
        frames.append(Frame(cfg.header, chunk))
    return frames


def decode_frames(frames: Iterable[Frame], n_payload_bits: int) -> BitStream:
    """Concatenate frame payloads and trim padding back to n_payload_bits."""
    joined = BitStream(b"".join(bytes(frame.payload) for frame in frames))
    if n_payload_bits > len(joined):
        raise ValueError("n_payload_bits exceeds decoded frame payloads")
    return joined[:n_payload_bits]


def frames_to_bits(frames: Iterable[Frame]) -> BitStream:
    """Serialize frames into the on-channel symbol sequence."""
    parts = (bytes(part) for frame in frames for part in (frame.header, frame.payload))
    return BitStream(b"".join(parts))


@dataclass(frozen=True)
class LatencySample:
    """One timed fsync: when it was issued and how long it took, both in ns."""

    timestamp_ns: int
    latency_ns: int


@dataclass(frozen=True)
class TraceMeta:
    """Session-local trace annotations; not part of the CSV wire format."""

    probe_mode: str = ProbeMode.FSYNC_ONLY.value
    session: str = ""
    clock_resolution_ns: int = 1
    warmup_samples: int = 0


class LatencyTrace:
    """Ordered latency samples plus session metadata, stored as two columns.

    `timestamps_ns` and `latencies_ns` are read-only int64 arrays of equal
    length.  Construction enforces positive latencies and nondecreasing
    timestamps.  Traces produced by an actual sequential probe additionally
    satisfy nonoverlap (next probe starts after the previous fsync returned);
    that stricter property is checked by validate_sequential() because
    analyzer inputs may legitimately be resampled or hand-built.

    Iterating, indexing or reading `samples` builds LatencySample objects on
    demand; code that walks whole traces reads the columns instead.
    """

    __slots__ = ("timestamps_ns", "latencies_ns", "meta", "_samples")

    def __init__(self, samples: Iterable[LatencySample], meta: TraceMeta | None = None):
        samples = tuple(samples)
        self._set([s.timestamp_ns for s in samples], [s.latency_ns for s in samples], meta)

    @classmethod
    def from_columns(
        cls, timestamps_ns, latencies_ns, meta: TraceMeta | None = None
    ) -> "LatencyTrace":
        """Build a trace from two equal-length integer columns (copied)."""
        trace = cls.__new__(cls)
        trace._set(timestamps_ns, latencies_ns, meta)
        return trace

    @classmethod
    def _view(cls, ts: np.ndarray, lat: np.ndarray, meta: TraceMeta) -> "LatencyTrace":
        """Wrap read-only columns already known to be valid, without copying."""
        trace = cls.__new__(cls)
        _setattr(trace, "timestamps_ns", ts)
        _setattr(trace, "latencies_ns", lat)
        _setattr(trace, "meta", meta)
        return trace

    def _set(self, timestamps_ns, latencies_ns, meta: TraceMeta | None) -> None:
        ts = _int64_column(timestamps_ns, "timestamps")
        lat = _int64_column(latencies_ns, "latencies")
        if len(ts) != len(lat):
            raise ValueError(f"column lengths differ: {len(ts)} timestamps, {len(lat)} latencies")
        _check_columns(ts, lat)
        ts.setflags(write=False)
        lat.setflags(write=False)
        # views of read-only arrays cannot be made writeable again
        _setattr(self, "timestamps_ns", ts.view())
        _setattr(self, "latencies_ns", lat.view())
        _setattr(self, "meta", meta if meta is not None else TraceMeta())

    def __setattr__(self, name, value):
        raise AttributeError("LatencyTrace is immutable")

    def __len__(self) -> int:
        return len(self.timestamps_ns)

    @property
    def samples(self) -> tuple[LatencySample, ...]:
        """The samples as objects, built on first use and kept."""
        try:
            return self._samples
        except AttributeError:
            _setattr(self, "_samples", tuple(iter(self)))
            return self._samples

    def __iter__(self) -> Iterator[LatencySample]:
        return map(LatencySample, self.timestamps_ns.tolist(), self.latencies_ns.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.samples[index]
        return LatencySample(int(self.timestamps_ns[index]), int(self.latencies_ns[index]))

    def __eq__(self, other) -> bool:
        if isinstance(other, LatencyTrace):
            return (
                np.array_equal(self.timestamps_ns, other.timestamps_ns)
                and np.array_equal(self.latencies_ns, other.latencies_ns)
                and self.meta == other.meta
            )
        return NotImplemented

    def validate_sequential(self) -> None:
        """Assert the sequential-probe property: probes never overlap."""
        ts, lat = self.timestamps_ns, self.latencies_ns
        finish = ts[:-1] + lat[:-1]
        bad = np.flatnonzero(ts[1:] < finish)
        if bad.size:
            i = int(bad[0]) + 1
            raise ValueError(
                f"sample {i} starts at {ts[i]} before previous fsync finished at {finish[i - 1]}"
            )

    def non_warmup(self) -> tuple[LatencySample, ...]:
        """Samples past the warm-up prefix recorded in meta."""
        return self[self.meta.warmup_samples :]

    def latencies(self) -> list[int]:
        return self.latencies_ns.tolist()

    @property
    def duration_ns(self) -> int:
        if not len(self):
            return 0
        return int(self.timestamps_ns[-1] + self.latencies_ns[-1] - self.timestamps_ns[0])


_setattr = object.__setattr__


def _int64_column(values, what: str) -> np.ndarray:
    """A fresh int64 copy of a one-dimensional column of integers."""
    col = np.asarray(values)
    if col.size == 0:
        return np.zeros(0, dtype=np.int64)
    if col.ndim != 1 or col.dtype.kind not in "iu" or col.max() > _INT64_MAX:
        raise ValueError(f"{what} must be a one-dimensional column of int64 integers")
    return col.astype(np.int64)


def _check_columns(ts: np.ndarray, lat: np.ndarray) -> None:
    """Raise for the first sample with a nonpositive latency or a timestamp
    below its predecessor's (the latency check wins on the same sample)."""
    bad_lat = np.flatnonzero(lat <= 0)
    bad_ts = np.flatnonzero(ts[1:] < ts[:-1])
    i_lat = int(bad_lat[0]) if bad_lat.size else len(lat)
    i_ts = int(bad_ts[0]) + 1 if bad_ts.size else len(ts)
    if i_lat < len(lat) and i_lat <= i_ts:
        raise ValueError(f"sample {i_lat}: latency must be positive")
    if i_ts < len(ts):
        raise ValueError(f"sample {i_ts}: timestamps must be nondecreasing")


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


TRACE_CSV_HEADER = "timestamp_ns,latency_ns"


class TraceFormatError(ValueError):
    """Raised for malformed trace CSV input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_WRITE_ROWS = 1 << 16  # rows formatted per write call
_READ_HINT = 1 << 20  # characters read and parsed per chunk


def trace_write(trace: LatencyTrace, sink: Union[str, Path, IO[str]]) -> None:
    """Write the two-column trace CSV (LF line endings, ASCII integers)."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="ascii", newline="") as fh:
            trace_write(trace, fh)
        return
    sink.write(TRACE_CSV_HEADER + "\n")
    rows = np.column_stack([trace.timestamps_ns, trace.latencies_ns])
    for i in range(0, len(rows), _WRITE_ROWS):
        block = rows[i : i + _WRITE_ROWS]
        sink.write("%d,%d\n" * len(block) % tuple(block.ravel().tolist()))


def trace_read(source: Union[str, Path, IO[str]], meta: TraceMeta | None = None) -> LatencyTrace:
    """Parse a trace CSV; the exact inverse of trace_write on the sample rows.

    Blank lines are skipped; each other line holds two base-10 integers that
    fit in int64.  Meta does not travel in the CSV; pass one if the caller
    knows it.

    A path is opened with ``newline=""``, so a lone CR, CRLF and LF all end
    lines; a text stream from the caller is split at LF alone, as
    ``io.StringIO`` splits.  The rows are read in chunks of `_READ_HINT`
    characters cut after their last LF; a chunk of plain integer rows is
    parsed whole in numpy, and any other chunk line by line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii", newline="") as fh:
            return _read_rows(fh, meta, newline="")
    return _read_rows(source, meta, newline="\n")


def _read_rows(source: IO[str], meta: TraceMeta | None, newline: str) -> LatencyTrace:
    """trace_read's body; `newline` is the io.StringIO newline argument that
    splits a chunk into lines the way `source` splits them."""
    first = source.readline()
    if first.rstrip("\n") != TRACE_CSV_HEADER:
        raise TraceFormatError(1, f"expected header {TRACE_CSV_HEADER!r}")
    columns = []
    line_no = 2
    prev_ts = None
    pending: list[str] = []  # text read after the last LF seen so far
    while True:
        text = source.read(_READ_HINT)
        cut = text.rfind("\n") + 1
        if text and not cut:
            pending.append(text)
            continue
        pending.append(text[:cut])
        chunk = "".join(pending)
        pending = [text[cut:]]
        if chunk:
            rows = _parse_plain_chunk(chunk, prev_ts)
            if rows is None:
                lines = io.StringIO(chunk, newline=newline).readlines()
                rows = _parse_rows(lines, line_no, prev_ts)
                line_no += len(lines)
            else:
                line_no += len(rows)  # one row on every line
            if len(rows):
                prev_ts = int(rows[-1, 0])
            columns.append(rows)
        if not text:
            break
    rows = np.concatenate(columns) if columns else np.zeros((0, 2), dtype=np.int64)
    return LatencyTrace.from_columns(rows[:, 0], rows[:, 1], meta)


# Bytes allowed in a chunk that _parse_plain_chunk takes in one step.
_PLAIN_BYTES = b"0123456789,-\n"
_DIGIT = np.zeros(256, dtype=bool)
_DIGIT[ord("0") : ord("9") + 1] = True


def _parse_plain_chunk(chunk: str, prev_ts: int | None) -> np.ndarray | None:
    """Vectorized parse of a chunk of lines that are all `-?D+,-?D+` with at
    most 18 characters per field and that pass the latency and ordering
    checks.  Returns None for anything else, which _parse_rows decides on."""
    try:
        raw = chunk.encode("ascii")
    except UnicodeEncodeError:
        return None
    if raw.translate(None, _PLAIN_BYTES):
        return None
    if not raw.endswith(b"\n"):
        raw += b"\n"  # the last line of the input may lack its end
    b = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(b == 10)
    commas = np.flatnonzero(b == 44)
    if len(commas) != len(ends):
        return None
    # with widths of at least 1, comma i lies inside line i: one per line,
    # so no line is blank
    starts = np.concatenate(([0], ends[:-1] + 1))
    ts_width = commas - starts
    lat_width = ends - commas - 1
    if min(ts_width.min(), lat_width.min()) < 1 or max(ts_width.max(), lat_width.max()) > 18:
        return None
    minus = np.flatnonzero(b == 45)
    # b[-1] is the LF that ends the chunk, so a minus at 0 sees one before it
    if minus.size and not (
        np.all((b[minus - 1] == 44) | (b[minus - 1] == 10)) and np.all(_DIGIT[b[minus + 1]])
    ):
        return None
    rows = np.fromstring(raw.replace(b"\n", b","), dtype=np.int64, sep=",")
    if rows.size != 2 * len(ends):
        return None
    rows = rows.reshape(-1, 2)
    ts = rows[:, 0]
    if (
        np.any(rows[:, 1] <= 0)
        or np.any(ts[1:] < ts[:-1])
        or (prev_ts is not None and ts[0] < prev_ts)
    ):
        return None
    return rows


def _parse_rows(lines: list[str], line_no: int, prev_ts: int | None) -> np.ndarray:
    """Line-by-line parse that accepts every spelling int() accepts and
    raises TraceFormatError at the first bad line (line_no is lines[0]'s)."""
    rows = []
    for line_no, line in enumerate(lines, start=line_no):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceFormatError(line_no, "expected two comma-separated fields")
        try:
            ts, lat = int(parts[0]), int(parts[1])
        except ValueError:
            raise TraceFormatError(line_no, f"non-integer field in {line!r}") from None
        if not (_INT64_MIN <= ts <= _INT64_MAX and _INT64_MIN <= lat <= _INT64_MAX):
            raise TraceFormatError(line_no, f"field does not fit in int64 in {line!r}")
        if lat <= 0:
            raise TraceFormatError(line_no, "latency must be positive")
        if prev_ts is not None and ts < prev_ts:
            raise TraceFormatError(line_no, "timestamps must be nondecreasing")
        prev_ts = ts
        rows.append((ts, lat))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)
