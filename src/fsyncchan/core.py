"""Shared channel types: bit streams, frames, latency traces, and trace CSV I/O.

Everything downstream (simulator, modem, analyzers, CLI) speaks in terms of the
types defined here.  All of them are immutable after construction so they can be
shared freely between the sender and receiver halves of a loopback run.
"""

from __future__ import annotations

import functools
import lzma
import os
import stat
import warnings
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
    "MAX_PAYLOAD_LEN",
    "ChannelConfig",
    "Frame",
    "encode_frames",
    "decode_frames",
    "frames_to_bits",
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
# Every frame starts with it.
DEFAULT_HEADER = BitStream.from_text("1010101010101010" "10110101")

# The largest payload_len: 125x the default.  Every symbol of a frame is
# simulated and scanned, its zero padding included.
MAX_PAYLOAD_LEN = 1_000_000


@dataclass(frozen=True)
class ChannelConfig:
    """Parameters shared by the sender and receiver of one channel."""

    ts_us: int = 50
    decision_rule: DecisionRule = DecisionRule.MEAN
    payload_len: int = 8000

    def __post_init__(self):
        if self.ts_us <= 0:
            raise ValueError("ts_us must be positive")
        if not 0 < self.payload_len <= MAX_PAYLOAD_LEN:
            raise ValueError(f"payload_len must be 1 to {MAX_PAYLOAD_LEN}, got {self.payload_len}")

    @property
    def ts_ns(self) -> int:
        return self.ts_us * 1000

    @property
    def frame_len(self) -> int:
        return len(DEFAULT_HEADER) + self.payload_len


@dataclass(frozen=True)
class Frame:
    """One transmission unit's payload of payload_len bits; on the channel
    it follows DEFAULT_HEADER (see frames_to_bits)."""

    payload: BitStream


def encode_frames(payload_bits: BitStream, cfg: ChannelConfig) -> list[Frame]:
    """Split payload into fixed-size frames, zero-padding the last one.

    The total payload bit count is carried out-of-band by the caller;
    decode_frames trims the padding against it.
    """
    if len(payload_bits) == 0:
        raise ValueError("payload must not be empty")
    bits, n = bytes(payload_bits), cfg.payload_len
    return [Frame(BitStream(bits[i : i + n].ljust(n, b"\0"))) for i in range(0, len(bits), n)]


def decode_frames(payloads: Iterable[BitStream], n_payload_bits: int) -> BitStream:
    """The payload bits of received frames: their payloads joined, the
    padding trimmed back to the n_payload_bits the sender framed."""
    joined = b"".join(map(bytes, payloads))
    if n_payload_bits > len(joined):
        raise ValueError(f"{n_payload_bits} payload bits exceed the {len(joined)} received")
    return BitStream(joined[:n_payload_bits])


def frames_to_bits(frames: Iterable[Frame]) -> BitStream:
    """Serialize frames into the on-channel symbol sequence, each payload
    after DEFAULT_HEADER."""
    header = bytes(DEFAULT_HEADER)
    return BitStream(b"".join(header + bytes(frame.payload) for frame in frames))


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

    `LatencyTrace(timestamps_ns, latencies_ns, meta)` copies two equal-length
    integer columns into read-only int64 arrays.  Construction enforces
    positive latencies, nondecreasing timestamps and that every completion,
    and the span from the first start to the latest completion, fit in int64;
    not that probes never overlap: analyzer inputs may legitimately be
    resampled or hand-built.
    """

    __slots__ = ("timestamps_ns", "latencies_ns", "meta", "_samples")

    def __init__(self, timestamps_ns, latencies_ns, meta: TraceMeta | None = None):
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

    @classmethod
    def _view(cls, ts: np.ndarray, lat: np.ndarray, meta: TraceMeta) -> "LatencyTrace":
        """Wrap read-only columns already known to be valid, without copying."""
        trace = cls.__new__(cls)
        _setattr(trace, "timestamps_ns", ts)
        _setattr(trace, "latencies_ns", lat)
        _setattr(trace, "meta", meta)
        return trace

    def __setattr__(self, name, value):
        raise AttributeError("LatencyTrace is immutable")

    def __len__(self) -> int:
        return len(self.timestamps_ns)

    @property
    def samples(self) -> tuple[LatencySample, ...]:
        """The samples as objects, built on first use and kept.  Kept only
        because perfbench/spans.py and perfbench/hwprobe.py read it; code
        that walks a trace reads the columns."""
        try:
            return self._samples
        except AttributeError:
            samples = tuple(
                map(LatencySample, self.timestamps_ns.tolist(), self.latencies_ns.tolist())
            )
            _setattr(self, "_samples", samples)
            return samples

    def __eq__(self, other) -> bool:
        if isinstance(other, LatencyTrace):
            return (
                np.array_equal(self.timestamps_ns, other.timestamps_ns)
                and np.array_equal(self.latencies_ns, other.latencies_ns)
                and self.meta == other.meta
            )
        return NotImplemented

    def non_warmup(self) -> tuple[LatencySample, ...]:
        """Samples past the warm-up prefix recorded in meta.  Kept only
        because perfbench/hwprobe.py reads it."""
        return self.samples[self.meta.warmup_samples :]

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
    """Raise for the first sample with a nonpositive latency, a timestamp
    below its predecessor's, or a completion (timestamp + latency) that
    passes INT64_MAX or lies more than INT64_MAX after the first timestamp,
    so that every completion and the trace's span fit in int64; on one
    sample the checks win in that order."""
    if not len(ts):
        return
    limit = _INT64_MAX + min(int(ts[0]), 0)
    unordered = ts[1:] < ts[:-1]
    # a trace with no fault passes in a few whole-column reductions
    if lat.min() > 0 and not unordered.any() and int(ts[-1]) + int(lat.max()) <= limit:
        return
    bad_lat = np.flatnonzero(lat <= 0)
    bad_ts = np.flatnonzero(unordered) + 1
    bad_end = np.flatnonzero(ts > limit - np.maximum(lat, 0))  # no wrap: limit >= -1
    first = [(int(bad[0]), rank) for rank, bad in enumerate((bad_lat, bad_ts, bad_end)) if len(bad)]
    if not first:
        return  # the largest latency and the latest start belong to different samples
    i, rank = min(first)
    if rank == 0:
        raise ValueError(f"sample {i}: latency must be positive")
    if rank == 1:
        raise ValueError(f"sample {i}: timestamps must be nondecreasing")
    if int(ts[i]) + int(lat[i]) > _INT64_MAX:
        raise ValueError(f"sample {i}: timestamp + latency passes INT64_MAX")
    raise ValueError(f"sample {i}: completion lies more than INT64_MAX ns after the first timestamp")


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


TRACE_CSV_HEADER = "timestamp_ns,latency_ns"


class TraceFormatError(ValueError):
    """Raised for malformed trace CSV input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_WRITE_ROWS = 1 << 16  # rows formatted per write call


def trace_write(trace: LatencyTrace, sink: Union[str, Path, IO[str]]) -> None:
    """Write the two-column trace CSV (LF line endings, ASCII integers).

    A path is written as bytes; a text stream from the caller gets str.
    Both see the same characters, one write per block of `_WRITE_ROWS` rows.
    """
    header = (TRACE_CSV_HEADER + "\n").encode("ascii")
    ts, lat = trace.timestamps_ns, trace.latencies_ns
    blocks = (
        _format_rows(ts[i : i + _WRITE_ROWS], lat[i : i + _WRITE_ROWS])
        for i in range(0, len(trace), _WRITE_ROWS)
    )
    if isinstance(sink, (str, Path)):
        with open(sink, "wb") as fh:
            fh.write(header)
            for block in blocks:
                fh.write(block)
        return
    sink.write(header.decode("ascii"))
    for block in blocks:
        sink.write(block.decode("ascii"))


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """The text of the 4-digit groups of a number: two read-only tables of
    little-endian uint32s of four ASCII bytes, (units, higher).  Entry g is
    group g leading its number ("%4d" with NUL for each space), entry
    10_000 + g is group g after a nonzero one ("%04d"); NUL stands for
    nothing, and _format_rows deletes it.  A number's units group reads
    `units`, where 0 alone is "0"; its higher groups read `higher`, where a
    leading 0 is no text at all.  Built on first use: built at import, they
    raised the peak RSS of a process that writes no trace by about 0.3 MB."""
    g = np.arange(10_000, dtype=np.uint16)
    inner = np.empty((10_000, 4), dtype=np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        inner[:, j] = g // place % 10 + ord("0")
    leading = inner.copy()
    for j, place in enumerate((1000, 100, 10)):
        leading[g < place, j] = 0
    units = np.concatenate((leading.view("<u4")[:, 0], inner.view("<u4")[:, 0]))
    higher = units.copy()
    higher[0] = 0
    units.setflags(write=False)
    higher.setflags(write=False)
    return units, higher


_INNER = np.uint64(10_000)  # offset of the "%04d" entries


def _format_rows(ts: np.ndarray, lat: np.ndarray) -> bytes:
    """The CSV rows "%d,%d\\n" of two equal-length int64 columns, as bytes.

    Every row becomes the same number of uint32 slots: a sign for the
    timestamps when any is negative, the 4-digit groups of each field, and
    each field's end byte, each slot padded with NUL.  One translate then
    deletes the NULs.
    """
    units, higher = _digit_groups()
    slots = []
    for col, end in ((ts, ","), (lat, "\n")):
        mag = col.view(np.uint64)
        negative = col < 0
        if negative.any():
            mag = np.where(negative, 0 - mag, mag)  # wraps to |v|, 2**63 for INT64_MIN
            slots.append(negative.astype("<u4") * ord("-"))
        groups = []
        table = units
        while True:
            high = mag // 10_000
            groups.append(table.take(mag - high * 10_000 + (high > 0) * _INNER))
            if not high.any():
                break
            mag, table = high, higher
        slots += reversed(groups)
        slots.append(np.full(len(col), ord(end), "<u4"))
    return np.stack(slots, axis=1, dtype="<u4").tobytes().translate(None, b"\0")


def trace_read(source: Union[str, Path, IO[str]], meta: TraceMeta | None = None) -> LatencyTrace:
    """Parse a trace CSV; the exact inverse of trace_write on the sample rows.

    After the header, each line holds two base-10 integers that fit in int64;
    a line left empty once its CRs and LFs are stripped is skipped.  A path
    is opened with ``newline=""`` (a lone CR, CRLF and LF end lines); a text
    stream is split where it splits itself (``io.StringIO``: at LF).  numpy's
    C reader, ``np.loadtxt``, parses the rows; text it rejects, or rows that
    fail a LatencyTrace check, go to a line parser that takes every spelling
    int() takes and raises TraceFormatError with the number of the first bad
    line.  Rows that all parse but end past what a trace may span raise
    LatencyTrace's ValueError.  Only the named local file is opened: its
    header is checked first, and numpy opens it again only if it is a
    regular file (a pipe is read once, through one handle).  Meta does not
    travel in the CSV.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii", newline="") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            # an absolute name, so that numpy never takes it for a URL
            return _read_trace(fh, os.path.abspath(source) if regular else None, meta)
    return _read_trace(source, None, meta)


def _read_trace(source: IO[str], path: str | None, meta: TraceMeta | None) -> LatencyTrace:
    """trace_read's body; numpy reads `path` when given, else source's lines."""
    if source.readline().rstrip("\r\n") != TRACE_CSV_HEADER:
        raise TraceFormatError(1, f"expected header {TRACE_CSV_HEADER!r}")
    lines = source if path else source.readlines()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on no rows
            rows = np.loadtxt(
                path or lines, dtype=np.int64, delimiter=",", comments=None,
                skiprows=1 if path else 0, ndmin=2, encoding="ascii",
            )
        rows = rows.reshape(0, 2) if rows.size == 0 else rows
        if rows.shape[1] == 2:  # LatencyTrace raises ValueError on a failed check
            return LatencyTrace(rows[:, 0], rows[:, 1], meta)
    except (ValueError, OSError, lzma.LZMAError):
        pass  # OSError, LZMAError: numpy decompresses by suffix, failing on a plain *.gz or *.xz
    rows = _parse_rows(lines)
    return LatencyTrace(rows[:, 0], rows[:, 1], meta)


def _parse_rows(lines: Iterable[str]) -> np.ndarray:
    """Line-by-line parse from line 2 that accepts every spelling int()
    accepts and raises TraceFormatError at the first bad line."""
    rows = []
    prev_ts = None
    for line_no, line in enumerate(lines, start=2):
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
        if not (_INT64_MIN <= ts <= _INT64_MAX and _INT64_MIN <= lat <= _INT64_MAX):
            raise TraceFormatError(line_no, f"field does not fit in int64 in {line!r}")
        if lat <= 0:
            raise TraceFormatError(line_no, "latency must be positive")
        if prev_ts is not None and ts < prev_ts:
            raise TraceFormatError(line_no, "timestamps must be nondecreasing")
        prev_ts = ts
        rows.append((ts, lat))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)
