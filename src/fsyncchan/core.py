"""Shared channel types: bit streams, frames, latency traces, and trace CSV I/O.

Everything downstream (simulator, modem, analyzers, CLI) speaks in terms of the
types defined here.  All of them are immutable after construction so they can be
shared freely between the sender and receiver halves of a loopback run; a
BitStream is the bytes of its bits, one 0 or 1 byte per bit, and equals them.
"""

from __future__ import annotations

import functools
import io
import os
import stat
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Union

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


class BitStream(bytes):
    """Immutable sequence of 0/1 bits, stored and compared as bytes with one
    byte per bit.  Slices and sums of BitStreams stay BitStreams; the other
    methods inherited from bytes return plain bytes."""

    __slots__ = ()

    def __new__(cls, bits: Iterable[int] = ()):
        self = super().__new__(cls, bits)
        if self.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        return self

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BitStream(super().__getitem__(index))
        return super().__getitem__(index)

    def __add__(self, other: "BitStream") -> "BitStream":
        if not isinstance(other, BitStream):
            return NotImplemented
        return BitStream(super().__add__(other))

    def __repr__(self) -> str:
        text = self.to_text()
        if len(text) > 32:
            text = text[:29] + "..."
        return f"BitStream({text!r}, length={len(self)})"

    __str__ = __repr__

    def to_text(self) -> str:
        """Render as a '0'/'1' string."""
        return self.translate(_BIT_TEXT).decode("ascii")

    @classmethod
    def from_text(cls, text: str) -> "BitStream":
        """Parse a '0'/'1' string; whitespace (each character for which
        str.isspace() is true) is ignored."""
        # str.split() with no separator splits at exactly the isspace() characters
        kept = "".join(text.split())
        data = kept.encode("ascii", "replace")
        if data.translate(None, b"01"):
            invalid = next(ch for ch in kept if ch not in "01")
            raise ValueError(f"invalid bit character {invalid!r}")
        return cls(data.translate(_TEXT_BIT))


_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_TEXT_BIT = bytes.maketrans(b"01", b"\x00\x01")


def prbs_sequence(n_bits: int, seed: int) -> BitStream:
    """Pseudo-random bit sequence from a 31-bit LFSR (taps 31 and 28).

    Both ends of a run derive the same payload from the shared seed, so no
    ground-truth file needs to cross the channel.

    With x[0:31] the seeded register, bit 30 first, the register's output
    x[31:] obeys x[k] = x[k-31] ^ x[k-28]: the sequence is annihilated by
    p(z) = z^31 + z^28 + 1 over GF(2).  Squaring is linear over GF(2), so
    p(z)^m = z^(31m) + z^(28m) + 1 for every power of two m annihilates it
    too, and x[k] = x[k-31m] ^ x[k-28m] holds exactly.  With k >= 31m, one
    XOR of earlier bits fills the 28m bits from k on; m doubles once
    k >= 62m, so n bits take about 2 log2(n) block XORs.
    """
    if n_bits < 0:
        raise ValueError("n_bits must be nonnegative")
    mask = (1 << 31) - 1
    state = ((seed & mask) * 2654435761 + 0x9E3779B9) & mask
    state |= 1  # LFSR state must never be all zero
    x = np.empty(31 + n_bits, dtype=np.uint8)
    x[:31] = (state >> np.arange(30, -1, -1)) & 1
    k, m = 31, 1
    while k < len(x):
        if 62 * m <= k:
            m *= 2
        end = min(k + 28 * m, len(x))
        np.bitwise_xor(x[k - 31 * m : end - 31 * m], x[k - 28 * m : end - 28 * m], out=x[k:end])
        k = end
    return BitStream(x[31:].tobytes())


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
        object.__setattr__(self, "decision_rule", DecisionRule(self.decision_rule))
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
    joined = b"".join(payloads)
    if n_payload_bits > len(joined):
        raise ValueError(f"{n_payload_bits} payload bits exceed the {len(joined)} received")
    return BitStream(joined[:n_payload_bits])


def frames_to_bits(frames: Iterable[Frame]) -> BitStream:
    """Serialize frames into the on-channel symbol sequence, each payload
    after DEFAULT_HEADER."""
    header = bytes(DEFAULT_HEADER)  # bytes + BitStream is bytes: no bit check per frame
    return BitStream(b"".join(header + frame.payload for frame in frames))


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
    resampled or hand-built.  The simulator hands over the fresh columns it
    builds without a copy (`_adopt`), and they pass the same checks.
    """

    __slots__ = ("timestamps_ns", "latencies_ns", "meta", "_samples")

    def __init__(self, timestamps_ns, latencies_ns, meta: TraceMeta | None = None):
        ts, lat = _read_only_columns(
            _int64_column(timestamps_ns, "timestamps"), _int64_column(latencies_ns, "latencies")
        )
        _setattr(self, "timestamps_ns", ts)
        _setattr(self, "latencies_ns", lat)
        _setattr(self, "meta", meta if meta is not None else TraceMeta())

    @classmethod
    def _adopt(cls, ts: np.ndarray, lat: np.ndarray, meta: TraceMeta) -> "LatencyTrace":
        """Wrap two int64 columns that nothing else holds, without copying:
        the constructor's checks, then the columns are made read-only in place."""
        return cls._view(*_read_only_columns(ts, lat), meta)

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


def _read_only_columns(ts: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check two one-dimensional int64 columns, make them read-only in place
    and return views of them: a view of a read-only array cannot be made
    writeable again."""
    for col, what in ((ts, "timestamps"), (lat, "latencies")):
        if col.ndim != 1 or col.dtype != np.int64:
            raise ValueError(f"{what} must be a one-dimensional column of int64 integers")
    if len(ts) != len(lat):
        raise ValueError(f"column lengths differ: {len(ts)} timestamps, {len(lat)} latencies")
    _check_columns(ts, lat)
    ts.setflags(write=False)
    lat.setflags(write=False)
    return ts.view(), lat.view()


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


_WRITE_ROWS = 1 << 14  # rows formatted per write call


def trace_write(trace: LatencyTrace, sink: Union[str, Path, IO[str]]) -> None:
    """Write the two-column trace CSV (LF line endings, ASCII integers).

    A path is written as bytes; a text stream from the caller gets str.
    Both see the same characters, one write per block of `_WRITE_ROWS` rows,
    each block one byte matrix (see _format_rows).
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

    The rows are one (rows, width) uint8 matrix: a sign column when the
    first timestamp is negative (the timestamps ascend and the latencies
    are positive), each field as wide as its widest value, then the comma
    and LF columns.  Each field is filled right to left by 4-digit groups
    from the group table.  A field of one digit count takes the "%04d"
    entries; a ragged one takes each group's own entry, so a shorter value
    is padded with NUL.  A block with a sign column or a ragged field then
    has its NULs deleted by one translate.
    """
    units, higher = _digit_groups()
    sign = int(ts[0] < 0)
    mags = [ts.view(np.uint64), lat.view(np.uint64)]
    t_ends = mags[0][0], mags[0][-1]
    if sign:
        mags[0] = np.where(ts < 0, 0 - mags[0], mags[0])  # wraps to |v|, 2**63 for INT64_MIN
        t_ends = mags[0].min(), mags[0].max()
    digits = [(len(str(lo)), len(str(hi))) for lo, hi in (t_ends, (lat.min(), lat.max()))]
    comma = sign + digits[0][1]
    out = np.empty((len(ts), comma + digits[1][1] + 2), dtype=np.uint8)
    if sign:
        out[:, 0] = (ts < 0) * ord("-")
    out[:, [comma, -1]] = (ord(","), ord("\n"))
    for mag, (lo, hi), end in zip(mags, digits, (comma, out.shape[1] - 1)):
        start, table = end - hi, units
        while end > start:
            high = mag // 10_000
            text = table.take(mag - high * 10_000 + (_INNER if lo == hi else (high > 0) * _INNER))
            if end - start >= 4:  # one unaligned uint32 per row
                out[:, end - 4 : end].view("<u4")[:, 0] = text
            else:  # the leading group's last digits, a column at a time
                chars = text.view(np.uint8).reshape(-1, 4)
                for j in range(1, end - start + 1):
                    out[:, end - j] = chars[:, -j]
            mag, end, table = high, end - 4, higher
    if sign or any(lo < hi for lo, hi in digits):
        return out.tobytes().translate(None, b"\0")
    return out.tobytes()


def trace_read(source: Union[str, Path, IO[str]]) -> LatencyTrace:
    """Parse a trace CSV; the exact inverse of trace_write on the sample rows.

    After the header, each line holds two base-10 integers that fit in int64;
    a line left empty once its CRs and LFs are stripped is skipped.  A path
    is read with ``newline=""`` (a lone CR, CRLF and LF end lines); a text
    stream is split where it splits itself (``io.StringIO``: at LF).

    Text in the form trace_write emits (the header, then rows of two
    decimal fields, each row ending in LF) is parsed in 64 KiB blocks cut
    at LF, straight into two columns of the exact size; a regular file's
    LFs are counted first.  A block of rows of one width, unsigned fields
    of 1 to 15 digits (exact in float64), is read as a byte matrix; every
    other block, so most of a real trace, whose latencies change digit
    count, by one C call, ``np.fromstring``.  A field fromstring would
    saturate (reading INT64_MAX or INT64_MIN), and any other text, goes to
    a line parser that takes every spelling int() takes and raises
    TraceFormatError with the number of the first bad line; so do rows with
    a latency that is not positive or a timestamp that goes backwards.  Rows
    that otherwise pass but end past what a trace may span raise
    LatencyTrace's ValueError at once.  Only the named file is opened, once;
    a pipe is read once.  Meta does not travel in the CSV: the trace has the
    default TraceMeta.
    """
    if not isinstance(source, (str, Path)):
        return _read_stream(source)
    with open(source, "r", encoding="ascii", newline="") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return _read_stream(fh)
        raw = fh.buffer  # read in binary before any text is read
        if raw.read(len(_HEADER_LINE)) == _HEADER_LINE:
            n = sum(
                np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
                for block in iter(functools.partial(raw.read, _BLOCK), b"")
            )
            raw.seek(len(_HEADER_LINE))
            trace = _read_blocks(raw.read, n)
            if trace is not None:
                return trace
        fh.seek(0)  # rewinds the binary handle too
        _check_header(fh)
        return _parse_rows(fh)


_HEADER_LINE = (TRACE_CSV_HEADER + "\n").encode("ascii")
_BLOCK = 1 << 16  # bytes read per block of the block parser


def _check_header(source: IO[str]) -> None:
    if source.readline().rstrip("\r\n") != TRACE_CSV_HEADER:
        raise TraceFormatError(1, f"expected header {TRACE_CSV_HEADER!r}")


def _read_stream(source: IO[str]) -> LatencyTrace:
    """trace_read of a text stream or pipe: its lines are read once, then
    parsed as blocks when they split exactly at each LF of their text."""
    _check_header(source)
    lines = source.readlines()
    text = "".join(lines)
    if text.isascii():
        data = text.encode("ascii")
        n = data.count(b"\n")
        trace = _read_blocks(io.BytesIO(data).read, n) if n == len(lines) else None
        if trace is not None:
            return trace
    return _parse_rows(lines)


def _read_blocks(read, n: int) -> LatencyTrace | None:
    """The trace of the n rows `read` returns after the header, or None for
    the line parser.  Each block cut at LF is read by _uniform_block when
    its rows have one width, else by _fromstring_block.  None stands for
    text not in trace_write's form, n not its row count, a block either
    reader refuses, or a nonpositive latency or backwards timestamp, which
    the line parser places on a line."""
    ts = np.empty(n, dtype=np.int64)
    lat = np.empty(n, dtype=np.int64)
    done = 0
    rest = b""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        while block := rest + read(_BLOCK):
            cut = block.rfind(b"\n") + 1
            if not cut:
                return None  # no final LF, or a line longer than a block
            block, rest = block[:cut], block[cut:]
            fields = _uniform_block(block) or _fromstring_block(block)
            if fields is None or done + len(fields[0]) > n:
                return None
            rows = len(fields[0])
            ts[done : done + rows], lat[done : done + rows] = fields
            done += rows
    if done != n:
        return None
    try:
        return LatencyTrace._adopt(ts, lat, TraceMeta())
    except ValueError:
        # the line parser names the line of a latency or order fault only;
        # a completion or span fault is raised as the constructor words it
        if lat.min() > 0 and not (ts[1:] < ts[:-1]).any():
            raise
        return None


def _fromstring_block(block: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The two int64 field columns of a block in trace_write's form, read by
    one C call, ``np.fromstring``; None for any other text, an empty field
    or a stray sign (numpy stops short with a ValueError, in older numpy a
    DeprecationWarning, or reads 0), or a field read as INT64_MAX or
    INT64_MIN (fromstring saturates an overflow)."""
    # trace_write's form: deleting the digits and signs leaves one ",\n" per row
    punct = block.translate(None, b"-0123456789")
    rows = len(punct) // 2
    if punct != b",\n" * rows:
        return None
    try:
        values = np.fromstring(block.replace(b"\n", b","), dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if len(values) != 2 * rows or values.max() == _INT64_MAX or values.min() == _INT64_MIN:
        return None
    # fromstring reads a bare "-" (or "-0") as 0: each sign must make a negative value
    if b"-" in block and block.count(b"-") != np.count_nonzero(values < 0):
        return None
    return values[0::2], values[1::2]


# 10**0 to 10**14, exact in float64; from Python ints, as np.power first costs 0.2 MB RSS
_POWERS = np.array([float(10**k) for k in range(15)])


def _uniform_block(block: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The two float64 field columns of a block whose rows all have one width
    and their comma in one column, with 1 to 15 digits per field and no
    other byte; None for any other block.  The block is a (rows, width)
    uint8 matrix less "0": its comma and LF columns are checked, every other
    byte must read 0 to 9, and each field is the float64 dot product of its
    digit columns with powers of ten, exact because every partial sum is an
    integer below 10**15 < 2**53."""
    width = block.find(b"\n") + 1
    comma = block.find(b",", 0, width)
    rows, extra = divmod(len(block), width)
    if extra or not 0 < comma <= 15 or not 0 < width - comma - 2 <= 15:
        return None
    digits = np.frombuffer(block, dtype=np.uint8).reshape(rows, width) - np.uint8(ord("0"))
    # "," - "0" and "\n" - "0" wrap to 252 and 218; no other byte may pass 9
    if (digits[:, comma] != 252).any() or (digits[:, -1] != 218).any() or (
        np.count_nonzero(digits > 9) != 2 * rows
    ):
        return None
    weights = np.zeros((width, 2))
    weights[:comma, 0] = _POWERS[comma - 1 :: -1]
    weights[comma + 1 : -1, 1] = _POWERS[width - comma - 3 :: -1]
    fields = np.empty((rows, 2))
    for i in range(0, rows, 1024):  # BLAS on float64 copies of 1,024 rows; "," and LF weigh 0
        np.matmul(digits[i : i + 1024], weights, out=fields[i : i + 1024])
    return fields[:, 0], fields[:, 1]


def _parse_rows(lines: Iterable[str]) -> LatencyTrace:
    """The trace of a line-by-line parse from line 2 that accepts every
    spelling int() accepts and raises TraceFormatError at the first bad line."""
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
    rows = np.array(rows, dtype=np.int64).reshape(-1, 2)
    return LatencyTrace(rows[:, 0], rows[:, 1])
