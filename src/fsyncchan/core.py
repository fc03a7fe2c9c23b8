"""Shared channel types: bit streams, frames, latency traces, and trace CSV I/O.

Everything downstream (simulator, modem, analyzers, CLI) speaks in terms of the
types defined here.  All of them are immutable after construction so they can be
shared freely between the sender and receiver halves of a loopback run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

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
    and lossless text/hex round-trips.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] = ()):
        data = bytes(bits)
        if data and set(data) - {0, 1}:
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "_bits", data)

    def __setattr__(self, name, value):
        raise AttributeError("BitStream is immutable")

    @property
    def length(self) -> int:
        return len(self._bits)

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

    def to_hex(self) -> str:
        """Pack big-endian into hex; the final nibble is zero-padded."""
        if not self._bits:
            return ""
        value = 0
        for b in self._bits:
            value = (value << 1) | b
        pad = (-len(self._bits)) % 4
        value <<= pad
        return format(value, f"0{(len(self._bits) + pad) // 4}x")

    @classmethod
    def from_hex(cls, text: str, n_bits: int | None = None) -> "BitStream":
        """Inverse of to_hex; pass n_bits to trim the zero padding."""
        text = text.strip()
        total = 4 * len(text)
        if n_bits is None:
            n_bits = total
        if n_bits > total or n_bits < total - 3:
            raise ValueError(f"n_bits={n_bits} inconsistent with {len(text)} hex digits")
        if not text:
            return cls()
        value = int(text, 16)
        bits = [(value >> (total - 1 - i)) & 1 for i in range(n_bits)]
        return cls(bits)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "BitStream":
        return cls(rng.getrandbits(1) for _ in range(n))


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
    probe_mode: ProbeMode = ProbeMode.FSYNC_ONLY
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
    joined = BitStream()
    for frame in frames:
        joined = joined + frame.payload
    if n_payload_bits > len(joined):
        raise ValueError("n_payload_bits exceeds decoded frame payloads")
    return joined[:n_payload_bits]


def frames_to_bits(frames: Iterable[Frame]) -> BitStream:
    """Serialize frames into the on-channel symbol sequence."""
    out = BitStream()
    for frame in frames:
        out = out + frame.header + frame.payload
    return out


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
    """Ordered sequence of latency samples plus session metadata.

    The constructor enforces positive latencies and nondecreasing timestamps.
    Traces produced by an actual sequential probe additionally satisfy
    nonoverlap (next probe starts after the previous fsync returned); that
    stricter property is checked by validate_sequential() because analyzer
    inputs may legitimately be resampled or hand-built.
    """

    __slots__ = ("samples", "meta")

    def __init__(self, samples: Iterable[LatencySample], meta: TraceMeta | None = None):
        samples = tuple(samples)
        prev_ts = None
        for i, s in enumerate(samples):
            if s.latency_ns <= 0:
                raise ValueError(f"sample {i}: latency must be positive")
            if prev_ts is not None and s.timestamp_ns < prev_ts:
                raise ValueError(f"sample {i}: timestamps must be nondecreasing")
            prev_ts = s.timestamp_ns
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "meta", meta if meta is not None else TraceMeta())

    def __setattr__(self, name, value):
        raise AttributeError("LatencyTrace is immutable")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[LatencySample]:
        return iter(self.samples)

    def __getitem__(self, index) -> LatencySample:
        return self.samples[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, LatencyTrace):
            return self.samples == other.samples and self.meta == other.meta
        return NotImplemented

    def validate_sequential(self) -> None:
        """Assert the sequential-probe property: probes never overlap."""
        for i in range(1, len(self.samples)):
            prev, cur = self.samples[i - 1], self.samples[i]
            if cur.timestamp_ns < prev.timestamp_ns + prev.latency_ns:
                raise ValueError(
                    f"sample {i} starts at {cur.timestamp_ns} before previous "
                    f"fsync finished at {prev.timestamp_ns + prev.latency_ns}"
                )

    def non_warmup(self) -> tuple[LatencySample, ...]:
        """Samples past the warm-up prefix recorded in meta."""
        return self.samples[self.meta.warmup_samples :]

    def latencies(self) -> list[int]:
        return [s.latency_ns for s in self.samples]

    @property
    def duration_ns(self) -> int:
        if not self.samples:
            return 0
        first = self.samples[0]
        last = self.samples[-1]
        return last.timestamp_ns + last.latency_ns - first.timestamp_ns


TRACE_CSV_HEADER = "timestamp_ns,latency_ns"


class TraceFormatError(ValueError):
    """Raised for malformed trace CSV input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def trace_write(trace: LatencyTrace, sink: Union[str, Path, IO[str]]) -> None:
    """Write the two-column trace CSV (LF line endings, ASCII integers)."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="ascii", newline="") as fh:
            trace_write(trace, fh)
        return
    sink.write(TRACE_CSV_HEADER + "\n")
    for s in trace.samples:
        sink.write(f"{s.timestamp_ns},{s.latency_ns}\n")


def trace_read(source: Union[str, Path, IO[str]], meta: TraceMeta | None = None) -> LatencyTrace:
    """Parse a trace CSV; the exact inverse of trace_write on the sample rows.

    Meta does not travel in the CSV; pass one if the caller knows it.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii", newline="") as fh:
            return trace_read(fh, meta)
    first = source.readline()
    if first.rstrip("\n") != TRACE_CSV_HEADER:
        raise TraceFormatError(1, f"expected header {TRACE_CSV_HEADER!r}")
    samples = []
    prev_ts = None
    for line_no, line in enumerate(source, start=2):
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
        if lat <= 0:
            raise TraceFormatError(line_no, "latency must be positive")
        if prev_ts is not None and ts < prev_ts:
            raise TraceFormatError(line_no, "timestamps must be nondecreasing")
        prev_ts = ts
        samples.append(LatencySample(ts, lat))
    return LatencyTrace(samples, meta)
