"""Bit streams, framing, and trace CSV round trips."""

import contextlib
import gzip
import io
import os
import pickle
import random
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsyncchan import core
from fsyncchan.core import (
    DEFAULT_HEADER,
    MAX_PAYLOAD_LEN,
    BitStream,
    ChannelConfig,
    Frame,
    LatencySample,
    LatencyTrace,
    TraceFormatError,
    TraceMeta,
    decode_frames,
    encode_frames,
    frames_to_bits,
    prbs_sequence,
    trace_read,
    trace_write,
)
from fsyncchan.modem import MIN_CALIBRATION_SAMPLES, TraceSource, calibrate, receive_frame
from fsyncchan.simchan import IDLE, default_model, sim_receive, sim_transmit
from synthgen import (
    from_text_reference,
    prbs_reference,
    to_text_reference,
    trace_from_bits,
    trace_read_reference,
    trace_write_reference,
    validate_sequential,
)

# ---------------------------------------------------------------------------
# BitStream


def test_bitstream_basics():
    bs = BitStream([1, 0, 1, 1])
    assert len(bs) == 4
    assert list(bs) == [1, 0, 1, 1]
    assert bs[0] == 1 and bs[1] == 0
    assert bs.count(1) == 3 and bs.count(0) == 1
    assert bs == BitStream([1, 0, 1, 1])
    assert bs != BitStream([1, 0, 1, 0])
    assert hash(bs) == hash(BitStream([1, 0, 1, 1]))
    assert bytes(bs) == b"\x01\x00\x01\x01"


def test_bitstream_rejects_non_bits():
    with pytest.raises(ValueError):
        BitStream([0, 1, 2])
    with pytest.raises(ValueError):
        BitStream([-1])


def test_bitstream_immutable():
    bs = BitStream([1, 0])
    with pytest.raises(AttributeError):
        bs._bits = b"\x01"


def test_bitstream_pickle_round_trip():
    # a sender started with multiprocessing's spawn receives its bits pickled
    for bs in (BitStream(), BitStream([1, 0, 1, 1, 0])):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(bs, protocol))
            assert back == bs and type(back) is BitStream
    with pytest.raises(AttributeError):
        back._bits = b"\x01"


def test_bitstream_slice_and_concat():
    bs = BitStream([1, 0, 1, 1, 0])
    assert isinstance(bs[1:4], BitStream)
    assert bs[1:4] == BitStream([0, 1, 1])
    assert bs[:0] == BitStream()
    joined = bs[:2] + bs[2:]
    assert joined == bs


def test_bitstream_text_round_trip():
    text = "1011001"
    assert BitStream.from_text(text).to_text() == text
    assert BitStream.from_text(" 10\n1 1\t") == BitStream([1, 0, 1, 1])
    assert BitStream.from_text("").to_text() == ""
    with pytest.raises(ValueError):
        BitStream.from_text("10x1")


@given(st.lists(st.integers(0, 1), max_size=200))
def test_bitstream_text_round_trip_property(bits):
    bs = BitStream(bits)
    assert BitStream.from_text(bs.to_text()) == bs


@given(st.lists(st.integers(0, 1), max_size=300))
def test_bitstream_to_text_matches_reference(bits):
    bs = BitStream(bits)
    assert bs.to_text() == to_text_reference(bs)


# every character str.isspace() accepts, and a few that look like spaces but are not
_SPACES = "".join(c for c in map(chr, range(0x110000)) if c.isspace())
_NOT_SPACES = "\u200b\u2060\ufeff\x00\x7f?2é"


def _parsed_or_error(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@given(st.text(st.sampled_from("01") | st.sampled_from(_SPACES + _NOT_SPACES) | st.characters()))
def test_bitstream_from_text_matches_reference(text):
    assert _parsed_or_error(BitStream.from_text, text) == _parsed_or_error(
        from_text_reference, text
    )


def test_bitstream_from_text_skips_every_space():
    text = "".join(f"{i % 2}{c}" for i, c in enumerate(_SPACES))
    assert BitStream.from_text(text) == from_text_reference(text)
    assert len(BitStream.from_text(text)) == len(_SPACES)
    for c in _NOT_SPACES:
        with pytest.raises(ValueError, match=re.escape(f"invalid bit character {c!r}")):
            BitStream.from_text(f"1 0{c}1x")


# ---------------------------------------------------------------------------
# PRBS


def test_prbs_deterministic_and_seed_sensitive():
    a = prbs_sequence(512, 42)
    assert a == prbs_sequence(512, 42)
    assert a != prbs_sequence(512, 43)
    assert len(a) == 512


def test_prbs_is_balanced_ish():
    bits = prbs_sequence(10_000, 1)
    ones = bits.count(1)
    assert 4_500 < ones < 5_500


def test_prbs_zero_length_and_validation():
    assert prbs_sequence(0, 9) == BitStream()
    with pytest.raises(ValueError):
        prbs_sequence(-1, 9)


# the lengths where the block XOR's stride doubles or a block ends
_PRBS_LENGTHS = sorted(
    set(range(131))
    | {
        base * 2**j + d
        for base in (28, 31, 62)
        for j in range(10)
        for d in (-1, 1)
        if base * 2**j + d <= 2**14
    }
    | {80_000, 1_000_003}
)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**31 - 1, 2**31, 2**40 + 5, -3])
def test_prbs_matches_reference(seed):
    # the reference's first n bits are its n-bit sequence: one shift per bit
    reference = bytes(prbs_reference(_PRBS_LENGTHS[-1], seed))
    for n in _PRBS_LENGTHS:
        assert bytes(prbs_sequence(n, seed)) == reference[:n], n


def test_prbs_degenerate_seed_still_nontrivial():
    # seed 0 must not collapse the register to the stuck all-zero state
    bits = prbs_sequence(256, 0)
    assert bits.count(1) > 0 and bits.count(0) > 0


# ---------------------------------------------------------------------------
# header and framing


def test_default_header_shape():
    assert len(DEFAULT_HEADER) == 24
    assert DEFAULT_HEADER.to_text() == "101010101010101010110101"
    assert DEFAULT_HEADER.count(1) == 13


def test_channel_config_validation():
    cfg = ChannelConfig()
    assert cfg.ts_ns == 50_000
    assert cfg.frame_len == 24 + 8000
    with pytest.raises(ValueError):
        ChannelConfig(ts_us=0)
    with pytest.raises(ValueError):
        ChannelConfig(payload_len=0)


def test_channel_config_payload_len_limit():
    assert ChannelConfig(payload_len=MAX_PAYLOAD_LEN).frame_len == 24 + 1_000_000
    with pytest.raises(ValueError, match="payload_len must be 1 to 1000000, got 1000001"):
        ChannelConfig(payload_len=MAX_PAYLOAD_LEN + 1)


def test_encode_frames_exact_fit():
    cfg = ChannelConfig(payload_len=8)
    payload = BitStream.from_text("10110010")
    frames = encode_frames(payload, cfg)
    assert len(frames) == 1
    assert frames[0].payload == payload
    assert frames_to_bits(frames) == DEFAULT_HEADER + payload


def test_encode_frames_pads_last():
    cfg = ChannelConfig(payload_len=8)
    payload = BitStream.from_text("101100101")  # 9 bits -> 2 frames
    frames = encode_frames(payload, cfg)
    assert len(frames) == 2
    assert frames[1].payload == BitStream.from_text("10000000")
    assert decode_frames([f.payload for f in frames], 9) == payload


def test_encode_frames_rejects_empty():
    with pytest.raises(ValueError):
        encode_frames(BitStream(), ChannelConfig())


def test_decode_frames_trim_validation():
    cfg = ChannelConfig(payload_len=8)
    frames = encode_frames(BitStream.from_text("1111"), cfg)
    with pytest.raises(ValueError):
        decode_frames([f.payload for f in frames], 9)


def test_frames_to_bits_layout():
    cfg = ChannelConfig(payload_len=4)
    frames = encode_frames(BitStream.from_text("11110000"), cfg)
    bits = frames_to_bits(frames)
    h = DEFAULT_HEADER.to_text()
    assert bits.to_text() == h + "1111" + h + "0000"


@given(
    payload=st.lists(st.integers(0, 1), min_size=1, max_size=120),
    payload_len=st.integers(1, 40),
)
def test_frame_codec_round_trip_property(payload, payload_len):
    cfg = ChannelConfig(payload_len=payload_len)
    bits = BitStream(payload)
    frames = encode_frames(bits, cfg)
    assert all(len(f.payload) == payload_len for f in frames)
    assert decode_frames([f.payload for f in frames], len(bits)) == bits


# ---------------------------------------------------------------------------
# header search: the one header scan is receive_frame's, fed here from
# noiseless traces so each decision equals the bit that made it


def _scan(stream, *, payload_len=4, max_mismatches=0, max_symbols=None):
    cfg = ChannelConfig(ts_us=50, payload_len=payload_len)
    n = MIN_CALIBRATION_SAMPLES
    quiet = LatencyTrace([i * 23_390 for i in range(n)], [21_390] * n)
    state = calibrate(quiet, cfg)
    source = TraceSource(trace_from_bits(stream))
    return receive_frame(
        source, cfg, state, max_symbols=max_symbols, max_mismatches=max_mismatches
    )


def test_find_frame_start_with_budget():
    header = DEFAULT_HEADER
    flipped = BitStream([1 - header[5]])
    noisy = header[:5] + flipped + header[6:]
    stream = BitStream.from_text("0000") + noisy + BitStream.from_text("1101")
    assert _scan(stream, max_mismatches=0) is None
    assert _scan(stream, max_mismatches=1) == BitStream.from_text("1101")
    # budget boundary: two flips exceed a budget of one and fit a budget of two
    twice = list(noisy)
    twice[17] ^= 1
    stream = BitStream.from_text("0000") + BitStream(twice) + BitStream.from_text("1101")
    assert _scan(stream, max_mismatches=1) is None
    assert _scan(stream, max_mismatches=2) == BitStream.from_text("1101")


def test_find_frame_start_no_match_and_short_stream():
    assert _scan(BitStream([0] * 200), max_symbols=200) is None
    # a stream shorter than the header runs dry before any match
    assert _scan(BitStream([0] * 10)) is None


def test_find_frame_start_zero_prefix_never_aliases():
    # 13 ones in the header keep an all-zero stretch out of a 1-bit budget
    stream = BitStream([0] * 100) + DEFAULT_HEADER + BitStream.from_text("1011")
    assert _scan(stream, max_mismatches=1, max_symbols=200) == BitStream.from_text("1011")


def test_find_frame_start_validation():
    with pytest.raises(ValueError):
        _scan(DEFAULT_HEADER, max_mismatches=-1)
    with pytest.raises(ValueError):
        _scan(DEFAULT_HEADER, max_symbols=0)


# ---------------------------------------------------------------------------
# traces


def test_latency_trace_validation():
    LatencyTrace([0, 0, 3], [5, 5, 1])
    with pytest.raises(ValueError, match="sample 0: latency"):
        LatencyTrace([0], [0])
    with pytest.raises(ValueError, match="sample 0: latency"):
        LatencyTrace([0], [-5])
    with pytest.raises(ValueError, match="sample 1: timestamps"):
        LatencyTrace([10, 9], [5, 5])
    # the first bad sample is reported; on one sample the latency comes first
    with pytest.raises(ValueError, match="sample 1: latency"):
        LatencyTrace([10, 9, 8], [5, 0, -1])
    with pytest.raises(ValueError, match="sample 1: timestamps"):
        LatencyTrace([10, 9, 9], [5, 5, 0])
    with pytest.raises(ValueError, match="timestamps must be .* int64 integers"):
        LatencyTrace([0, 2**63], [5, 5])
    with pytest.raises(ValueError, match="latencies must be .* int64 integers"):
        LatencyTrace([0, 1], [5, 2.5])
    with pytest.raises(ValueError, match="lengths differ"):
        LatencyTrace([0, 1], [5])


def test_latency_trace_completions_and_span_fit_int64():
    # every completion and the span from the first start to the latest
    # completion fit in int64, at both ends of the range
    assert LatencyTrace([_INT64_MAX - 1], [1]).duration_ns == 1
    assert LatencyTrace([-(2**63), -2], [_INT64_MAX, 1]).duration_ns == _INT64_MAX
    # the largest latency and the latest start on different samples
    assert len(LatencyTrace([0, 100], [_INT64_MAX - 50, 1])) == 2
    with pytest.raises(ValueError, match="sample 0: timestamp \\+ latency passes INT64_MAX"):
        LatencyTrace([_INT64_MAX], [1])
    with pytest.raises(ValueError, match="sample 1: timestamp \\+ latency passes INT64_MAX"):
        LatencyTrace([0, _INT64_MAX - 100], [1, 101])
    with pytest.raises(ValueError, match="sample 1: completion lies more than INT64_MAX"):
        LatencyTrace([-(2**63), -1], [1, 1])
    # the order and latency checks still win on their sample
    with pytest.raises(ValueError, match="sample 1: latency"):
        LatencyTrace([0, _INT64_MAX], [1, -1])
    with pytest.raises(ValueError, match="sample 1: timestamps"):
        LatencyTrace([_INT64_MAX - 1, -(2**63)], [1, _INT64_MAX])


def test_latency_trace_columns_are_immutable():
    ts = np.array([0, 10, 20])
    lat = np.array([5, 5, 5])
    trace = LatencyTrace(ts, lat)
    ts[0] = 99  # the trace holds its own copy
    assert trace.timestamps_ns.tolist() == [0, 10, 20]
    assert trace.timestamps_ns.dtype == np.int64 and trace.latencies_ns.dtype == np.int64
    for column in (trace.timestamps_ns, trace.latencies_ns, trace.timestamps_ns[1:]):
        with pytest.raises(ValueError):
            column[0] = 1
        with pytest.raises(ValueError):
            column.setflags(write=True)
    with pytest.raises(AttributeError):
        trace.timestamps_ns = ts
    with pytest.raises(AttributeError):
        trace.meta = TraceMeta()


def test_latency_trace_equality_over_columns():
    trace = LatencyTrace([0, 150], [100, 50])
    assert trace == LatencyTrace(np.array([0, 150], dtype=np.uint8), [100, 50])
    assert trace != LatencyTrace([0, 150], [100, 51])
    assert trace != LatencyTrace([0, 151], [100, 50])
    assert trace != LatencyTrace([0], [100])
    assert trace != LatencyTrace([0, 150], [100, 50], TraceMeta(session="other"))
    assert LatencyTrace([], []) == LatencyTrace(np.zeros(0, dtype=np.int64), [])


def test_latency_trace_accessors():
    trace = LatencyTrace([0, 150, 300], [100, 50, 7], TraceMeta(warmup_samples=1))
    assert len(trace) == 3
    assert trace.timestamps_ns.tolist() == [0, 150, 300]
    assert trace.latencies_ns.tolist() == [100, 50, 7]
    assert trace.duration_ns == 300 + 7 - 0
    assert LatencyTrace([], []).duration_ns == 0


def test_latency_trace_sample_objects():
    # the object view the benchmark's span proxy and hardware probe read:
    # the zipped columns, and past the warm-up prefix for non_warmup()
    trace = LatencyTrace([0, 150, 300], [100, 50, 7], TraceMeta(warmup_samples=1))
    zipped = [LatencySample(t, lat) for t, lat in zip([0, 150, 300], [100, 50, 7])]
    assert trace.samples == tuple(zipped)
    assert trace.non_warmup() == tuple(zipped[1:])
    assert LatencyTrace([], []).samples == ()


def test_validate_sequential():
    # the tests' check of the sequential-probe property, which construction
    # does not enforce
    validate_sequential(LatencyTrace([0, 100], [100, 50]))
    overlapping = LatencyTrace([0, 60], [100, 50])
    with pytest.raises(ValueError, match="sample 1 starts at 60 before previous fsync finished at 100"):
        validate_sequential(overlapping)


def test_trace_csv_round_trip():
    rng = random.Random(5)
    t = 0
    ts, lat = [], []
    for _ in range(1000):
        t += rng.randrange(0, 50_000)
        ts.append(t)
        lat.append(rng.randrange(1, 100_000))
    trace = LatencyTrace(ts, lat)
    buf = io.StringIO()
    trace_write(trace, buf)
    text = buf.getvalue()
    assert text.startswith("timestamp_ns,latency_ns\n")
    back = trace_read(io.StringIO(text))
    assert back == trace
    # writing the parsed trace again is byte-identical
    buf2 = io.StringIO()
    trace_write(back, buf2)
    assert buf2.getvalue() == text


def test_trace_csv_file_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    trace = LatencyTrace([10, 40], [20, 1])
    trace_write(trace, path)
    assert trace_read(path) == trace
    assert trace_read(str(path)) == trace


_INT64_MAX = 2**63 - 1
# 10**k - 1, 10**k and 10**k + 1: the widths of a field change between them
_WIDTH_EDGES = sorted({10**k + d for k in range(19) for d in (-1, 0, 1)} - {0})
_TIMESTAMP_EDGES = [-(2**63), -(2**63) + 1, 0, _INT64_MAX] + [
    s * v for v in _WIDTH_EDGES for s in (1, -1)
]


@st.composite
def _csv_traces(draw):
    """Traces whose timestamps come in runs of consecutive values, so runs
    of one width span block edges, and whose values reach both int64 ends:
    INT64_MIN timestamps and INT64_MAX latencies.  A trace may end no more
    than INT64_MAX past its first start, and never past INT64_MAX: a sample
    that starts at that limit is dropped, and a latency that would run past
    it is cut to end there."""
    ts = []
    for _ in range(draw(st.integers(0, 6))):
        start = draw(
            st.one_of(st.sampled_from(_TIMESTAMP_EDGES), st.integers(-(2**63), _INT64_MAX))
        )
        ts += range(start, min(start + draw(st.integers(1, 8)), _INT64_MAX + 1))
    latency = st.one_of(st.sampled_from(_WIDTH_EDGES + [_INT64_MAX]), st.integers(1, _INT64_MAX))
    lat = draw(st.lists(latency, min_size=len(ts), max_size=len(ts)))
    ts.sort()
    limit = _INT64_MAX + min(ts[0], 0) if ts else 0
    rows = [(t, min(x, limit - t)) for t, x in zip(ts, lat) if t < limit]
    return LatencyTrace([t for t, _ in rows], [x for _, x in rows])


@settings(max_examples=300, deadline=None)
@given(trace=_csv_traces(), rows=st.sampled_from((1, 2, 3, 7, 1 << 16)))
def test_trace_write_matches_reference(tmp_path_factory, trace, rows):
    # byte for byte the "%d,%d\n" writer, on a text stream and on a path,
    # with _WRITE_ROWS small enough that blocks end inside runs of one width
    want = io.StringIO()
    trace_write_reference(trace, want)
    path = tmp_path_factory.getbasetemp() / "write.csv"
    saved = core._WRITE_ROWS
    core._WRITE_ROWS = rows  # hypothesis runs no function-scoped fixture per example
    try:
        got = io.StringIO()
        trace_write(trace, got)
        trace_write(trace, path)
    finally:
        core._WRITE_ROWS = saved
    assert got.getvalue() == want.getvalue()
    assert path.read_bytes() == want.getvalue().encode("ascii")


def test_trace_csv_empty_trace():
    buf = io.StringIO()
    trace_write(LatencyTrace([], []), buf)
    assert buf.getvalue() == "timestamp_ns,latency_ns\n"
    assert len(trace_read(io.StringIO(buf.getvalue()))) == 0


def test_trace_read_default_meta():
    # meta does not travel in the CSV
    text = "timestamp_ns,latency_ns\n1,2\n"
    assert trace_read(io.StringIO(text)).meta == TraceMeta()


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("wrong,header\n1,2\n", 1),
        ("timestamp_ns,latency_ns\n1,2,3\n", 2),
        ("timestamp_ns,latency_ns\n1\n", 2),
        ("timestamp_ns,latency_ns\n1,2\nx,3\n", 3),
        ("timestamp_ns,latency_ns\n1,0\n", 2),
        ("timestamp_ns,latency_ns\n1,-4\n", 2),
        ("timestamp_ns,latency_ns\n5,2\n4,2\n", 3),
        ("timestamp_ns,latency_ns\n1.5,2\n", 2),
        ("timestamp_ns,latency_ns\n1,2\n9223372036854775808,3\n", 3),
        # numpy reads fields past int64 as INT64_MAX
        ("timestamp_ns,latency_ns\n1,2\n12345678901234567890,3\n", 3),
        ("timestamp_ns,latency_ns\n1,2\n3,123456789012345678901234\n", 3),
        # numpy reads these as one row (5, 6) and two rows of three fields
        ("timestamp_ns,latency_ns\n5\n6\n", 2),
        ("timestamp_ns,latency_ns\n1,2,3\n4,5,6\n", 2),
    ],
)
def test_trace_read_rejects_malformed(text, line_no):
    with pytest.raises(TraceFormatError) as exc:
        trace_read(io.StringIO(text))
    assert exc.value.line_no == line_no
    assert f"line {line_no}:" in str(exc.value)


def test_trace_read_skips_blank_lines():
    text = "timestamp_ns,latency_ns\n1,2\n\n3,4\n"
    assert len(trace_read(io.StringIO(text))) == 2


def test_trace_read_crlf_and_cr_files(tmp_path):
    # CRLF and lone-CR files, header included, read as the LF file does,
    # and a line holding only CR is blank
    rows = "1,2\n3,4\n\n5,6\n"
    want = trace_read(io.StringIO("timestamp_ns,latency_ns\n" + rows))
    assert len(want) == 3
    for end in ("\r\n", "\r"):
        path = tmp_path / "trace.csv"
        path.write_text(("timestamp_ns,latency_ns\n" + rows).replace("\n", end), newline="")
        assert trace_read(path) == want, repr(end)
    assert trace_read(io.StringIO("timestamp_ns,latency_ns\r\n1,2\r\n\r\n3,4\n5,6\r\n")) == want


def test_trace_read_opens_only_the_named_file(tmp_path):
    # numpy would open trace.csv.gz for a missing trace.csv; the header
    # check on our own handle comes first
    trace = LatencyTrace([1, 3], [2, 4])
    trace_write(trace, tmp_path / "plain.csv")
    with gzip.open(tmp_path / "trace.csv.gz", "wb") as fh:
        fh.write((tmp_path / "plain.csv").read_bytes())
    with pytest.raises(FileNotFoundError):
        trace_read(tmp_path / "trace.csv")
    # a plain file whose name ends in a compression suffix is read as text
    for name in ("plain.gz", "plain.bz2", "plain.xz", "plain.lzma"):
        trace_write(trace, tmp_path / name)
        assert trace_read(tmp_path / name) == trace, name


@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(1, 10_000_000)),
        max_size=60,
    )
)
def test_trace_csv_round_trip_property(raw):
    gaps, lat = zip(*raw) if raw else ((), ())
    trace = LatencyTrace(np.cumsum(gaps, dtype=np.int64), lat)
    buf = io.StringIO()
    trace_write(trace, buf)
    assert trace_read(io.StringIO(buf.getvalue())) == trace


_FIELD_SPELLINGS = (
    " {}", "{} ", "+{}", "\t{}", "{}\r", "{}_0", "0{}", "{}.0", "0x{}", "", "x", "{},1",
    "\u0663{}", "9223372036854775807", "-9223372036854775808", "-0", "--{}", "{}-",
)


def _random_csv(rng: random.Random) -> str:
    """Trace CSV text that is mostly well formed, with stray spellings,
    blank lines, CR line ends, ordering and latency faults mixed in."""
    header = rng.choice(
        ["timestamp_ns,latency_ns\n"] * 6 + ["timestamp_ns,latency_ns\r\n", "ts,lat\n"]
    )
    out = [header]
    t = rng.randrange(-1000, 10**6)
    for _ in range(rng.randrange(0, 30)):
        t += rng.randrange(0, 50_000) if rng.random() > 0.03 else -rng.randrange(1, 10)
        lat = rng.randrange(1, 100_000) if rng.random() > 0.03 else rng.randrange(-3, 1)
        fields = [str(t), str(lat)]
        if rng.random() < 0.1:
            k = rng.randrange(2)
            fields[k] = rng.choice(_FIELD_SPELLINGS).format(fields[k])
        sep = "," if rng.random() > 0.02 else rng.choice([";", ",,", ""])
        end = rng.choice(["\n"] * 20 + ["\r\n", "\r", "\n\n", ""])
        out.append(fields[0] + sep + fields[1] + end)
    return "".join(out)


def _read_outcome(read, source):
    try:
        return "ok", [tuple(row) for row in read(source)]
    except (ValueError, UnicodeError) as exc:  # TraceFormatError is a ValueError
        return type(exc).__name__, str(exc)


@contextlib.contextmanager
def _pipe_path(data: bytes, write_size: int | None = None):
    """A /dev/fd path naming the read end of a pipe that carries `data`.

    With no write_size, `data` (which must fit the pipe's buffer) is written
    and the write end closed before the path is read; otherwise a thread
    writes `data` write_size bytes at a time while it is read."""
    read_fd, write_fd = os.pipe()

    size = write_size or max(len(data), 1)

    def write():
        try:
            with open(write_fd, "wb") as out:
                for i in range(0, len(data), size):
                    out.write(data[i : i + size])
                    out.flush()
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=write)
    if write_size is None:
        write()
    else:
        writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        if writer.is_alive():
            writer.join()


@pytest.mark.parametrize(
    "seed", [1 << 20, 1, 64], ids=["one-batch", "line-batches", "64-char-batches"]
)
def test_trace_read_matches_line_parser(seed, tmp_path):
    # numpy's reader with the line parser behind it accepts and rejects
    # exactly what the line-at-a-time parser does, at the same line, from a
    # string, from a file (where a lone CR also ends a line) and from a pipe
    # whose writer has finished, read by path through one handle; `seed`
    # only seeds the random corpus
    def columns(source):
        trace = trace_read(source)
        return zip(trace.timestamps_ns.tolist(), trace.latencies_ns.tolist())

    rng = random.Random(seed)
    path = tmp_path / "trace.csv"
    n_ok = 0
    for case in range(300):
        text = _random_csv(rng)
        want = _read_outcome(trace_read_reference, io.StringIO(text))
        assert _read_outcome(columns, io.StringIO(text)) == want, (case, text)
        n_ok += want[0] == "ok"
        data = text.encode("utf-8")
        path.write_bytes(data)
        with open(path, encoding="ascii", newline="") as fh:
            want = _read_outcome(trace_read_reference, fh)
        assert _read_outcome(columns, path) == want, (case, text)
        with _pipe_path(data) as pipe:
            assert _read_outcome(columns, pipe) == want, (case, text)
    assert 25 < n_ok < 275


def _trace_rows(source):
    trace = trace_read(source)
    return zip(trace.timestamps_ns.tolist(), trace.latencies_ns.tolist())


@pytest.fixture(scope="module")
def long_trace_csv(tmp_path_factory):
    trace = sim_transmit(prbs_sequence(3_200, 8), ChannelConfig(ts_us=2_000), default_model(), seed=8)
    assert len(trace) > 200_000
    path = tmp_path_factory.mktemp("long") / "trace.csv"
    trace_write(trace, path)
    return trace, path


@pytest.mark.parametrize("write_size,n_rows", [(7, 5_000), (4093, None), (1 << 16, None), (1 << 20, None)])
def test_trace_read_takes_written_traces_whole(write_size, n_rows, long_trace_csv, monkeypatch, tmp_path):
    # numpy reads every row of a written trace, from its path, from a text
    # stream, and from a pipe read by path while a writer feeds it
    # `write_size` bytes at a time: falling back to the line parser fails
    # here instead of passing. A 7-byte write holds about one row, so that
    # case reads a prefix only.
    trace, path = long_trace_csv
    if n_rows is not None:
        trace = LatencyTrace(trace.timestamps_ns[:n_rows], trace.latencies_ns[:n_rows])
        path = tmp_path / "prefix.csv"
        trace_write(trace, path)

    def no_line_parse(*args):
        raise AssertionError("a written trace fell back to the line parser")

    monkeypatch.setattr(core, "_parse_rows", no_line_parse)
    with _pipe_path(path.read_bytes(), write_size) as pipe:
        sources = [path, io.StringIO(path.read_text()), pipe]
        for back in map(trace_read, sources):
            assert np.array_equal(back.timestamps_ns, trace.timestamps_ns)
            assert np.array_equal(back.latencies_ns, trace.latencies_ns)


def test_trace_read_takes_written_negative_timestamps_whole(long_trace_csv, monkeypatch, tmp_path):
    # trace_write writes "-" before a negative timestamp; the block parser
    # takes those rows too, from a path, a text stream and a pipe
    trace, _ = long_trace_csv
    ts = trace.timestamps_ns - trace.timestamps_ns[len(trace) // 2]
    trace = LatencyTrace(ts, trace.latencies_ns)
    path = tmp_path / "negative.csv"
    trace_write(trace, path)

    def no_line_parse(*args):
        raise AssertionError("a written trace fell back to the line parser")

    monkeypatch.setattr(core, "_parse_rows", no_line_parse)
    with _pipe_path(path.read_bytes(), 1 << 16) as pipe:
        for back in map(trace_read, [path, io.StringIO(path.read_text()), pipe]):
            assert back == trace


def test_trace_read_raises_a_span_fault_without_the_line_parser(monkeypatch, tmp_path):
    # the line parser names no line for a completion past INT64_MAX, so the
    # rows numpy read raise the constructor's ValueError at once
    n = 300_000
    path = tmp_path / "trace.csv"
    trace_write(LatencyTrace(np.arange(n) * 30_000, np.full(n, 20_000)), path)
    with open(path, "a", encoding="ascii") as fh:
        fh.write("9223372036854775000,1000\n")

    def no_line_parse(*args):
        raise AssertionError("a span fault went to the line parser")

    monkeypatch.setattr(core, "_parse_rows", no_line_parse)
    with pytest.raises(ValueError, match="^sample 300000: timestamp \\+ latency passes INT64_MAX$") as exc:
        trace_read(path)
    assert not isinstance(exc.value, TraceFormatError)


def test_trace_write_transient_memory_is_one_small_block(tmp_path):
    trace = sim_receive(IDLE, default_model(), 7, duration_ns=200_000 * 23_400)
    trace_write(LatencyTrace([1], [1]), tmp_path / "warm.csv")  # builds the digit tables once
    tracemalloc.start()
    try:
        trace_write(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) > 190_000
    assert peak < 3_000_000, peak


def test_trace_read_peak_memory_is_its_columns_and_one_block(tmp_path):
    # the block parser fills two columns of the exact size, so a read holds
    # little more than the trace: no rows array, no second copy
    trace = sim_receive(IDLE, default_model(), 7, duration_ns=200_000 * 23_400)
    path = tmp_path / "trace.csv"
    trace_write(trace, path)
    trace_read(path)  # warm lazy state outside the window
    tracemalloc.start()
    try:
        back = trace_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == LatencyTrace(trace.timestamps_ns, trace.latencies_ns)
    columns = trace.timestamps_ns.nbytes + trace.latencies_ns.nbytes
    assert len(trace) > 190_000
    assert peak <= 1.3 * columns, (peak, columns)


_HEADER = "timestamp_ns,latency_ns\n"


def _written(timestamps, latencies) -> str:
    out = io.StringIO()
    trace_write(LatencyTrace(timestamps, latencies), out)
    return out.getvalue()


# rows of 10 bytes: the block parser's first 64 KiB after the header ends
# 6 bytes into row 6,554
_BLOCK_ROWS = "".join(
    f"{1_000_000 + 7 * i},{i % 9 + 1}\n" for i in range(core._BLOCK // 10 + 50)
)
_EDGE_CASES = {
    "lone CR longer than a chunk": _HEADER + "".join(f"{t},{t + 1}\r" for t in range(0, 900, 9)),
    "last row without line end": _HEADER + "1,2\n3,4\n5,6",
    "chunk of blank lines": _HEADER + "1,2\n" + "\n" * 150 + "3,4\n" + "\n" * 40 + "5,6\n",
    "negative timestamps": _HEADER + "-90,3\n-7,2\n-7,9\n0,1\n-0,5\n",
    "18- and 19-character fields": _HEADER + "\n".join(
        [
            "-123456789012345678,3",
            "-23456789012345678,1",
            "0,2",
            "123456789012345678,999999999999999999",
            "1234567890123456789,1234567890123456789",
            "9099915247842430128,1",  # ends INT64_MAX after the first row starts
        ]
    ) + "\n",
    "int64 ends": _HEADER + "-9223372036854775808,9223372036854775807\n-2,1\n",
    "latest completion": _HEADER + "9223372036854775806,1\n",
    "decrease at a chunk edge": _HEADER + "10,1\n20,1\n15,1\n30,1\n",
    "row split across a block edge": _HEADER + _BLOCK_ROWS,
    "bad row in the last block": _HEADER + _BLOCK_ROWS + "2000000,x\n",
    "zero latency in the last block": _HEADER + _BLOCK_ROWS + "2000000,0\n",
    "empty first field": _HEADER + "1,2\n,5\n",
    "empty last field": _HEADER + "1,2\n5,\n",
    # fromstring reads INT64_MAX for a field it saturates, so a field that
    # reads it goes to the line parser, which takes this one
    "INT64_MAX latency": _HEADER + "0,9223372036854775807\n",
    "20-digit fields": _HEADER + "00000000000000000042,00000000000000000007\n50,1\n",
    "CRLF longer than a block": (_HEADER + _BLOCK_ROWS).replace("\n", "\r\n"),
    # deleting the digits leaves ",\r\n" and fromstring skips the CR, but a
    # file ends a line at that CR
    "lone CR after a comma": _HEADER + "1,\r2\n",
    "written negative timestamps across a block edge": _written(
        np.arange(core._BLOCK // 9) * 7 - 40_000, np.arange(core._BLOCK // 9) % 9 + 1
    ),
    # fromstring reads a bare "-" as 0
    "bare sign for a timestamp": _HEADER + "-5,1\n-,3\n4,2\n",
    "bare sign for a latency": _HEADER + "1,2\n5,-\n",
    "sign inside a field": _HEADER + "1,2\n5-3,4\n",
    "sign after a field": _HEADER + "1,2\n3-,3\n",
    "negative latency": _HEADER + "1,2\n5,-3\n",
}
_FAULTY_CASES = {
    "decrease at a chunk edge",
    "bad row in the last block",
    "zero latency in the last block",
    "empty first field",
    "empty last field",
    "bare sign for a timestamp",
    "bare sign for a latency",
    "sign inside a field",
    "sign after a field",
    "negative latency",
    "lone CR after a comma",
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_trace_read_chunk_edges_match_line_parser(case, tmp_path):
    # lone CRs, no final line end, runs of blank lines, negative, 19- and
    # 20-digit fields, an order fault after two good rows, and block edges:
    # a row split across one, a bad row after good blocks, empty fields and
    # CRLF rows past one block; from a path, a text stream and a pipe fed
    # 7 bytes at a time
    text = _EDGE_CASES[case]
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="ascii", newline="")
    with open(path, encoding="ascii", newline="") as fh:
        want_path = _read_outcome(trace_read_reference, fh)
    want_text = _read_outcome(trace_read_reference, io.StringIO(text))
    assert want_path[0] == ("TraceFormatError" if case in _FAULTY_CASES else "ok")
    assert _read_outcome(_trace_rows, path) == want_path
    assert _read_outcome(_trace_rows, io.StringIO(text)) == want_text
    with _pipe_path(text.encode("ascii"), 7) as pipe:
        assert _read_outcome(_trace_rows, pipe) == want_path


@pytest.mark.parametrize("field", ["-99999999999999999999", "-9223372036854775809"])
def test_trace_read_names_the_line_of_an_overflowing_negative_field(field, tmp_path):
    # fromstring saturates such a field, so its block goes to the line
    # parser, which names the line (the reference parser takes any size)
    text = _HEADER + f"1,2\n{field},3\n"
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="ascii")
    for source in (path, io.StringIO(text)):
        with pytest.raises(TraceFormatError, match="^line 3: field does not fit in int64"):
            trace_read(source)


def test_trace_read_keeps_a_stream_s_own_line_ends():
    # a stream that ends lines only at CRLF reads LF-only rows as one line,
    # as the line parser does, not as the rows the LFs would make
    data = b"timestamp_ns,latency_ns\r\n1,2\n3,4\n"

    def stream():
        return io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline="\r\n")

    want = _read_outcome(trace_read_reference, stream())
    assert want[0] == "TraceFormatError"
    assert _read_outcome(_trace_rows, stream()) == want


def test_frame_dataclass_is_frozen():
    frame = Frame(BitStream([1]))
    with pytest.raises(Exception):
        frame.payload = BitStream([0])
