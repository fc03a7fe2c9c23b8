"""Bit streams, framing, and trace CSV round trips."""

import io
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsyncchan import core
from fsyncchan.core import (
    DEFAULT_HEADER,
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
from synthgen import trace_from_bits, trace_read_reference

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
    with pytest.raises(ValueError):
        ChannelConfig(header=BitStream([1, 0, 1]))


def test_encode_frames_exact_fit():
    cfg = ChannelConfig(payload_len=8)
    payload = BitStream.from_text("10110010")
    frames = encode_frames(payload, cfg)
    assert len(frames) == 1
    assert frames[0].header == cfg.header
    assert frames[0].payload == payload


def test_encode_frames_pads_last():
    cfg = ChannelConfig(payload_len=8)
    payload = BitStream.from_text("101100101")  # 9 bits -> 2 frames
    frames = encode_frames(payload, cfg)
    assert len(frames) == 2
    assert frames[1].payload == BitStream.from_text("10000000")
    assert decode_frames(frames, 9) == payload


def test_encode_frames_rejects_empty():
    with pytest.raises(ValueError):
        encode_frames(BitStream(), ChannelConfig())


def test_decode_frames_trim_validation():
    cfg = ChannelConfig(payload_len=8)
    frames = encode_frames(BitStream.from_text("1111"), cfg)
    with pytest.raises(ValueError):
        decode_frames(frames, 9)


def test_frames_to_bits_layout():
    cfg = ChannelConfig(payload_len=4)
    frames = encode_frames(BitStream.from_text("11110000"), cfg)
    bits = frames_to_bits(frames)
    h = cfg.header.to_text()
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
    assert decode_frames(frames, len(bits)) == bits


# ---------------------------------------------------------------------------
# header search: the one header scan is receive_frame's, fed here from
# noiseless traces so each decision equals the bit that made it


def _scan(stream, *, payload_len=4, max_mismatches=0, max_symbols=None):
    cfg = ChannelConfig(ts_us=50, payload_len=payload_len)
    quiet = LatencyTrace(
        [LatencySample(i * 23_390, 21_390) for i in range(MIN_CALIBRATION_SAMPLES)]
    )
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
        ChannelConfig(header=BitStream())
    with pytest.raises(ValueError):
        _scan(DEFAULT_HEADER, max_mismatches=-1)
    with pytest.raises(ValueError):
        _scan(DEFAULT_HEADER, max_symbols=0)


# ---------------------------------------------------------------------------
# traces


def test_latency_trace_validation():
    LatencyTrace([LatencySample(0, 5), LatencySample(0, 5), LatencySample(3, 1)])
    with pytest.raises(ValueError, match="sample 0: latency"):
        LatencyTrace([LatencySample(0, 0)])
    with pytest.raises(ValueError, match="sample 0: latency"):
        LatencyTrace([LatencySample(0, -5)])
    with pytest.raises(ValueError, match="sample 1: timestamps"):
        LatencyTrace([LatencySample(10, 5), LatencySample(9, 5)])
    # the first bad sample is reported; on one sample the latency comes first
    with pytest.raises(ValueError, match="sample 1: latency"):
        LatencyTrace([LatencySample(10, 5), LatencySample(9, 0), LatencySample(8, -1)])
    with pytest.raises(ValueError, match="sample 1: timestamps"):
        LatencyTrace.from_columns([10, 9, 9], [5, 5, 0])
    with pytest.raises(ValueError, match="timestamps must be .* int64 integers"):
        LatencyTrace([LatencySample(0, 5), LatencySample(2**63, 5)])
    with pytest.raises(ValueError, match="latencies must be .* int64 integers"):
        LatencyTrace.from_columns([0, 1], [5, 2.5])
    with pytest.raises(ValueError, match="lengths differ"):
        LatencyTrace.from_columns([0, 1], [5])


def test_latency_trace_columns_are_immutable():
    ts = np.array([0, 10, 20])
    lat = np.array([5, 5, 5])
    trace = LatencyTrace.from_columns(ts, lat)
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
    samples = [LatencySample(0, 100), LatencySample(150, 50)]
    trace = LatencyTrace(samples)
    assert trace == LatencyTrace.from_columns([0, 150], [100, 50])
    assert trace == LatencyTrace.from_columns(np.array([0, 150], dtype=np.uint8), [100, 50])
    assert trace != LatencyTrace.from_columns([0, 150], [100, 51])
    assert trace != LatencyTrace.from_columns([0, 151], [100, 50])
    assert trace != LatencyTrace.from_columns([0], [100])
    assert trace != LatencyTrace(samples, TraceMeta(session="other"))
    assert LatencyTrace([]) == LatencyTrace.from_columns([], [])


def test_latency_trace_accessors():
    samples = [LatencySample(0, 100), LatencySample(150, 50)]
    trace = LatencyTrace(samples, TraceMeta(warmup_samples=1))
    assert len(trace) == 2
    assert trace[1] == samples[1]
    assert trace.latencies() == [100, 50]
    assert trace.non_warmup() == (samples[1],)
    assert trace.samples == tuple(samples) and list(trace) == samples
    assert trace[-1] == samples[1] and trace[0:1] == (samples[0],)
    assert trace.timestamps_ns.tolist() == [0, 150]
    assert trace.duration_ns == 150 + 50 - 0
    assert LatencyTrace([]).duration_ns == 0


def test_validate_sequential():
    LatencyTrace([LatencySample(0, 100), LatencySample(100, 50)]).validate_sequential()
    overlapping = LatencyTrace([LatencySample(0, 100), LatencySample(60, 50)])
    with pytest.raises(ValueError):
        overlapping.validate_sequential()


def test_trace_csv_round_trip():
    rng = random.Random(5)
    t = 0
    samples = []
    for _ in range(1000):
        t += rng.randrange(0, 50_000)
        samples.append(LatencySample(t, rng.randrange(1, 100_000)))
    trace = LatencyTrace(samples)
    buf = io.StringIO()
    trace_write(trace, buf)
    text = buf.getvalue()
    assert text.startswith("timestamp_ns,latency_ns\n")
    back = trace_read(io.StringIO(text))
    assert back.samples == trace.samples
    # writing the parsed trace again is byte-identical
    buf2 = io.StringIO()
    trace_write(back, buf2)
    assert buf2.getvalue() == text


def test_trace_csv_file_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    trace = LatencyTrace([LatencySample(10, 20), LatencySample(40, 1)])
    trace_write(trace, path)
    assert trace_read(path).samples == trace.samples
    assert trace_read(str(path)).samples == trace.samples


def test_trace_csv_empty_trace():
    buf = io.StringIO()
    trace_write(LatencyTrace([]), buf)
    assert buf.getvalue() == "timestamp_ns,latency_ns\n"
    assert len(trace_read(io.StringIO(buf.getvalue()))) == 0


def test_trace_read_meta_passthrough():
    meta = TraceMeta(probe_mode="write", session="abc", warmup_samples=2)
    text = "timestamp_ns,latency_ns\n1,2\n"
    assert trace_read(io.StringIO(text), meta).meta == meta


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


@given(
    st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(1, 10_000_000)),
        max_size=60,
    )
)
def test_trace_csv_round_trip_property(raw):
    t = 0
    samples = []
    for gap, lat in raw:
        t += gap
        samples.append(LatencySample(t, lat))
    trace = LatencyTrace(samples)
    buf = io.StringIO()
    trace_write(trace, buf)
    assert trace_read(io.StringIO(buf.getvalue())).samples == trace.samples


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
    except (TraceFormatError, UnicodeError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "hint", [1 << 20, 1, 64], ids=["one-batch", "line-batches", "64-char-batches"]
)
def test_trace_read_matches_line_parser(hint, monkeypatch, tmp_path):
    # the column parser accepts and rejects exactly what the line-at-a-time
    # parser does, at the same line, from a string or from a file (where a
    # lone CR also ends a line); batches of lines split the input at `hint`
    monkeypatch.setattr(core, "_READ_HINT", hint)

    def columns(source):
        trace = trace_read(source)
        return zip(trace.timestamps_ns.tolist(), trace.latencies_ns.tolist())

    rng = random.Random(hint)
    path = tmp_path / "trace.csv"
    n_ok = 0
    for case in range(300):
        text = _random_csv(rng)
        want = _read_outcome(trace_read_reference, io.StringIO(text))
        assert _read_outcome(columns, io.StringIO(text)) == want, (case, text)
        n_ok += want[0] == "ok"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="ascii", newline="") as fh:
            want = _read_outcome(trace_read_reference, fh)
        assert _read_outcome(columns, path) == want, (case, text)
    assert 25 < n_ok < 275


def test_frame_dataclass_is_frozen():
    frame = Frame(DEFAULT_HEADER, BitStream([1]))
    with pytest.raises(Exception):
        frame.payload = BitStream([0])
