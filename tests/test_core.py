"""Bit streams, framing, and trace CSV round trips."""

import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from synthgen import trace_from_bits

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


def test_bitstream_hex_round_trip_examples():
    bs = BitStream.from_text("10110101")
    assert bs.to_hex() == "b5"
    assert BitStream.from_hex("b5") == bs
    # non-multiple-of-4 lengths pad the final nibble with zeros
    bs5 = BitStream.from_text("10111")
    assert bs5.to_hex() == "b8"
    assert BitStream.from_hex("b8", n_bits=5) == bs5
    assert BitStream().to_hex() == ""
    assert BitStream.from_hex("") == BitStream()


def test_bitstream_from_hex_length_validation():
    with pytest.raises(ValueError):
        BitStream.from_hex("b5", n_bits=9)  # more bits than digits carry
    with pytest.raises(ValueError):
        BitStream.from_hex("b5", n_bits=4)  # would drop a whole digit


@given(st.lists(st.integers(0, 1), max_size=200))
def test_bitstream_text_hex_round_trip_property(bits):
    bs = BitStream(bits)
    assert BitStream.from_text(bs.to_text()) == bs
    assert BitStream.from_hex(bs.to_hex(), n_bits=len(bs)) == bs


def test_bitstream_random_deterministic():
    a = BitStream.random(100, random.Random(3))
    b = BitStream.random(100, random.Random(3))
    assert a == b
    assert len(a) == 100


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
    with pytest.raises(ValueError):
        LatencyTrace([LatencySample(0, 0)])
    with pytest.raises(ValueError):
        LatencyTrace([LatencySample(0, -5)])
    with pytest.raises(ValueError):
        LatencyTrace([LatencySample(10, 5), LatencySample(9, 5)])


def test_latency_trace_accessors():
    samples = [LatencySample(0, 100), LatencySample(150, 50)]
    trace = LatencyTrace(samples, TraceMeta(warmup_samples=1))
    assert len(trace) == 2
    assert trace[1] == samples[1]
    assert trace.latencies() == [100, 50]
    assert trace.non_warmup() == (samples[1],)
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


def test_frame_dataclass_is_frozen():
    frame = Frame(DEFAULT_HEADER, BitStream([1]))
    with pytest.raises(Exception):
        frame.payload = BitStream([0])
