"""End-to-end CLI behavior, driven through main(argv) in process.

One subprocess smoke test checks the installed console script; everything
else calls main() directly so coverage and debugging stay simple.
"""

import csv
import hashlib
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fsyncchan
from fsyncchan import cli
from fsyncchan.cli import BENCH_CSV_HEADER, derive_seed, main
from fsyncchan.core import (
    MAX_PAYLOAD_LEN,
    LatencyTrace,
    prbs_sequence,
    trace_write,
)
from fsyncchan import simchan
from fsyncchan.simchan import CROSS_DISK_PRESET, MAX_NOISE_BURSTS, MAX_SIM_PROBES, MAX_SIM_SYMBOLS

from synthgen import (
    ESCAPING_NAMES,
    escaping_dataset,
    insert_workload,
    keystroke_workload,
    trace_from_bits,
    victim_trace,
)


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_sim_prints_threshold(capsys):
    assert main(["calibrate", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("theta_ns=")
    assert "rule=mean" in out
    theta = int(out.split()[0].split("=")[1])
    # default quiet model sits near 21.4 us, relative rule puts theta at 1.5x
    assert 30_000 < theta < 34_000


def test_calibrate_out_file(tmp_path, capsys):
    out = tmp_path / "cal.txt"
    assert main(["calibrate", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    kv = dict(line.split("=", 1) for line in out.read_text().splitlines())
    assert set(kv) == {"theta_ns", "quiet_mean_ns", "quiet_std_ns", "rule"}
    assert kv["rule"] == "mean"
    assert 30_000 < int(kv["theta_ns"]) < 34_000
    assert float(kv["quiet_std_ns"]) >= 0.0


def test_calibrate_seed_determinism(capsys):
    main(["calibrate", "--seed", "42"])
    first = capsys.readouterr().out
    main(["calibrate", "--seed", "42"])
    assert capsys.readouterr().out == first
    main(["calibrate", "--seed", "43"])
    assert capsys.readouterr().out != first


@pytest.mark.parametrize("value", ["5000", "0", "nan"])
def test_calibrate_sim_rejects_duration(value, capsys):
    # sim calibration always simulates quiet_duration_ns; --duration-us sets
    # live probing only, so in sim mode it is refused, not silently ignored
    assert main(["calibrate", "--seed", "7", f"--duration-us={value}"]) == 2
    err = capsys.readouterr().err
    assert "--duration-us needs --file" in err
    assert "Traceback" not in err


@pytest.fixture
def probed(monkeypatch):
    """The durations live calibrations ask cli's ProbeHandle to probe, which
    is a fake that answers with quiet fsyncs of 21 or 22 us, 23 us apart."""
    durations = []

    class FakeProbeHandle:
        def __init__(self, path, mode):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def probe_for(self, duration_us):
            durations.append(duration_us)
            n = int(duration_us * 1000) // 23_000 + 1
            lat = [21_000 + i % 2 * 1_000 for i in range(n)]
            return LatencyTrace(range(0, 23_000 * n, 23_000), lat)

    monkeypatch.setattr(cli, "ProbeHandle", FakeProbeHandle)
    return durations


@pytest.mark.parametrize("decision, ts_us, quiet_us", [
    ("mean", 50, 20_000.0),
    ("stddev", 50, 20_000.0),
    ("stddev", 400, 112_000.0),
])
def test_calibrate_live_default_duration(decision, ts_us, quiet_us, probed, capsys):
    # live probing takes 4x the simulator's quiet duration: 20 ms, and under
    # stddev at least 280 symbols
    argv = ["calibrate", "--file", "PROBE", "--decision", decision, "--ts-us", str(ts_us)]
    assert main(argv) == 0
    assert probed == [quiet_us]
    assert f"rule={decision}" in capsys.readouterr().out


def test_calibrate_live_explicit_duration(probed, capsys):
    assert main(["calibrate", "--file", "PROBE", "--duration-us", "7500"]) == 0
    assert probed == [7_500.0]
    capsys.readouterr()


def test_cpu_pins_the_process_before_the_probe():
    # main runs in a child, so this process keeps its CPU set; the child's
    # stand-in handle reports the set it was made under and stops the run
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    code = (
        "import os\n"
        "from fsyncchan import cli\n"
        "def handle(path, mode):\n"
        "    print(sorted(os.sched_getaffinity(0)))\n"
        "    raise OSError('stop')\n"
        "cli.ProbeHandle = handle\n"
        f"raise SystemExit(cli.main(['calibrate', '--file', 'PROBE', '--cpu', '{cpu}']))\n"
    )
    proc = _fresh_python("-c", code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.strip() == str([cpu])
    assert os.sched_getaffinity(0) == allowed


def test_cpu_outside_the_allowed_set_exits_2(tmp_path, capsys):
    # refused before the file is opened: no descriptor left, no pinning
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed) + 1
    probe = tmp_path / "probe.dat"
    probe.write_bytes(b"\0" * 4096)
    fds = set(os.listdir("/proc/self/fd"))
    assert main(["calibrate", "--file", str(probe), "--cpu", str(cpu)]) == 2
    err = capsys.readouterr().err
    assert f"error: --cpu {cpu} is not one this process may run on" in err
    assert "Traceback" not in err
    assert set(os.listdir("/proc/self/fd")) == fds
    assert os.sched_getaffinity(0) == allowed


@pytest.mark.parametrize("argv", [
    ["calibrate", "--seed", "7"],
    ["send", "--seed", "7", "--out", "T.csv"],
    ["recv", "--seed", "7", "--trace", "T.csv"],
])
def test_cpu_without_file_exits_2(argv, capsys):
    # --cpu pins the live probe; sim mode has none, so it is refused, not ignored
    assert main([*argv, "--cpu", "0"]) == 2
    err = capsys.readouterr().err
    assert "error: --cpu needs --file" in err
    assert "Traceback" not in err
    assert main([*argv, "--cpu", "-1"]) == 2
    assert "argument --cpu: must be >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# send / recv loopback


def test_send_recv_roundtrip(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    recovered = tmp_path / "payload.txt"
    rc = main(
        [
            "send", "--seed", "3", "--payload-bits", "512",
            "--frame-payload-len", "512", "--out", str(trace),
        ]
    )
    assert rc == 0
    sent_line = capsys.readouterr().out
    assert "sent 1 frame(s), 512 payload bits" in sent_line
    assert trace.is_file()

    rc = main(
        [
            "recv", "--seed", "3", "--trace", str(trace),
            "--frame-payload-len", "512", "--payload-bits", "512",
            "--out", str(recovered),
        ]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "recovered 1 frame(s), 512 payload bits" in err
    expected = prbs_sequence(512, derive_seed(3, "payload")).to_text()
    assert recovered.read_text().strip() == expected


def test_recv_prints_bits_without_out(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    main(["send", "--seed", "5", "--payload-bits", "64",
          "--frame-payload-len", "64", "--out", str(trace)])
    capsys.readouterr()
    rc = main(["recv", "--seed", "5", "--trace", str(trace),
               "--frame-payload-len", "64"])
    assert rc == 0
    captured = capsys.readouterr()
    expected = prbs_sequence(64, derive_seed(5, "payload")).to_text()
    assert captured.out.strip() == expected


def test_send_payload_file(tmp_path, capsys):
    payload = tmp_path / "bits.txt"
    payload.write_text("1011 0010\n1100 0001\n")
    trace = tmp_path / "trace.csv"
    rc = main(["send", "--seed", "1", "--payload-file", str(payload),
               "--frame-payload-len", "16", "--out", str(trace)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["recv", "--seed", "1", "--trace", str(trace),
               "--frame-payload-len", "16", "--payload-bits", "16"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1011001011000001"


def test_recv_quiet_trace_times_out(tmp_path, capsys):
    trace = tmp_path / "quiet.csv"
    trace_write(trace_from_bits([0] * 600), trace)
    rc = main(["recv", "--seed", "1", "--trace", str(trace)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("timeout:")


def test_recv_theta_needs_no_seed(tmp_path, capsys):
    # the seed only feeds the simulated calibration, which --theta-ns skips
    trace = tmp_path / "trace.csv"
    main(["send", "--seed", "5", "--payload-bits", "64",
          "--frame-payload-len", "64", "--out", str(trace)])
    capsys.readouterr()
    args = ["recv", "--trace", str(trace), "--frame-payload-len", "64"]
    assert main([*args, "--theta-ns", "32000"]) == 0
    unseeded = capsys.readouterr().out
    assert main([*args, "--theta-ns", "32000", "--seed", "5"]) == 0
    assert capsys.readouterr().out == unseeded
    assert unseeded.strip() == prbs_sequence(64, derive_seed(5, "payload")).to_text()
    # without --theta-ns, recv calibrates and the seed is still required
    assert main(args) == 2
    assert "--seed is required in sim mode" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["recv", "--bogus-flag"],  # unknown option
        ["analyze", "episodes", "--theta-ns", "1"],  # missing required --trace/--out
        ["bench"],  # bench is sim-only but --seed missing is caught later; still code 2
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta-ns", "0"], "argument --theta-ns"),
        (["--theta-ns", "-5"], "argument --theta-ns"),
        (["--max-mismatches", "-1"], "argument --max-mismatches"),
        (["--frames", "0"], "argument --frames"),
        (["--max-symbols", "0"], "argument --max-symbols"),
        (["--payload-bits", "-5"], "argument --payload-bits"),
        # a symbol wider than int64 ns: a configuration error, not a traceback
        (["--ts-us", str(10**16), "--theta-ns", "30000"],
         f"error: duration_us={10**16} is wider than INT64_MAX ns\n"),
    ],
    ids=[
        "theta-zero",
        "theta-negative",
        "mismatches-negative",
        "frames-zero",
        "symbols-zero",
        "payload-bits-negative",
        "ts-past-int64",
    ],
)
def test_recv_rejects_out_of_range_values(flags, message, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace_write(trace_from_bits([0] * 100), trace)
    assert main(["recv", "--seed", "1", "--trace", str(trace), *flags]) == 2
    err = capsys.readouterr().err
    assert message in err


def test_missing_seed_exits_2(tmp_path, capsys):
    rc = main(["send", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_real_without_file_exits_2(capsys):
    # --file PATH selects the real probe; the flag needs its path
    assert main(["calibrate", "--file"]) == 2
    assert "--file" in capsys.readouterr().err
    # there is no separate --real switch
    assert main(["calibrate", "--real"]) == 2
    assert "unrecognized arguments: --real" in capsys.readouterr().err


def test_live_recv_without_theta_exits_2(tmp_path, capsys):
    # a live receiver has no quiet traffic of its disk to calibrate on; it
    # does not fall back to the simulator's threshold
    probe = tmp_path / "probe.dat"
    probe.write_bytes(b"\0" * 4096)
    assert main(["recv", "--file", str(probe), "--seed", "1"]) == 2
    assert "`fsyncchan calibrate --file PATH`" in capsys.readouterr().err


def test_bad_sim_params_exits_2(tmp_path, capsys):
    params = tmp_path / "params.txt"
    params.write_text("this is not a key value line\n")
    rc = main(["calibrate", "--seed", "1", "--sim-params", str(params)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "send"])
@pytest.mark.parametrize(
    "line, field",
    [
        ("contended.std_ns = inf", "std_ns"),
        ("contended.std_ns = 1e300", "std_ns"),
        ("standalone.mean_ns = nan", "mean_ns"),
    ],
)
def test_nonfinite_sim_params_exit_2(command, line, field, tmp_path, capsys):
    # a latency the simulator cannot hold in int64 ns is a usage error that
    # names the params-file key, not a traceback from deep in the probe loop
    params = tmp_path / "params.txt"
    params.write_text(line + "\n")
    argv = [command, "--seed", "1", "--payload-bits", "64", "--sim-params", str(params)]
    argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    key = line.split("=")[0].strip()
    assert key.endswith(field)
    assert f"error: {key} must be finite and at most 1e12 ns" in err
    assert "Traceback" not in err


def test_send_noise_past_burst_cap_exits_2(tmp_path, capsys, monkeypatch):
    # 8,024 s of critical noise would be about 4e7 bursts: refused before
    # the first one is drawn, not minutes and gigabytes later
    def no_draw(self, rate):
        raise AssertionError("a noise burst was drawn")

    monkeypatch.setattr(random.Random, "expovariate", no_draw)
    argv = ["send", "--seed", "3", "--ts-us", "1000000", "--noise", "critical"]
    start = time.perf_counter()
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "over a 8,024 s horizon" in err
    assert f"over the limit of {MAX_NOISE_BURSTS:,}" in err
    assert not (tmp_path / "out.csv").exists()


def test_send_past_probe_cap_exits_2(tmp_path, capsys, monkeypatch):
    # 124 symbols of 1,000 s would be about 5e9 probes: refused before the
    # first probe variate is drawn
    def no_draw(rng, n, model):
        raise AssertionError("a probe variate was drawn")

    monkeypatch.setattr(simchan, "_draw_latencies", no_draw)
    argv = ["send", "--seed", "1", "--ts-us", "1000000000", "--payload-bits", "100"]
    argv += ["--frame-payload-len", "100", "--out", str(tmp_path / "out.csv")]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "simulating a 124,000 s horizon" in err
    assert f"over the limit of {MAX_SIM_PROBES:,}" in err
    assert not (tmp_path / "out.csv").exists()


def test_send_noise_past_probe_cap_exits_2(tmp_path, capsys, monkeypatch):
    # 1,240 s of high noise is about 620,000 bursts, under the burst cap, but
    # about 5e7 probes: refused before the first burst is drawn
    def no_draw(self, rate):
        raise AssertionError("a noise burst was drawn")

    monkeypatch.setattr(random.Random, "expovariate", no_draw)
    argv = ["send", "--seed", "1", "--ts-us", "10000000", "--payload-bits", "100"]
    argv += ["--frame-payload-len", "100", "--noise", "high", "--out", str(tmp_path / "out.csv")]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "simulating a 1,240 s horizon" in err
    assert f"over the limit of {MAX_SIM_PROBES:,}" in err
    assert not (tmp_path / "out.csv").exists()


_HUGE_PAYLOAD = ["--payload-bits", "100000000", "--frame-payload-len", "1000000"]
_SMALL_PAYLOAD = ["--payload-bits", "100", "--frame-payload-len", "100"]


@pytest.mark.parametrize(
    "argv, horizon",
    [
        (["send", "--ts-us", "50", *_HUGE_PAYLOAD], "5,000.12 s"),
        (["bench", "--ts-us", "50,200", *_HUGE_PAYLOAD], "5,000.22 s"),
        # the second run is over the cap: refused before the first is drawn
        (["bench", "--ts-us", "50,1000000000", *_SMALL_PAYLOAD], "124,000 s"),
    ],
)
def test_payload_past_probe_cap_exits_2_before_drawing(
    argv, horizon, tmp_path, capsys, monkeypatch
):
    # 100 frames of 1,000,024 symbols of 50 us would be about 2e8 probes: a
    # run over the cap is refused before any payload is drawn or framed
    def no_draw(n_bits, seed):
        raise AssertionError("a payload was drawn")

    monkeypatch.setattr(cli, "prbs_sequence", no_draw)
    start = time.perf_counter()
    assert main(argv + ["--seed", "1", "--out", str(tmp_path / "out.csv")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"simulating a {horizon} horizon" in err
    assert f"over the limit of {MAX_SIM_PROBES:,}" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, symbols",
    [
        (["send", "--payload-bits", "10000000"], "10,000,240"),
        (["send", "--payload-bits", "100000000"], "100,002,400"),
        (["bench", "--payload-bits", "100000000"], "100,002,400"),
    ],
)
def test_symbols_past_cap_exit_2_before_drawing(argv, symbols, tmp_path, capsys, monkeypatch):
    # frames of 1,000,024 symbols of 1 us are under the burst and probe caps
    # (a 100 s horizon is about 3e6 probes), but every symbol would be held
    # in memory several times over: refused before any payload or schedule
    # is built
    def no_payload(n_bits, seed):
        raise AssertionError("a payload was drawn")

    def no_schedule(bits, ts_us):
        raise AssertionError("a sender schedule was built")

    monkeypatch.setattr(cli, "prbs_sequence", no_payload)
    monkeypatch.setattr(simchan, "SenderSchedule", no_schedule)
    argv += ["--seed", "1", "--ts-us", "1", "--frame-payload-len", "1000000"]
    start = time.perf_counter()
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"simulating {symbols} symbols is over the limit of {MAX_SIM_SYMBOLS:,}" in err
    assert not (tmp_path / "out.csv").exists()


def test_sim_params_seed_key_exits_2(tmp_path, capsys):
    # the run seed comes from --seed only; a params file may not carry one
    params = tmp_path / "params.txt"
    params.write_text("contended.mean_ns = 50000\nseed = 7\n")
    rc = main(["calibrate", "--seed", "1", "--sim-params", str(params)])
    assert rc == 2
    assert "line 2: unknown key 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["send", "bench", "calibrate"])
def test_sim_params_noise_key_exits_2(command, tmp_path, capsys):
    # a params file describes the contention model; noise is set per run
    # with --noise, so a noise.degree line is an unknown key, not a default
    params = tmp_path / "params.txt"
    params.write_text("contended.mean_ns = 50000\nnoise.degree = high\n")
    argv = [command, "--seed", "1", "--sim-params", str(params)]
    if command != "calibrate":
        argv += ["--ts-us", "50", "--payload-bits", "64", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert "line 2: unknown key 'noise.degree'" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_bench_has_no_mode_flag(capsys):
    # bench never probes a file, so it takes neither --file nor --mode
    assert main(["bench", "--seed", "1", "--ts-us", "50", "--payload-bits", "64",
                 "--mode", "fsync"]) == 2
    assert "unrecognized arguments: --mode fsync" in capsys.readouterr().err


def test_bench_frame_payload_len_over_limit_exits_2(capsys, monkeypatch):
    # every symbol of a frame is simulated and scanned, its padding included,
    # so a frame past the limit is refused before the simulator runs
    monkeypatch.setattr(cli, "loopback", lambda *a, **k: pytest.fail("simulator called"))
    argv = ["bench", "--seed", "1", "--ts-us", "50", "--payload-bits", "10"]
    assert main(argv + ["--frame-payload-len", str(MAX_PAYLOAD_LEN + 1)]) == 2
    assert "payload_len must be 1 to 1000000, got 1000001" in capsys.readouterr().err


def test_payload_trim_too_long_exits_2(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    main(["send", "--seed", "2", "--payload-bits", "32",
          "--frame-payload-len", "32", "--out", str(trace)])
    capsys.readouterr()
    rc = main(["recv", "--seed", "2", "--trace", str(trace),
               "--frame-payload-len", "32", "--payload-bits", "64"])
    assert rc == 2
    capsys.readouterr()


def test_missing_trace_file_exits_1(tmp_path, capsys):
    rc = main(["recv", "--seed", "1", "--trace", str(tmp_path / "absent.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_probe_file_exits_1(tmp_path, capsys):
    rc = main(["calibrate", "--file", str(tmp_path / "absent.dat")])
    assert rc == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "calibrate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bench


def test_bench_csv_shape_and_determinism(tmp_path, capsys):
    args = [
        "bench", "--seed", "11", "--ts-us", "50", "--noise", "none,medium",
        "--payload-bits", "2000", "--frame-payload-len", "2000",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["none", "medium"]
    for r in rows:
        assert r[0] == "50" and r[2] == "2000"
        p_err = float(r[7])
        assert 0.0 <= p_err <= 1.0
        assert float(r[8]) == 20000.0
    assert float(rows[0][7]) <= float(rows[1][7])  # noise cannot help


def test_bench_rows_pinned(capsys):
    rc = main(["bench", "--seed", "1234", "--ts-us", "50", "--noise", "none,high",
               "--payload-bits", "80000"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        BENCH_CSV_HEADER,
        "50,none,80000,0,11,0.000000,0.000274,0.000138,20000.000,19960.755",
        "50,high,80000,0,797,0.000000,0.019945,0.009962,20000.000,18389.111",
    ]
    # rows whose loopback loses frames: the header scan runs across many
    # symbols, and a lost frame is scored as the complement of its payload
    rc = main(["bench", "--seed", "15", "--ts-us", "50", "--noise", "high",
               "--payload-bits", "80000"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        BENCH_CSV_HEADER,
        "50,high,80000,19756,20330,0.493888,0.508263,0.501075,20000.000,0.000",
    ]
    rc = main(["bench", "--seed", "7", "--ts-us", "50,400", "--noise", "critical,high",
               "--payload-bits", "20000", "--frame-payload-len", "1000"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        BENCH_CSV_HEADER,
        "50,critical,20000,10041,9959,1.000000,1.000000,1.000000,20000.000,0.000",
        "50,high,20000,1736,1911,0.170698,0.194405,0.182350,20000.000,6296.179",
        "400,critical,20000,0,1,0.000000,0.000101,0.000050,2500.000,2498.034",
        "400,high,20000,0,0,0.000000,0.000000,0.000000,2500.000,2500.000",
    ]


def test_bench_scores_payload_bits_not_padding(capsys):
    # 8,100 bits fill one 8,000-bit frame and 100 bits of a second; its
    # 7,900 padding zeros are not scored
    rc = main(["bench", "--seed", "1234", "--ts-us", "50", "--noise", "none,critical",
               "--payload-bits", "8100"])
    assert rc == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[2] for row in rows] == ["8100", "8100"]
    # critical noise loses both frames: every payload bit is an error, the
    # lost partial last frame counting its 100 real bits only
    ones = prbs_sequence(8100, derive_seed(1234, "payload:50:critical")).count(1)
    assert rows[1][3:5] == [str(ones), str(8100 - ones)]


def _replay_channel_args(tmp_path):
    """The replay benchmark's channel: cross-disk preset, 400 us stddev
    symbols, 8000-bit frames."""
    (sa_mean, sa_std), (co_mean, co_std) = CROSS_DISK_PRESET
    params = tmp_path / "cross-disk.params"
    params.write_text(
        f"standalone.mean_ns={sa_mean!r}\nstandalone.std_ns={sa_std!r}\n"
        f"contended.mean_ns={co_mean!r}\ncontended.std_ns={co_std!r}\n"
    )
    return ["--sim-params", str(params), "--ts-us", "400", "--decision", "stddev",
            "--seed", "1234", "--frame-payload-len", "8000"]


def _send_replay_trace(tmp_path, capsys):
    """The replay benchmark's `fsyncchan send` of two frames; its CSV path."""
    out = tmp_path / "send.csv"
    rc = main(["send", *_replay_channel_args(tmp_path), "--payload-bits", "16000",
               "--out", str(out)])
    assert rc == 0
    assert "wrote 271580 samples" in capsys.readouterr().out
    return out


def test_send_trace_pinned(tmp_path, capsys):
    # the replay benchmark's `fsyncchan send`: 271,580 probe rows
    out = _send_replay_trace(tmp_path, capsys)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "8b552def54702aa9fa743e35a05e8cbb8fa4748031ec0b5d1f510473c94ce126"


def test_recv_stddev_trace_pinned(tmp_path, capsys):
    # `fsyncchan recv --decision stddev` over the pinned send trace: frame 0
    # decodes (with 12 bit errors), frame 1 is lost within its 4-frame search
    trace = _send_replay_trace(tmp_path, capsys)
    got = tmp_path / "recv.txt"
    args = ["recv", *_replay_channel_args(tmp_path), "--trace", str(trace)]
    assert main([*args, "--frames", "1", "--out", str(got)]) == 0
    assert "recovered 1 frame(s), 8000 payload bits" in capsys.readouterr().err
    digest = hashlib.sha256(got.read_bytes()).hexdigest()
    assert digest == "f5489c347c6ed8d20690795d39b202780abc5dea72c0a8a8d82b4bead4934cbc"
    assert main([*args, "--frames", "2", "--out", str(got)]) == 3
    assert "recovered 1/2 frame(s) within 32096 symbols each" in capsys.readouterr().err


def test_bench_stdout_when_no_out(capsys):
    rc = main(["bench", "--seed", "4", "--ts-us", "200", "--noise", "none",
               "--payload-bits", "500", "--frame-payload-len", "500"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith(BENCH_CSV_HEADER)
    assert len(out.splitlines()) == 2


# ---------------------------------------------------------------------------
# analyze: episodes / rate / splits / keystrokes / classify


@pytest.fixture(scope="module")
def ops_trace(tmp_path_factory):
    """Five 400 us victim ops 20 ms apart, recorded by the simulated probe."""
    windows = [(20_000_000 * (i + 1), 20_000_000 * (i + 1) + 400_000) for i in range(5)]
    trace = victim_trace(windows, seed=31, contended=(120_000, 10_000))
    path = tmp_path_factory.mktemp("ops") / "ops.csv"
    trace_write(trace, path)
    return path, windows


def test_analyze_episodes(ops_trace, tmp_path, capsys):
    trace_path, windows = ops_trace
    out = tmp_path / "episodes.csv"
    rc = main(["analyze", "episodes", "--trace", str(trace_path),
               "--theta-ns", "70000", "--max-gap-ns", "500000", "--out", str(out)])
    assert rc == 0
    assert "5 episode(s)" in capsys.readouterr().out
    rows = _read_csv(out)
    assert rows[0] == ["start_ns", "end_ns", "est_latency_ns", "n_samples"]
    assert len(rows) == 6
    for row, (w_start, w_end) in zip(rows[1:], windows):
        start, end, est, n = (int(v) for v in row)
        assert abs(start - w_start) < 50_000
        assert est == end - start
        assert n >= 1


@pytest.mark.parametrize(
    "rows,message",
    [
        (["9223372036854775000,1000", "9223372036854775100,90000"],
         "sample 0: timestamp \\+ latency passes INT64_MAX"),
        (["-9223372036854775808,1000", "9223372036854774000,1000", "9223372036854774500,90000"],
         "sample 1: completion lies more than INT64_MAX ns after the first timestamp"),
    ],
    ids=["completion-past-int64", "span-past-int64"],
)
def test_analyze_episodes_trace_past_int64_exits_2(rows, message, tmp_path, capsys):
    # int64 completions and gaps would wrap: the trace is refused on reading
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("timestamp_ns,latency_ns\n" + "\n".join(rows) + "\n")
    out = tmp_path / "episodes.csv"
    for gap in ([], ["--max-gap-ns", "1000"]):
        rc = main(["analyze", "episodes", "--trace", str(trace_path), "--theta-ns", "500",
                   *gap, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search("error: " + message, err), err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("rows, n", [(["1000,90000"], 1), ([], 0)], ids=["one-row", "header-only"])
@pytest.mark.parametrize("command", ["episodes", "splits", "keystrokes"])
def test_analyze_takes_a_trace_of_any_length(command, rows, n, tmp_path, capsys):
    # the default gap is derived only between two above-threshold samples
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("timestamp_ns,latency_ns\n" + "".join(r + "\n" for r in rows))
    out = tmp_path / "out.csv"
    rc = main(["analyze", command, "--trace", str(trace_path), "--theta-ns", "50000",
               "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert capsys.readouterr().out.startswith(f"{n} ")
    assert len(_read_csv(out)) == 1 + n


def test_analyze_rate(ops_trace, tmp_path, capsys):
    trace_path, _ = ops_trace
    out = tmp_path / "rate.csv"
    rc = main(["analyze", "rate", "--trace", str(trace_path),
               "--theta-ns", "70000", "--bucket-s", "0.05",
               "--samples-per-request", "4", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = _read_csv(out)
    assert rows[0] == ["bucket", "t_start_s", "count_above", "est_requests"]
    counts = [int(r[2]) for r in rows[1:]]
    assert sum(counts) > 0
    for r in rows[1:]:
        assert float(r[3]) == pytest.approx(int(r[2]) / 4, abs=0.01)


def test_analyze_rate_too_many_buckets_exits_2(ops_trace, tmp_path, capsys):
    # the ops trace lasts about 0.1 s: 1e-9 s buckets would be ~10^8 rows
    trace_path, _ = ops_trace
    rc = main(["analyze", "rate", "--trace", str(trace_path), "--theta-ns", "70000",
               "--bucket-s", "1e-9", "--out", str(tmp_path / "rate.csv")])
    assert rc == 2
    assert "the smallest bucket_s that fits is" in capsys.readouterr().err
    assert not (tmp_path / "rate.csv").exists()


def test_analyze_rate_zero_width_bucket_exits_2(ops_trace, tmp_path, capsys):
    trace_path, _ = ops_trace
    for bucket in ("1e-10", "inf"):
        rc = main(["analyze", "rate", "--trace", str(trace_path), "--theta-ns", "70000",
                   "--bucket-s", bucket, "--out", str(tmp_path / "rate.csv")])
        assert rc == 2
        assert "error: bucket_s" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    ["5", "5,1,0", "5.5,1", "x,0", "5,yes", "5,", "5,2"],
    ids=["one-field", "three-fields", "float-start", "text-start", "yes", "empty-flag", "two"],
)
def test_analyze_splits_bad_truth_row_exits_2(ops_trace, row, tmp_path, capsys):
    trace_path, _ = ops_trace
    truth_path = tmp_path / "truth.csv"
    truth_path.write_text(f"start_ns,is_split\n20000000,0\n{row}\n", encoding="ascii")
    rc = main(["analyze", "splits", "--trace", str(trace_path), "--truth", str(truth_path),
               "--out", str(tmp_path / "splits.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: truth CSV line 3:")
    assert repr(row) in err


def test_analyze_splits_negative_tol_exits_2(ops_trace, tmp_path, capsys):
    # a negative tolerance matches no op; it is refused, not scored as misses
    trace_path, windows = ops_trace
    truth_path = tmp_path / "truth.csv"
    truth_path.write_text(f"start_ns,is_split\n{windows[0][0]},1\n", encoding="ascii")
    out = tmp_path / "splits.csv"
    rc = main(["analyze", "splits", "--trace", str(trace_path), "--truth", str(truth_path),
               "--tol-ns", "-1", "--out", str(out)])
    assert rc == 2
    assert "error: tol_ns must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_splits_truth_flags(ops_trace, tmp_path, capsys):
    # 0/1/true/false/True/False are the is_split values; blank lines are skipped
    trace_path, windows = ops_trace
    truth_path = tmp_path / "truth.csv"
    flags = ["1", "true", "True", "0", "false"]
    rows = [f"{start},{flag}" for (start, _), flag in zip(windows, flags)]
    truth_path.write_text("start_ns,is_split\n" + "\n\n".join(rows) + "\n", encoding="ascii")
    rc = main(["analyze", "splits", "--trace", str(trace_path), "--max-gap-ns", "500000",
               "--split-threshold-ns", "100000", "--truth", str(truth_path),
               "--out", str(tmp_path / "splits.csv")])
    assert rc == 0
    stats = dict(part.split("=") for part in capsys.readouterr().out.splitlines()[-1].split())
    # every 400 us op reads as a split at a 100 us threshold: 3 true, 2 false
    assert (stats["tp"], stats["fp"], stats["fn"], stats["tn"]) == ("3", "2", "0", "0")


def test_analyze_splits_with_truth(tmp_path, capsys):
    windows, truth = insert_workload(n_ops=40, n_splits=6, seed=3)
    trace = victim_trace(windows, seed=17, contended=(120_000, 10_000))
    trace_path = tmp_path / "inserts.csv"
    trace_write(trace, trace_path)
    truth_path = tmp_path / "truth.csv"
    with open(truth_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["start_ns", "is_split"])
        for start, is_split in truth:
            writer.writerow([start, int(is_split)])

    out = tmp_path / "splits.csv"
    rc = main(["analyze", "splits", "--trace", str(trace_path),
               "--max-gap-ns", "500000", "--truth", str(truth_path),
               "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    rows = _read_csv(out)
    assert rows[0] == ["start_ns", "end_ns", "est_latency_ns", "n_samples", "label"]
    labels = {r[4] for r in rows[1:]}
    assert labels <= {"split", "no-split"}
    assert len(rows) == 41

    metrics_line = printed.splitlines()[-1]
    stats = dict(part.split("=") for part in metrics_line.split())
    assert int(stats["tp"]) + int(stats["fn"]) == 6
    assert float(stats["recall"]) >= 0.99  # page splits are far above the size cutoff
    assert float(stats["precision"]) >= 0.8


def test_analyze_keystrokes(tmp_path, capsys):
    windows, key_times = keystroke_workload(n_keys=12, seed=11)
    trace = victim_trace(windows, seed=23, contended=(90_000, 10_000))
    trace_path = tmp_path / "keys.csv"
    trace_write(trace, trace_path)
    out = tmp_path / "keys_out.csv"
    rc = main(["analyze", "keystrokes", "--trace", str(trace_path),
               "--theta-ns", "54000", "--min-spacing-ms", "50", "--out", str(out)])
    assert rc == 0
    assert "12 keystroke(s)" in capsys.readouterr().out
    rows = _read_csv(out)
    assert rows[0] == ["index", "event_ns", "delta_to_next_ns"]
    assert len(rows) == 13
    assert rows[-1][2] == ""  # final key has no successor
    for row, truth_ns in zip(rows[1:], key_times):
        assert abs(int(row[1]) - truth_ns) < 200_000
    for i in range(11):
        got_delta = int(rows[1 + i][2])
        true_delta = key_times[i + 1] - key_times[i]
        assert abs(got_delta - true_delta) < 400_000


@pytest.mark.parametrize("argv, flag", [
    (["calibrate", "--file", "PROBE", "--duration-us", "inf"], "duration_us"),
    (["analyze", "keystrokes", "--trace", "TRACE", "--theta-ns", "54000",
      "--min-spacing-ms", "inf", "--out", "OUT"], "--min-spacing-ms"),
    (["analyze", "rate", "--trace", "TRACE", "--theta-ns", "70000",
      "--samples-per-request", "nan", "--out", "OUT"], "samples_per_request"),
], ids=["calibrate-duration", "keystrokes-spacing", "rate-samples-per-request"])
def test_nonfinite_float_flags_exit_2(argv, flag, ops_trace, tmp_path, capsys, monkeypatch):
    # the value is refused before any fsync of the probe file
    monkeypatch.setattr(os, "fsync", lambda fd: pytest.fail("fsync called"))
    probe = tmp_path / "probe.dat"
    probe.write_bytes(b"\0" * 4096)
    paths = {"PROBE": str(probe), "TRACE": str(ops_trace[0]), "OUT": str(tmp_path / "out.csv")}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_analyze_classify(tmp_path, capsys):
    """Two workload classes with well separated per-op latencies classify cleanly."""
    labels_rows = [("filename", "label")]
    for i in range(6):
        for label, base, step in (("slow", 2_000_000, 10_000), ("fast", 60_000, 1_000)):
            ts, lat = [], []
            for j in range(30):
                # a quiet probe, then the op 1 ms later
                ts += [j * 6_000_000, j * 6_000_000 + 1_000_000]
                lat += [21_390, base + i * step + j * 137]
            name = f"{label}_{i}.csv"
            trace_write(LatencyTrace(ts, lat), tmp_path / name)
            labels_rows.append((name, label))
    with open(tmp_path / "labels.csv", "w", newline="", encoding="ascii") as fh:
        csv.writer(fh, lineterminator="\n").writerows(labels_rows)

    out = tmp_path / "report.csv"
    rc = main(["analyze", "classify", "--dir", str(tmp_path),
               "--theta-ns", "50000", "--max-gap-ns", "1000000",
               "--seed", "9", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "accuracy=1.0000" in printed
    rows = _read_csv(out)
    assert rows[0] == ["class", "support", "precision", "recall", "f1", "accuracy"]
    assert rows[-1][0] == "overall"


@pytest.mark.parametrize("name", ESCAPING_NAMES)
def test_classify_rejects_names_outside_directory(tmp_path, capsys, name):
    data = escaping_dataset(tmp_path, name)
    out = tmp_path / "report.csv"
    rc = main(["analyze", "classify", "--dir", str(data), "--theta-ns", "50000",
               "--seed", "9", "--out", str(out)])
    assert rc == 2
    assert "labels.csv line 3:" in capsys.readouterr().err
    assert not out.exists()


def test_classify_requires_seed(tmp_path, capsys):
    rc = main(["analyze", "classify", "--dir", str(tmp_path),
               "--theta-ns", "50000", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# console script


def test_console_script_installed():
    exe = shutil.which("fsyncchan")
    if exe is None:
        pytest.skip("console script not on PATH (package not installed)")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "calibrate" in proc.stdout


def _fresh_python(*argv) -> subprocess.CompletedProcess:
    """A new interpreter run with argv; it imports the same fsyncchan as
    this process, installed or not."""
    src = str(Path(fsyncchan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_module_entry_point():
    proc = _fresh_python("-m", "fsyncchan", "--help")
    assert proc.returncode == 0
    assert "covert channel" in proc.stdout


HEAVY_MODULES = ("_hashlib", "ssl")  # OpenSSL's libcrypto, about 3.5 MB resident


def test_cli_does_not_load_openssl():
    # the package uses no OpenSSL; hashlib would load it for one builtin blake2b
    code = (
        "import sys, fsyncchan, fsyncchan.cli; "
        f"print([m for m in {HEAVY_MODULES} if m in sys.modules])"
    )
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # -X importtime lists, on stderr, every module `-m fsyncchan --help` imports
    proc = _fresh_python("-X", "importtime", "-m", "fsyncchan", "--help")
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert {"fsyncchan.cli", "numpy"} <= imported
    assert imported.isdisjoint(HEAVY_MODULES)


@pytest.mark.parametrize("seed, tag, expected", [
    (1234, "payload", 4385469954072962989),
    (1234, "channel:50:high", 748153325817558383),
    (0, "calibrate", 7134678707948959927),
    (-7, "victims", 9915310121777622320),
])
def test_derive_seed_pinned(seed, tag, expected):
    # every sub-seed, and with it every pinned output, hangs on these
    assert derive_seed(seed, tag) == expected
