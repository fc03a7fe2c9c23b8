"""Acceptance gate.

One test per headline requirement; the first docstring line of each test is
the label printed in the terminal summary block.  Thresholds here are the
contract, not tuned numbers: if an implementation change pushes a metric past
one of these bounds, that is a regression, not a flaky test.

Everything runs on the seeded simulator so results are reproducible in CI.
The final test exercises real fsync hardware and only runs with
FSYNC_HARDWARE_TESTS=1.
"""

import math
import random
import statistics
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

from fsyncchan.analyzer import (
    SPLIT_THRESHOLD_NS,
    FeatureVector,
    extract_episodes,
    histogram_features,
    knn_classify,
    knn_train,
    split_detection_metrics,
    keystroke_timings,
    train_test_split,
)
from fsyncchan.cli import BENCH_CSV_HEADER, derive_seed, main as cli_main
from fsyncchan.core import (
    DEFAULT_HEADER,
    ChannelConfig,
    LatencyTrace,
    prbs_sequence,
)
from fsyncchan.metrics import capacity
from fsyncchan.modem import ThresholdState, TraceSource, receive_frame
from fsyncchan.probe import ProbeHandle, ProbeMode
from fsyncchan.simchan import SimParams, loopback

from synthgen import (
    WORKLOAD_LATENCY_PROFILES,
    episodes_reference,
    exact_sq_distances,
    find_frame_start_reference,
    insert_workload,
    keystroke_workload,
    knn_reference,
    random_episode_trace,
    trace_from_bits,
    trace_from_pairs,
    victim_trace,
    workload_latencies,
)


def _loopback(ts_us: int, seed: int, n_payload_bits: int):
    """Full encode -> schedule -> simulate -> decode pass; returns (bits, errors)."""
    report = loopback(
        prbs_sequence(n_payload_bits, derive_seed(seed, "payload")),
        ChannelConfig(ts_us=ts_us),
        SimParams().model(),
        calibration_seed=derive_seed(seed, "calibrate"),
        channel_seed=derive_seed(seed, "channel"),
    )
    return report.n_bits, report.err_1to0 + report.err_0to1


@pytest.fixture(scope="module")
def loopback_sweep():
    results = {}
    for ts_us in (50, 200, 400):
        t0 = time.perf_counter()
        n_bits, errors = _loopback(ts_us, seed=1234, n_payload_bits=80_000)
        results[ts_us] = (n_bits, errors, time.perf_counter() - t0)
    return results


def test_loopback_ber(loopback_sweep):
    """loopback of 80,000 bits at 50 us symbols: BER <= 0.5% in under 30 s"""
    n_bits, errors, wall = loopback_sweep[50]
    assert n_bits >= 80_000
    ber = errors / n_bits
    assert ber <= 0.005, f"BER {ber:.6f} exceeds 0.5%"
    assert wall < 30.0, f"run took {wall:.1f} s"


def test_ber_trend_with_symbol_duration(loopback_sweep):
    """BER is nonincreasing as symbols lengthen from 50 to 200 to 400 us"""
    ber = {ts: errors / n_bits for ts, (n_bits, errors, _) in loopback_sweep.items()}
    assert ber[200] <= ber[50]
    assert ber[400] <= ber[200]
    assert ber[400] <= ber[50]


def test_capacity_spot_checks():
    """channel capacity: exact at p=0 and p=0.5, within 1e-6 of oracle at p=0.004"""
    assert capacity(50, 0.0).capacity_bps == 20_000.0
    assert capacity(50, 0.5).capacity_bps == 0.0
    assert capacity(400, 0.5).capacity_bps == 0.0

    mpmath.mp.dps = 50
    p = mpmath.mpf("0.004")
    bandwidth = mpmath.mpf(1_000_000) / 50
    h2 = -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)
    oracle = float(bandwidth * (1 - h2))
    assert math.isclose(oracle, 19247.5527935544314, rel_tol=1e-12)
    got = capacity(50, 0.004).capacity_bps
    assert abs(got - oracle) / oracle <= 1e-6


def test_frame_sync_recovery():
    """1,000 random-prefix trials with <=1 header bit flip: every frame recovered"""
    rng = random.Random(20260814)
    header = list(DEFAULT_HEADER)
    cfg = ChannelConfig(ts_us=50, payload_len=64)
    state = ThresholdState(
        theta_ns=32_085,
        quiet_mean_ns=21_390.0,
        quiet_std_ns=0.0,
        provenance="manual",
    )
    recovered = 0
    for _ in range(1000):
        while True:
            payload = [rng.randint(0, 1) for _ in range(64)]
            prefix = [rng.randint(0, 1) for _ in range(rng.randint(0, 200))]
            sent_header = header.copy()
            if rng.random() < 0.75:
                sent_header[rng.randrange(len(header))] ^= 1
            bits = prefix + sent_header + payload
            # keep only trials whose earliest in-budget header alignment is the
            # real one; an accidental earlier match is correct receiver behavior
            # but decodes a different (garbage) payload by construction
            if find_frame_start_reference(bits, header, max_mismatches=1) == len(prefix):
                break
        source = TraceSource(trace_from_bits(bits))
        got = receive_frame(
            source, cfg, state, max_symbols=len(bits) + 8, max_mismatches=1
        )
        if got is not None and list(got) == payload:
            recovered += 1
    assert recovered == 1000


def test_episode_extraction_matches_reference():
    """episode extraction equals a brute-force reference on 500 random traces"""
    for case in range(500):
        rng = random.Random(61_000 + case)
        samples = random_episode_trace(rng)
        theta_ns = rng.randrange(25_000, 100_000)
        max_gap_ns = rng.randrange(10_000, 2_000_000)
        got = list(extract_episodes(trace_from_pairs(samples), theta_ns, max_gap_ns))
        ref = episodes_reference(samples, theta_ns, max_gap_ns)
        assert got == ref, f"case {case}: {got} != {ref}"


def test_split_detection_recall_and_f1():
    """400-insert victim with 49 oversized commits: recall >= 0.85, F1 >= 0.80"""
    windows, truth = insert_workload(n_ops=400, n_splits=49, seed=7)
    trace = victim_trace(windows, seed=77)
    episodes = extract_episodes(trace, theta_ns=70_000, max_gap_ns=500_000)
    m = split_detection_metrics(
        episodes, truth, split_threshold_ns=SPLIT_THRESHOLD_NS, tol_ns=10_000_000
    )
    assert m.tp + m.fn == 49
    assert m.recall >= 0.85, f"recall {m.recall:.4f}"
    assert m.f1 >= 0.80, f"f1 {m.f1:.4f}"


def test_knn_matches_reference():
    """k-NN prediction equals an exhaustive-distance reference on 100 datasets"""

    def fv(counts, label=None):
        return FeatureVector(
            counts=np.asarray(counts, dtype=np.int64),
            edges=np.arange(len(counts) + 1, dtype=float),
            label=label,
        )

    checked = 0
    for case in range(100):
        rng = random.Random(71_000 + case)
        n_train = rng.randrange(3, 16)
        train = [
            fv([rng.randrange(0, 25) for _ in range(6)], rng.choice("abc"))
            for _ in range(n_train)
        ]
        for v in train:
            if v.counts.sum() == 0:
                v.counts[rng.randrange(6)] = 1
        query = fv([rng.randrange(0, 25) for _ in range(6)])
        if query.counts.sum() == 0:
            query.counts[0] = 1
        k = rng.randrange(1, n_train + 1)

        dists = exact_sq_distances(train, query)
        if len(set(dists)) != len(dists):
            continue  # exact distance tie: ordering is pinned by its own unit test
        model = knn_train(train, k=k)
        assert knn_classify(model, query) == knn_reference(train, k, query)
        checked += 1
    assert checked >= 85


def test_workload_classification_accuracy():
    """4 workload classes, 40 traces each, 70/30 split, k=5: accuracy >= 90%"""
    rng = random.Random(2468)
    features = []
    for label in sorted(WORKLOAD_LATENCY_PROFILES):
        for _ in range(40):
            op_latencies = workload_latencies(label, 60, rng)
            ts, lat = [], []
            for i, op in enumerate(op_latencies):
                # an idle filler, below theta, then the op 1 ms later
                ts += [i * 21_000_000, i * 21_000_000 + 1_000_000]
                lat += [5_000, op]
            episodes = extract_episodes(
                LatencyTrace(ts, lat), theta_ns=10_000, max_gap_ns=5_000_000
            )
            assert len(episodes) == 60
            features.append(
                histogram_features([ep.est_latency_ns for ep in episodes], label=label)
            )
    train, test = train_test_split(features, 0.3, seed=13)
    model = knn_train(train, k=5)
    correct = sum(knn_classify(model, v) == v.label for v in test)
    assert len(test) >= 40
    accuracy = correct / len(test)
    assert accuracy >= 0.90, f"accuracy {accuracy:.4f}"


def test_keystroke_timing_recovery():
    """100 keystrokes replayed: >=98% of deltas within 10 ms, mean error <= 3 ms"""
    windows, key_times = keystroke_workload(n_keys=100, seed=11)
    trace = victim_trace(windows, seed=42, contended=(90_000, 10_000))
    events, deltas = keystroke_timings(
        trace, theta_ns=54_000, min_spacing_ns=50_000_000, max_gap_ns=500_000
    )
    assert len(events) == len(key_times)
    true_deltas = [b - a for a, b in zip(key_times, key_times[1:])]
    errors_ns = [abs(got - want) for got, want in zip(deltas, true_deltas)]
    assert len(errors_ns) == len(true_deltas)
    within_10ms = sum(e <= 10_000_000 for e in errors_ns) / len(errors_ns)
    mean_error_ns = statistics.fmean(errors_ns)
    assert within_10ms >= 0.98, f"only {within_10ms:.3f} within 10 ms"
    assert mean_error_ns <= 3_000_000, f"mean error {mean_error_ns / 1e6:.3f} ms"


def test_bench_determinism(tmp_path):
    """bench with a fixed seed writes byte-identical CSV across two runs"""
    args = [
        "bench", "--seed", "99", "--ts-us", "50,200", "--noise", "none,low",
        "--payload-bits", "4000", "--frame-payload-len", "4000",
    ]
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(first)]) == 0
    assert cli_main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    assert len(lines) == 5


@pytest.mark.hardware
def test_real_probe_contention(tmp_path):
    """hardware: all probe modes measure positive latency; a concurrent fsync process raises the mean"""
    probe_path = tmp_path / "probe.dat"
    noise_path = tmp_path / "noise.dat"
    for p in (probe_path, noise_path):
        p.write_bytes(b"\0" * 4096)

    for mode in ProbeMode:
        with ProbeHandle(probe_path, mode) as handle:
            assert handle.probe_for(0.001).latencies_ns[0] > 0

    hammer = (
        "from fsyncchan.probe import ProbeHandle\n"
        "from fsyncchan.core import ProbeMode\n"
        f"with ProbeHandle({str(noise_path)!r}, ProbeMode.WRITE_FSYNC) as h:\n"
        "    h.busy_fsync_for(700_000.0)\n"
    )
    with ProbeHandle(probe_path) as handle:
        handle.probe_for(50_000.0)  # warm up
        quiet = handle.probe_for(200_000.0)
        proc = subprocess.Popen([sys.executable, "-c", hammer])
        try:
            time.sleep(0.15)
            busy = handle.probe_for(200_000.0)
        finally:
            proc.wait()

    quiet_mean = statistics.fmean(quiet.latencies_ns[quiet.meta.warmup_samples :].tolist())
    busy_mean = statistics.fmean(busy.latencies_ns[busy.meta.warmup_samples :].tolist())
    assert busy_mean > quiet_mean, f"quiet {quiet_mean:.0f} ns, busy {busy_mean:.0f} ns"
