"""The benchmark's three workloads, driven through fsyncchan's public API.

Every workload is a closed loop in one process and one thread: each call
waits for the previous one.  A workload object is built from the run seed and
an input size; `setup()` makes the inputs, `prepare()` builds the per-pass
state that a pass consumes (outside the timed interval), `run_pass()` is the
timed part, and `checks()` compares a pass's outputs with what the
`fsyncchan` command prints for the same arguments.

Calls into the package go through `rec.call(name, fn, ...)`, where `rec` is a
`spans.NullRecorder` in untimed and untraced passes and a
`spans.SpanRecorder` in traced ones; span names are ``layer.function``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from dataclasses import dataclass
from pathlib import Path

from fsyncchan import cli
from fsyncchan.analyzer import (
    classification_report,
    classify_split,
    count_above,
    estimate_request_rate,
    extract_episodes,
    histogram_features,
    keystroke_timings,
    knn_classify,
    knn_train,
    load_labeled_dataset,
    split_detection_metrics,
    train_test_split,
)
from fsyncchan.core import (
    ChannelConfig,
    DecisionRule,
    encode_frames,
    frames_to_bits,
    prbs_sequence,
    trace_read,
    trace_write,
)
from fsyncchan.metrics import capacity, compare_bits
from fsyncchan.modem import ScheduleBuilder, TraceSource, calibrate, receive_frame, send_bits
from fsyncchan.simchan import (
    CROSS_DISK_PRESET,
    IDLE,
    ActivityTimeline,
    ContentionModel,
    LatencyDistribution,
    NoiseDegree,
    NoiseProcess,
    SimSource,
    cross_disk_model,
    default_model,
    sim_receive,
    sim_transmit,
)

derive_seed = cli.derive_seed


@dataclass
class PassResult:
    """What one pass produced.  `outputs` must repeat exactly on every pass
    with the same inputs; `quality` holds the simulated statistics."""

    outputs: tuple
    quality: dict
    ops: int
    # stated work over work done: below 1 when a pass scanned extra symbols
    # for headers it missed
    work_scale: float = 1.0


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the `fsyncchan` command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# loopback workloads


def _receive_frames(source, n_frames, cfg, state, max_symbols, rec) -> list:
    """receive_frame once per sent frame.  In a traced pass `source` is a
    `spans.TracedSource`; count the symbols each call scanned before its
    header matched, and the source's counts."""
    got = []
    for _ in range(n_frames):
        before = source.symbols if rec.traced else 0
        payload = rec.call(
            "modem.receive_frame",
            receive_frame,
            source,
            cfg,
            state,
            max_symbols=max_symbols,
            max_mismatches=1,
        )
        if rec.traced:
            delivered = cfg.payload_len if payload is not None else 0
            rec.count("modem.sync_symbols", source.symbols - before - delivered)
            rec.count("modem.frame_symbols", delivered)
        got.append(payload)
    if rec.traced:
        rec.count("modem.symbols", source.symbols)
        rec.count("modem.empty_windows", source.empty_windows)
        rec.count("source.samples", source.samples)
    return got


def _score(frames, got, rec) -> dict:
    """Error counts as `fsyncchan bench` keeps them: a lost frame counts
    every one of its bits as an error."""
    n_bits = n_ones = err_1to0 = err_0to1 = lost = 0
    for frame, payload in zip(frames, got):
        sent = frame.payload
        if payload is None:
            ones = sent.count(1)
            lost += 1
            n_bits += len(sent)
            n_ones += ones
            err_1to0 += ones
            err_0to1 += len(sent) - ones
            continue
        report = rec.call("metrics.compare_bits", compare_bits, sent, payload)
        rec.count("metrics.bits_compared", report.n_bits)
        n_bits += report.n_bits
        n_ones += report.n_ones
        err_1to0 += report.err_1to0
        err_0to1 += report.err_0to1
    return {
        "n_bits": n_bits,
        "n_ones": n_ones,
        "err_1to0": err_1to0,
        "err_0to1": err_0to1,
        "lost": lost,
        "frames": len(frames),
    }


class _Loopback:
    """Shared pass tail of the two loopback workloads: calibrate, receive
    every frame, score against the sent payload."""

    ts_us: int

    def _receive_and_score(self, source, max_symbols, rec) -> PassResult:
        state = rec.call("modem.calibrate", calibrate, self.quiet, self.cfg)
        got = _receive_frames(source, len(self.frames), self.cfg, state, max_symbols, rec)
        score = _score(self.frames, got, rec)
        p = (score["err_1to0"] + score["err_0to1"]) / score["n_bits"]
        cap = rec.call("metrics.capacity", capacity, self.ts_us, p)
        if rec.traced:
            rec.count("modem.bit_errors", score["err_1to0"] + score["err_0to1"])
            rec.count("modem.frames_lost", score["lost"])
        outputs = (tuple(None if g is None else bytes(g) for g in got), cap.capacity_bps)
        quality = {
            "ber": p,
            "fail_share": score["lost"] / score["frames"],
            "capacity_bps": cap.capacity_bps,
            **score,
        }
        return PassResult(outputs=outputs, quality=quality, ops=len(self.frames))


class LoopbackNoisy(_Loopback):
    """Live loopback as `fsyncchan bench` and the acceptance gate run it."""

    name = "loopback-50us-noisy"
    why = (
        "live loopback as fsyncchan bench runs it, 50 us symbols, high noise: simchan per-probe "
        "simulation and modem per-window decisions split the time; no file I/O"
    )
    ts_us = 50
    noise = NoiseDegree.HIGH
    SIZES = {"full": (80_000, 8000), "tiny": (2000, 1000)}

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.payload_bits, self.frame_len = self.SIZES[size]
        self.work_dir = work_dir
        self.cfg = ChannelConfig(ts_us=self.ts_us, payload_len=self.frame_len)
        self.run_tag = f"{self.ts_us}:{self.noise.value}"

    def setup(self, rec) -> None:
        model = default_model()
        payload = rec.call(
            "core.prbs_sequence",
            prbs_sequence,
            self.payload_bits,
            derive_seed(self.seed, f"payload:{self.run_tag}"),
        )
        self.frames = rec.call("core.encode_frames", encode_frames, payload, self.cfg)
        tx_bits = rec.call("core.frames_to_bits", frames_to_bits, self.frames)
        builder = ScheduleBuilder(self.cfg.ts_us, model)
        rec.call("modem.send_bits", send_bits, tx_bits, self.cfg, builder)
        self.schedule = builder.schedule()
        self.model = model
        self.noise_process = NoiseProcess.from_degree(self.noise, model)
        self.quiet = rec.call(
            "simchan.sim_receive",
            sim_receive,
            IDLE,
            model,
            derive_seed(self.seed, "calibrate"),
            duration_ns=5_000_000,
        )
        self.prepare()

    def prepare(self) -> None:
        self.source = SimSource(
            self.schedule,
            self.model,
            derive_seed(self.seed, f"channel:{self.run_tag}"),
            noise=self.noise_process,
        )

    def run_pass(self, rec) -> PassResult:
        source = rec.source(self.source, "simchan.SimSource.probe_for")
        result = self._receive_and_score(source, 2 * self.cfg.frame_len, rec)
        if rec.traced:
            rec.count("simchan.probes", rec.counts(rec.run_id)["source.samples"])
        demodulated = round(self.source.elapsed_us / self.ts_us)
        result.work_scale = len(self.frames) * self.cfg.frame_len / demodulated
        return result

    def bench_row(self, s: dict) -> str:
        """The `fsyncchan bench` CSV row for a pass's scores."""
        n_zeros = s["n_bits"] - s["n_ones"]
        p = (s["err_1to0"] + s["err_0to1"]) / s["n_bits"]
        cap = capacity(self.ts_us, p)
        return (
            f"{self.ts_us},{self.noise.value},{s['n_bits']},{s['err_1to0']},{s['err_0to1']},"
            f"{s['err_1to0'] / s['n_ones'] if s['n_ones'] else 0.0:.6f},"
            f"{s['err_0to1'] / n_zeros if n_zeros else 0.0:.6f},{p:.6f},"
            f"{cap.bandwidth_bps:.3f},{cap.capacity_bps:.3f}"
        )

    def checks(self, result: PassResult) -> list[tuple[str, bool, str]]:
        out = self.work_dir / "bench.csv"
        code, _ = _run_cli(
            [
                "bench", "--seed", str(self.seed), "--ts-us", str(self.ts_us),
                "--noise", self.noise.value, "--payload-bits", str(self.payload_bits),
                "--frame-payload-len", str(self.frame_len), "--out", str(out),
            ]
        )
        lines = out.read_text(encoding="ascii").splitlines() if code == 0 else []
        want = lines[1] if len(lines) == 2 else f"exit {code}"
        got = self.bench_row(result.quality)
        return [("bench_row", got == want, f"benchmark {got} / fsyncchan bench {want}")]


class ReplayCrossDisk(_Loopback):
    """`fsyncchan send` then `fsyncchan recv`: batch simulation, trace CSV
    round trip, replay."""

    name = "replay-400us-xdisk"
    why = (
        "send/recv through a trace CSV, cross-disk preset, stddev rule, 400 us symbols: batch "
        "simulation, CSV write/read and replay dominate; shows the header-desync defect"
    )
    ts_us = 400
    SIZES = {"full": (16_000, 8000), "tiny": (2000, 1000)}

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.payload_bits, self.frame_len = self.SIZES[size]
        self.work_dir = work_dir
        self.cfg = ChannelConfig(
            ts_us=self.ts_us, decision_rule=DecisionRule.STDDEV, payload_len=self.frame_len
        )
        self.trace_path = work_dir / "replay.csv"

    def setup(self, rec) -> None:
        self.model = cross_disk_model()
        payload = rec.call(
            "core.prbs_sequence",
            prbs_sequence,
            self.payload_bits,
            derive_seed(self.seed, "payload"),
        )
        self.frames = rec.call("core.encode_frames", encode_frames, payload, self.cfg)
        self.tx_bits = rec.call("core.frames_to_bits", frames_to_bits, self.frames)
        self.quiet = rec.call(
            "simchan.sim_receive",
            sim_receive,
            IDLE,
            self.model,
            derive_seed(self.seed, "calibrate"),
            duration_ns=max(5_000_000, 70 * self.cfg.ts_ns),
        )
        # the same model as a params file, for the `fsyncchan send/recv` checks
        (sa_mean, sa_std), (co_mean, co_std) = CROSS_DISK_PRESET
        self.params_path = self.work_dir / "cross-disk.params"
        self.params_path.write_text(
            f"standalone.mean_ns={sa_mean!r}\nstandalone.std_ns={sa_std!r}\n"
            f"contended.mean_ns={co_mean!r}\ncontended.std_ns={co_std!r}\n",
            encoding="ascii",
        )

    def prepare(self) -> None:
        pass

    def run_pass(self, rec) -> PassResult:
        trace = rec.call(
            "simchan.sim_transmit",
            sim_transmit,
            self.tx_bits,
            self.cfg,
            self.model,
            derive_seed(self.seed, "channel"),
        )
        rec.call("core.trace_write", trace_write, trace, self.trace_path)
        replay = rec.call("core.trace_read", trace_read, self.trace_path)
        if rec.traced:
            n_bytes = self.trace_path.stat().st_size
            rec.count("simchan.probes", len(trace))
            rec.count("core.rows_written", len(trace))
            rec.count("core.rows_read", len(replay))
            rec.count("core.csv_bytes", 2 * n_bytes)
        source = rec.source(TraceSource(replay), "modem.TraceSource.probe_for")
        result = self._receive_and_score(source, 4 * self.cfg.frame_len, rec)
        result.outputs += (len(trace),)
        return result

    def _channel_args(self) -> list[str]:
        return [
            "--seed", str(self.seed), "--ts-us", str(self.ts_us), "--decision", "stddev",
            "--frame-payload-len", str(self.frame_len), "--sim-params", str(self.params_path),
        ]

    def checks(self, result: PassResult) -> list[tuple[str, bool, str]]:
        sent = self.work_dir / "send.csv"
        code, _ = _run_cli(
            ["send", *self._channel_args(), "--payload-bits", str(self.payload_bits),
             "--out", str(sent)]
        )
        same = code == 0 and sent.read_bytes() == self.trace_path.read_bytes()
        checks = [("send_trace", same, f"fsyncchan send exit {code}, trace identical: {same}")]

        # `fsyncchan recv --frames 1` must return the benchmark's first frame
        got = self.work_dir / "recv.txt"
        code, _ = _run_cli(
            ["recv", *self._channel_args(), "--trace", str(self.trace_path), "--frames", "1",
             "--out", str(got)]
        )
        first = result.outputs[0][0]
        if first is None:
            ok, detail = code == cli.EXIT_TIMEOUT, f"frame 0 lost; fsyncchan recv exit {code}"
        else:
            text = got.read_text(encoding="ascii").strip() if code == 0 else ""
            want = "".join("1" if b else "0" for b in first)
            ok, detail = text == want, f"fsyncchan recv exit {code}, frame 0 identical: {text == want}"
        checks.append(("recv_frame0", ok, detail))
        return checks


# ---------------------------------------------------------------------------
# passive observer

THETA_NS = 70_000
KEY_THETA_NS = 54_000
MAX_GAP_NS = 500_000
KEY_SPACING_MS = 50.0
RATE_BUCKET_S = 0.1
SAMPLES_PER_REQUEST = 10.0
KNN_K = 5
TEST_FRAC = 0.3
KEY_TOLERANCE_NS = 10_000_000
KEY_SESSION_NS_PER_KEY = 185_000_000

QUIET_LATENCY = (21390.0, 2479.0)
INSERT_CONTENDED = (120_000.0, 20_000.0)
KEY_CONTENDED = (90_000.0, 10_000.0)
# victim operation length (mean, std in ns) per workload class of the corpus
CLASS_PROFILES = {
    "insert_heavy": (2_000_000, 400_000),
    "query_light": (30_000, 8_000),
    "update_small": (150_000, 40_000),
    "update_large": (600_000, 150_000),
}


def _victim_trace(windows, seed, contended, tail_ns=2_000_000):
    model = ContentionModel.empirical(
        LatencyDistribution(*QUIET_LATENCY), LatencyDistribution(*contended)
    )
    return sim_receive(
        ActivityTimeline(windows), model, seed, duration_ns=windows[-1][1] + tail_ns
    )


class ObserveVictims:
    """The `fsyncchan analyze` subcommands over victim traces on disk."""

    name = "observe-victims"
    why = (
        "analyze subcommands over victim trace CSVs made in set-up: read-heavy, isolates core "
        "trace parsing and the analyzer layer; no simchan or modem in the timed part"
    )
    # (corpus traces per class, ops per corpus trace, insert ops, splits, keystrokes)
    SIZES = {"full": (12, 12, 120, 15, 24), "tiny": (6, 6, 12, 3, 4)}

    def __init__(self, seed: int, size: str, work_dir: Path):
        self.seed = seed
        self.per_class, self.ops_per_trace, self.n_inserts, self.n_splits, self.n_keys = (
            self.SIZES[size]
        )
        self.work_dir = work_dir
        self.corpus_dir = work_dir / "corpus"
        self.insert_path = work_dir / "insert.csv"
        self.truth_path = work_dir / "insert_truth.csv"
        self.keys_path = work_dir / "keys.csv"
        self.split_seed = derive_seed(seed, "split") % 2**31

    def setup(self, rec) -> None:
        rng = random.Random(derive_seed(self.seed, "victims"))
        self.corpus_dir.mkdir(parents=True, exist_ok=True)
        rows = []
        for label in sorted(CLASS_PROFILES):
            mean, std = CLASS_PROFILES[label]
            for i in range(self.per_class):
                windows, t = [], 1_000_000
                for _ in range(self.ops_per_trace):
                    dur = max(1000, round(rng.gauss(mean, std)))
                    windows.append((t, t + dur))
                    t += dur + rng.randrange(1_500_000, 3_000_000)
                trace = rec.call(
                    "simchan.sim_receive", _victim_trace, windows, rng.getrandbits(32),
                    INSERT_CONTENDED,
                )
                filename = f"{label}-{i:02d}.csv"
                rec.call("core.trace_write", trace_write, trace, self.corpus_dir / filename)
                rows.append((filename, label))
        with open(self.corpus_dir / "labels.csv", "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["filename", "label"])
            writer.writerows(rows)

        # inserts: sequential commits, a minority of them page-split expensive
        split_at = set(rng.sample(range(self.n_inserts), self.n_splits))
        windows, self.truth, t = [], [], 2_000_000
        for i in range(self.n_inserts):
            if i in split_at:
                dur = max(1_200_000, round(rng.gauss(1_700_000, 350_000)))
            else:
                dur = max(80_000, round(rng.gauss(350_000, 220_000)))
            windows.append((t, t + dur))
            self.truth.append((t, i in split_at))
            t += dur + rng.randrange(18_000_000, 25_000_000)
        trace = rec.call(
            "simchan.sim_receive", _victim_trace, windows, rng.getrandbits(32), INSERT_CONTENDED
        )
        rec.call("core.trace_write", trace_write, trace, self.insert_path)
        with open(self.truth_path, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["start_ns", "is_split"])
            writer.writerows((start, int(is_split)) for start, is_split in self.truth)

        # keystrokes: one short commit per key, human inter-key gaps; the gaps
        # are scaled to a fixed session length so that every seed probes (and
        # the timed part reads) the same number of rows
        gaps = [max(100_000_000, round(rng.gauss(180_000_000, 60_000_000))) for _ in range(self.n_keys)]
        stretch = KEY_SESSION_NS_PER_KEY * self.n_keys / sum(gaps)
        windows, self.key_times, t = [], [], 5_000_000
        for gap in gaps:
            self.key_times.append(t)
            dur = max(60_000, round(rng.gauss(150_000, 30_000)))
            windows.append((t, t + dur))
            t += round(gap * stretch)
        trace = rec.call(
            "simchan.sim_receive", _victim_trace, windows, rng.getrandbits(32), KEY_CONTENDED
        )
        rec.call("core.trace_write", trace_write, trace, self.keys_path)

    def prepare(self) -> None:
        pass

    def _episodes(self, rec, trace, theta_ns):
        episodes = rec.call("analyzer.extract_episodes", extract_episodes, trace, theta_ns, MAX_GAP_NS)
        if rec.traced:
            rec.count("analyzer.episode_samples", len(trace))
            rec.count("analyzer.episodes", len(episodes))
        return episodes

    def _read(self, rec, path):
        trace = rec.call("core.trace_read", trace_read, path)
        if rec.traced:
            rec.count("core.rows_read", len(trace))
            rec.count("core.csv_bytes", path.stat().st_size)
        return trace

    def _classify(self, rec):
        dataset = rec.call("core.load_labeled_dataset", load_labeled_dataset, self.corpus_dir)
        if rec.traced:
            rec.count("core.rows_read", sum(len(trace) for trace, _ in dataset))
            rec.count(
                "core.csv_bytes", sum(p.stat().st_size for p in self.corpus_dir.glob("*.csv"))
            )
        features = []
        for trace, label in dataset:
            episodes = self._episodes(rec, trace, THETA_NS)
            features.append(
                rec.call(
                    "analyzer.histogram_features",
                    histogram_features,
                    [ep.est_latency_ns for ep in episodes],
                    label=label,
                )
            )
        train, test = rec.call(
            "analyzer.train_test_split", train_test_split, features, TEST_FRAC, self.split_seed
        )
        model = rec.call("analyzer.knn_train", knn_train, train, k=KNN_K)
        y_pred = [rec.call("analyzer.knn_classify", knn_classify, model, fv) for fv in test]
        rec.count("analyzer.knn_queries", len(test))
        report = rec.call(
            "analyzer.classification_report",
            classification_report,
            [fv.label for fv in test],
            y_pred,
        )
        return report

    def _splits(self, rec, trace):
        episodes = self._episodes(rec, trace, THETA_NS)
        labels = tuple(
            rec.call("analyzer.classify_split", classify_split, ep).value for ep in episodes
        )
        m = rec.call(
            "analyzer.split_detection_metrics", split_detection_metrics, episodes, self.truth
        )
        return labels, m

    def _rate(self, rec, trace):
        counts = rec.call("analyzer.count_above", count_above, trace, THETA_NS, RATE_BUCKET_S)
        rates = rec.call(
            "analyzer.estimate_request_rate", estimate_request_rate, counts, SAMPLES_PER_REQUEST
        )
        return tuple(counts), tuple(rates)

    def run_pass(self, rec) -> PassResult:
        report = self._classify(rec)
        inserts = self._read(rec, self.insert_path)
        labels, m = self._splits(rec, inserts)
        counts, rates = self._rate(rec, inserts)
        keys = self._read(rec, self.keys_path)
        events, deltas = rec.call(
            "analyzer.keystroke_timings",
            keystroke_timings,
            keys,
            KEY_THETA_NS,
            round(KEY_SPACING_MS * 1e6),
            MAX_GAP_NS,
        )
        true_deltas = [b - a for a, b in zip(self.key_times, self.key_times[1:])]
        within = sum(
            abs(got - want) <= KEY_TOLERANCE_NS for got, want in zip(deltas, true_deltas)
        )
        quality = {
            "classify_accuracy": report.accuracy,
            "split_f1": m.f1,
            "keystroke_recall": within / len(true_deltas) if true_deltas else 0.0,
            "test_queries": report.n_total,
            "split_counts": {"tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn},
            "keystrokes": len(events),
        }
        outputs = (report.accuracy, labels, (m.tp, m.fp, m.fn, m.tn), counts, rates, tuple(events))
        return PassResult(outputs=outputs, quality=quality, ops=4)

    def checks(self, result: PassResult) -> list[tuple[str, bool, str]]:
        accuracy, _, split_counts, counts, _, events = result.outputs
        checks = []
        out = self.work_dir / "classify.csv"
        code, _ = _run_cli(
            ["analyze", "classify", "--dir", str(self.corpus_dir), "--theta-ns", str(THETA_NS),
             "--max-gap-ns", str(MAX_GAP_NS), "--k", str(KNN_K), "--test-frac", str(TEST_FRAC),
             "--seed", str(self.split_seed), "--out", str(out)]
        )
        overall = out.read_text(encoding="ascii").splitlines()[-1] if code == 0 else ""
        want = f"overall,{result.quality['test_queries']},,,,{accuracy:.4f}"
        checks.append(("analyze_classify", overall == want, f"{overall!r} vs {want!r}"))

        out = self.work_dir / "splits.csv"
        code, text = _run_cli(
            ["analyze", "splits", "--trace", str(self.insert_path), "--theta-ns", str(THETA_NS),
             "--max-gap-ns", str(MAX_GAP_NS), "--truth", str(self.truth_path), "--out", str(out)]
        )
        tp, fp, fn, tn = split_counts
        want = f"tp={tp} fp={fp} fn={fn} tn={tn} "
        ok = code == 0 and want in text
        checks.append(("analyze_splits", ok, f"exit {code}, expected {want.strip()!r}"))

        out = self.work_dir / "rate.csv"
        code, _ = _run_cli(
            ["analyze", "rate", "--trace", str(self.insert_path), "--theta-ns", str(THETA_NS),
             "--bucket-s", str(RATE_BUCKET_S), "--samples-per-request", str(SAMPLES_PER_REQUEST),
             "--out", str(out)]
        )
        got = _csv_column(out, 2) if code == 0 else None
        checks.append(("analyze_rate", got == [str(c) for c in counts], f"exit {code}"))

        out = self.work_dir / "keys_out.csv"
        code, _ = _run_cli(
            ["analyze", "keystrokes", "--trace", str(self.keys_path), "--theta-ns",
             str(KEY_THETA_NS), "--min-spacing-ms", str(KEY_SPACING_MS), "--max-gap-ns",
             str(MAX_GAP_NS), "--out", str(out)]
        )
        got = _csv_column(out, 1) if code == 0 else None
        checks.append(("analyze_keystrokes", got == [str(e) for e in events], f"exit {code}"))
        return checks


def _csv_column(path: Path, column: int) -> list[str]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return [row[column] for row in rows[1:]]


WORKLOADS = {w.name: w for w in (LoopbackNoisy, ReplayCrossDisk, ObserveVictims)}
