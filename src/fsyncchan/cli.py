"""Command-line front end.

Subcommands: calibrate, send, recv, bench, analyze (episodes, rate, splits,
classify, keystrokes).  Simulation is the default everywhere; --file PATH, a
file the caller created, selects real fsync probing.

Exit codes: 0 success, 1 runtime failure (I/O, probe errors), 2 usage or
configuration error, 3 protocol timeout (no frame within the receive window).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from _blake2 import blake2b  # hashlib.blake2b is this builtin; hashlib also loads OpenSSL
from pathlib import Path

from .analyzer import (
    SPLIT_THRESHOLD_NS,
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
    write_classification_report,
)
from .core import (
    BitStream,
    ChannelConfig,
    DecisionRule,
    ProbeMode,
    decode_frames,
    encode_frames,
    frames_to_bits,
    prbs_sequence,
    trace_read,
    trace_write,
)
from .metrics import capacity
from .modem import (
    CalibrationError,
    ThresholdState,
    TraceSource,
    WindowGrid,
    calibrate,
    quiet_duration_ns,
    receive_frames,
    search_window,
    send_bits,
)
from .probe import ProbeError, ProbeHandle
from .simchan import (
    SOURCE_TAIL_NS,
    NoiseDegree,
    NoiseProcess,
    SimParams,
    calibration_trace,
    check_sim_caps,
    check_symbol_cap,
    load_sim_params,
    loopback,
    sim_transmit,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3

BENCH_CSV_HEADER = "t_s_us,noise,n_bits,err_1to0,err_0to1,rate_1to0,rate_0to1,p_err,B_bps,C_bps"


class ProtocolTimeout(Exception):
    """No (or not enough) frames recovered within the receive window."""


def derive_seed(seed: int, tag: str) -> int:
    """Stable per-purpose sub-seed so every stage has its own stream, from the
    interpreter's builtin BLAKE2b, without loading OpenSSL."""
    digest = blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _channel_config(args, ts_us: int | None = None) -> ChannelConfig:
    return ChannelConfig(
        ts_us=args.ts_us if ts_us is None else ts_us,
        decision_rule=DecisionRule(args.decision),
        payload_len=args.frame_payload_len,
    )


def _sim_params(args) -> SimParams:
    if args.sim_params:
        return load_sim_params(args.sim_params)
    return SimParams()


def _require_seed(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required in sim mode")
    return args.seed


def _threshold_state(args, cfg: ChannelConfig) -> ThresholdState:
    """The --theta-ns threshold; without it, one calibrated on simulated quiet
    traffic, which only sim mode may use and which needs --seed."""
    theta = args.theta_ns
    if theta is not None:
        return ThresholdState(theta_ns=theta, quiet_mean_ns=theta / 1.5, quiet_std_ns=0.0)
    if args.file:
        raise ValueError(
            "live recv needs --theta-ns N; measure it with `fsyncchan calibrate --file PATH`"
        )
    return calibrate(_sim_quiet_trace(args, cfg), cfg)


def _sim_quiet_trace(args, cfg: ChannelConfig):
    seed = _require_seed(args)
    return calibration_trace(_sim_params(args).model(), cfg, derive_seed(seed, "calibrate"))


def _payload_bits(args, seed: int) -> BitStream:
    if args.payload_file:
        text = Path(args.payload_file).read_text(encoding="ascii")
        bits = BitStream.from_text(text)
        if len(bits) == 0:
            raise ValueError("payload file contains no bits")
        return bits
    return prbs_sequence(args.payload_bits, derive_seed(seed, "payload"))


def _check_payload_caps(n_payload_bits: int, cfg: ChannelConfig, model, noise, tail_ns=0) -> None:
    """check_sim_caps for the symbols of n_payload_bits framed under cfg plus
    tail_ns, then check_symbol_cap for their count, so an over-cap run is
    refused before its payload is drawn."""
    n_symbols = -(-n_payload_bits // cfg.payload_len) * cfg.frame_len
    check_sim_caps(model, noise, n_symbols * cfg.ts_ns + tail_ns)
    check_symbol_cap(n_symbols)


def cmd_calibrate(args) -> int:
    cfg = _channel_config(args)
    if args.file:
        # by default 4x the simulated stretch, a safety margin for sparse real windows
        quiet_us = 4 * quiet_duration_ns(cfg) / 1e3 if args.duration_us is None else args.duration_us
        with ProbeHandle(args.file, ProbeMode(args.mode)) as handle:
            trace = handle.probe_for(quiet_us)
    elif args.duration_us is not None:
        raise ValueError("--duration-us needs --file; sim mode simulates a fixed quiet stretch")
    else:
        trace = _sim_quiet_trace(args, cfg)
    state = calibrate(trace, cfg)
    print(
        f"theta_ns={state.theta_ns} quiet_mean_ns={state.quiet_mean_ns:.1f} "
        f"quiet_std_ns={state.quiet_std_ns:.1f} rule={cfg.decision_rule.value} "
        f"samples={len(trace)}"
    )
    if args.out:
        Path(args.out).write_text(
            f"theta_ns={state.theta_ns}\n"
            f"quiet_mean_ns={state.quiet_mean_ns:.3f}\n"
            f"quiet_std_ns={state.quiet_std_ns:.3f}\n"
            f"rule={cfg.decision_rule.value}\n",
            encoding="ascii",
        )
    return EXIT_OK


def cmd_send(args) -> int:
    cfg = _channel_config(args)
    seed = _require_seed(args) if not args.file else (args.seed or 0)
    if not args.file:
        if not args.out:
            raise ValueError("sim send requires --out TRACE_CSV")
        model = _sim_params(args).model()
        noise = NoiseProcess.from_degree(NoiseDegree(args.noise), model)
        if not args.payload_file:  # a payload file is counted once read, by sim_transmit
            _check_payload_caps(args.payload_bits, cfg, model, noise)
    payload = _payload_bits(args, seed)
    frames = encode_frames(payload, cfg)
    tx_bits = frames_to_bits(frames)
    if args.file:
        with ProbeHandle(args.file, ProbeMode(args.mode)) as handle:
            fsyncs = send_bits(tx_bits, cfg, handle)
        print(
            f"sent {len(frames)} frame(s), {len(payload)} payload bits, "
            f"{len(tx_bits)} symbols, {fsyncs} fsyncs"
        )
        return EXIT_OK
    trace = sim_transmit(tx_bits, cfg, model, derive_seed(seed, "channel"), noise=noise)
    trace_write(trace, args.out)
    print(
        f"sent {len(frames)} frame(s), {len(payload)} payload bits, {len(tx_bits)} symbols; "
        f"wrote {len(trace)} samples ({trace.duration_ns / 1e6:.2f} ms virtual) to {args.out}"
    )
    return EXIT_OK


def cmd_recv(args) -> int:
    cfg = _channel_config(args)
    state = _threshold_state(args, cfg)
    with contextlib.ExitStack() as stack:
        if args.file:
            handle = stack.enter_context(ProbeHandle(args.file, ProbeMode(args.mode)))
            source = WindowGrid(handle.blocks(), handle.meta())
        elif args.trace:
            source = TraceSource(trace_read(args.trace))
        else:
            raise ValueError("sim recv requires --trace TRACE_CSV")
        max_symbols = search_window(cfg, args.max_symbols)
        payloads = []
        for p in receive_frames(source, cfg, state, args.frames, max_symbols=max_symbols,
                                max_mismatches=args.max_mismatches):
            if p is None:  # yielded before the next frame is read: the probe stops here
                break
            payloads.append(p)
    lost, received = len(payloads) < args.frames, len(payloads) * cfg.payload_len
    n_bits = args.payload_bits or received
    if lost:  # the payload bits of the frames before the lost one
        n_bits = min(n_bits, received)
    if payloads:
        text = decode_frames(payloads, n_bits).to_text()
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="ascii")
        else:
            print(text)
    if lost:
        raise ProtocolTimeout(f"recovered {len(payloads)}/{args.frames} frame(s) "
                              f"within {max_symbols} symbols each")
    print(f"recovered {len(payloads)} frame(s), {n_bits} payload bits", file=sys.stderr)
    return EXIT_OK


def _bench_row(
    cfg: ChannelConfig, degree: NoiseDegree, noise: NoiseProcess | None, model, args, seed: int
) -> str:
    run_tag = f"{cfg.ts_us}:{degree.value}"
    err = loopback(
        prbs_sequence(args.payload_bits, derive_seed(seed, f"payload:{run_tag}")),
        cfg,
        model,
        calibration_seed=derive_seed(seed, "calibrate"),
        channel_seed=derive_seed(seed, f"channel:{run_tag}"),
        noise=noise,
    )
    cap = capacity(cfg.ts_us, err.p)
    return (
        f"{cfg.ts_us},{degree.value},{err.n_bits},{err.err_1to0},{err.err_0to1},"
        f"{err.rate_1to0:.6f},{err.rate_0to1:.6f},{err.p:.6f},"
        f"{cap.bandwidth_bps:.3f},{cap.capacity_bps:.3f}"
    )


def cmd_bench(args) -> int:
    seed = _require_seed(args)
    model = _sim_params(args).model()
    ts_list = [int(v) for v in args.ts_us.split(",") if v]
    degrees = [NoiseDegree(v) for v in args.noise.split(",") if v]
    if not ts_list or not degrees:
        raise ValueError("--ts-us and --noise must list at least one value each")
    runs = [
        (_channel_config(args, ts), degree, NoiseProcess.from_degree(degree, model))
        for ts in ts_list
        for degree in degrees
    ]
    for cfg, _, noise in runs:  # every run is checked before the first is simulated
        _check_payload_caps(args.payload_bits, cfg, model, noise, SOURCE_TAIL_NS)
    lines = [BENCH_CSV_HEADER]
    lines += [_bench_row(cfg, degree, noise, model, args, seed) for cfg, degree, noise in runs]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_episodes(args):
    return extract_episodes(trace_read(args.trace), args.theta_ns, args.max_gap_ns)


def cmd_analyze_episodes(args) -> int:
    episodes = _read_episodes(args)
    rows = ([ep.start_ns, ep.end_ns, ep.est_latency_ns, ep.n_samples] for ep in episodes)
    _write_csv(args.out, ["start_ns", "end_ns", "est_latency_ns", "n_samples"], rows)
    print(f"{len(episodes)} episode(s) -> {args.out}")
    return EXIT_OK


def cmd_analyze_rate(args) -> int:
    trace = trace_read(args.trace)
    counts = count_above(trace, args.theta_ns, args.bucket_s)
    rates = estimate_request_rate(counts, args.samples_per_request)
    rows = (
        [i, f"{i * args.bucket_s:.3f}", c, f"{r:.2f}"] for i, (c, r) in enumerate(zip(counts, rates))
    )
    _write_csv(args.out, ["bucket", "t_start_s", "count_above", "est_requests"], rows)
    print(f"{len(counts)} bucket(s), {sum(counts)} above-threshold samples -> {args.out}")
    return EXIT_OK


_TRUTH_FLAGS = {"0": False, "false": False, "False": False, "1": True, "true": True, "True": True}


def _read_truth(path) -> list[tuple[int, bool]]:
    """The (start_ns, is_split) rows of a ground-truth CSV."""
    truth = []
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["start_ns", "is_split"]:
            raise ValueError("truth CSV must start with header 'start_ns,is_split'")
        for row in filter(None, reader):  # blank lines are skipped
            try:
                start, is_split = row
                truth.append((int(start), _TRUTH_FLAGS[is_split]))
            except (ValueError, KeyError):
                raise ValueError(
                    f"truth CSV line {reader.line_num}: expected an integer start_ns and an "
                    f"is_split of 0/1/true/false, got {','.join(row)!r}"
                ) from None
    return truth


def cmd_analyze_splits(args) -> int:
    episodes = _read_episodes(args)
    if args.truth:  # scored before the CSV is written, so a bad truth writes nothing
        m = split_detection_metrics(
            episodes,
            _read_truth(args.truth),
            split_threshold_ns=args.split_threshold_ns,
            tol_ns=args.tol_ns,
        )
    labels = [classify_split(ep, args.split_threshold_ns).value for ep in episodes]
    rows = (
        [ep.start_ns, ep.end_ns, ep.est_latency_ns, ep.n_samples, label]
        for ep, label in zip(episodes, labels)
    )
    _write_csv(args.out, ["start_ns", "end_ns", "est_latency_ns", "n_samples", "label"], rows)
    print(f"{len(episodes)} episode(s), {labels.count('split')} classified split -> {args.out}")
    if args.truth:
        print(
            f"tp={m.tp} fp={m.fp} fn={m.fn} tn={m.tn} "
            f"precision={m.precision:.4f} recall={m.recall:.4f} f1={m.f1:.4f}"
        )
    return EXIT_OK


def cmd_analyze_classify(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required for the train/test split")
    dataset = load_labeled_dataset(args.dir)
    features = []
    for trace, label in dataset:
        episodes = extract_episodes(trace, args.theta_ns, args.max_gap_ns)
        features.append(
            histogram_features([ep.est_latency_ns for ep in episodes], label=label)
        )
    train, test = train_test_split(features, args.test_frac, args.seed)
    model = knn_train(train, k=args.k)
    y_true = [fv.label for fv in test]
    y_pred = [knn_classify(model, fv) for fv in test]
    report = classification_report(y_true, y_pred)
    write_classification_report(report, args.out)
    print(
        f"classified {len(test)} test sample(s) from {len(dataset)} total; "
        f"accuracy={report.accuracy:.4f} -> {args.out}"
    )
    return EXIT_OK


def cmd_analyze_keystrokes(args) -> int:
    if not math.isfinite(args.min_spacing_ms):
        raise ValueError(f"--min-spacing-ms must be finite, got {args.min_spacing_ms}")
    trace = trace_read(args.trace)
    events, deltas = keystroke_timings(
        trace,
        args.theta_ns,
        min_spacing_ns=round(args.min_spacing_ms * 1e6),
        max_gap_ns=args.max_gap_ns,
    )
    rows = ([i, event, deltas[i] if i < len(deltas) else ""] for i, event in enumerate(events))
    _write_csv(args.out, ["index", "event_ns", "delta_to_next_ns"], rows)
    print(f"{len(events)} keystroke(s) -> {args.out}")
    return EXIT_OK


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse reports a non-number as "invalid integer value"
    return parse


def _add_channel_flags(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    """The flags of one channel; a sweep (bench) is sim-only, with no --file or --mode."""
    if not sweep:
        p.add_argument("--ts-us", type=int, default=50, help="symbol duration in microseconds")
        p.add_argument("--file", help="probe this file (caller-created) instead of simulating")
        p.add_argument(
            "--mode",
            choices=[m.value for m in ProbeMode],
            default=ProbeMode.FSYNC_ONLY.value,
            help="probe mutation mode",
        )
        p.add_argument(
            "--cpu", type=_int_at_least(0), help="with --file: pin the probe to this CPU"
        )
    p.add_argument(
        "--decision",
        choices=[r.value for r in DecisionRule],
        default=DecisionRule.MEAN.value,
        help="per-symbol decision statistic",
    )
    p.add_argument(
        "--frame-payload-len",
        type=int,
        default=8000,
        help="payload bits per frame",
    )
    p.add_argument("--sim-params", help="key=value model parameters file")
    p.add_argument("--seed", type=int, help="run seed (required in sim mode)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsyncchan",
        description="fsync-latency covert channel toolkit (simulation by default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="derive the decision threshold from quiet traffic")
    _add_channel_flags(p)
    p.add_argument("--duration-us", type=float, help="with --file: quiet probing (see README)")
    p.add_argument("--out", help="write calibration as key=value lines")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("send", help="transmit a payload (sim writes the receiver trace)")
    _add_channel_flags(p)
    p.add_argument("--payload-file", help="text file of 0/1 payload bits")
    p.add_argument("--payload-bits", type=int, default=8000, help="PRBS payload length")
    degrees = [d.value for d in NoiseDegree]
    p.add_argument("--noise", choices=degrees, default="none", help="background noise degree")
    p.add_argument("--out", help="trace CSV to write (sim mode)")
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("recv", help="receive frames from a trace (sim) or live probe")
    _add_channel_flags(p)
    p.add_argument("--trace", help="trace CSV to decode (sim mode)")
    p.add_argument("--frames", type=_int_at_least(1), default=1, help="frames to recover")
    p.add_argument(
        "--payload-bits", type=_int_at_least(1), help="trim recovered payload to this many bits"
    )
    p.add_argument("--theta-ns", type=_int_at_least(1), help="decision threshold override")
    p.add_argument(
        "--max-mismatches", type=_int_at_least(0), default=1, help="header bit-error budget"
    )
    p.add_argument("--max-symbols", type=_int_at_least(1), help="header search window per frame")
    p.add_argument("--out", help="write recovered payload bits")
    p.set_defaults(func=cmd_recv)

    p = sub.add_parser("bench", help="loopback BER/capacity sweep on the simulator")
    _add_channel_flags(p, sweep=True)
    p.add_argument("--ts-us", default="50,200,400", help="comma-separated symbol durations (us)")
    p.add_argument("--noise", default="none", help="comma-separated noise degrees")
    p.add_argument("--payload-bits", type=int, default=8000, help="payload bits per run")
    p.add_argument("--out", help="bench CSV (stdout if omitted)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="victim-activity analyses over traces")
    asub = p.add_subparsers(dest="analysis", required=True)

    pe = asub.add_parser("episodes", help="extract above-threshold episodes")
    pe.add_argument("--trace", required=True)
    pe.add_argument("--theta-ns", type=int, required=True)
    pe.add_argument("--max-gap-ns", type=int)
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=cmd_analyze_episodes)

    pr = asub.add_parser("rate", help="above-threshold counts and request rate per bucket")
    pr.add_argument("--trace", required=True)
    pr.add_argument("--theta-ns", type=int, required=True)
    pr.add_argument("--bucket-s", type=float, default=1.0)
    pr.add_argument("--samples-per-request", type=float, default=10.0)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_analyze_rate)

    ps = asub.add_parser("splits", help="flag expensive commits among episodes")
    ps.add_argument("--trace", required=True)
    ps.add_argument("--theta-ns", type=int, default=70_000)
    ps.add_argument("--split-threshold-ns", type=int, default=SPLIT_THRESHOLD_NS)
    ps.add_argument("--max-gap-ns", type=int)
    ps.add_argument("--truth", help="ground-truth CSV (start_ns,is_split) to score against")
    ps.add_argument("--tol-ns", type=int, default=10_000_000, help="truth matching tolerance")
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_analyze_splits)

    pc = asub.add_parser("classify", help="k-NN workload classification over a labeled dataset")
    pc.add_argument("--dir", required=True, help="dataset dir with labels.csv + trace CSVs")
    pc.add_argument("--theta-ns", type=int, required=True)
    pc.add_argument("--max-gap-ns", type=int)
    pc.add_argument("--k", type=int, default=5)
    pc.add_argument("--test-frac", type=float, default=0.3)
    pc.add_argument("--seed", type=int)
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_analyze_classify)

    pk = asub.add_parser("keystrokes", help="recover keystroke timings")
    pk.add_argument("--trace", required=True)
    pk.add_argument("--theta-ns", type=int, required=True)
    pk.add_argument("--min-spacing-ms", type=float, default=50.0)
    pk.add_argument("--max-gap-ns", type=int)
    pk.add_argument("--out", required=True)
    pk.set_defaults(func=cmd_analyze_keystrokes)

    return parser


def _pin_to_cpu(args) -> None:
    """Pin this process to the one CPU --cpu names, before the live probe
    starts; sim mode has no probe to pin, so --cpu needs --file."""
    if not args.file:
        raise ValueError("--cpu needs --file; it pins the live probe to one CPU")
    if args.cpu not in (allowed := os.sched_getaffinity(0)):
        raise ValueError(f"--cpu {args.cpu} is not one this process may run on: {sorted(allowed)}")
    os.sched_setaffinity(0, {args.cpu})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        if getattr(args, "cpu", None) is not None:
            _pin_to_cpu(args)
        return args.func(args)
    except ProtocolTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (ValueError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProbeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
