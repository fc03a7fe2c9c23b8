"""fsyncchan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --hw-probe DIR

Run from the root of a source checkout; the package is imported from `src/`.
One run sets the workload up several times (`setup_s` is the median), runs
one untimed pass whose outputs are the reference, then repeats the timed pass
for S seconds; every pass must reproduce the reference outputs exactly.
After the timed part, the reference outputs are checked against what the
`fsyncchan` command prints for the same arguments.

With `--trace 0` the last stdout line carries the end-to-end metrics
(`wall_s`: median seconds of one pass; `setup_s`: median seconds of one
set-up; `peak_rss_mb`).  Both times are rescaled for the host's speed at the
moment they were taken (see `Run`), and a live-loopback pass that scanned
extra symbols for missed headers is scaled back to the symbols sent; the raw
times are in the report.  With
`--trace 1` traced and untraced passes alternate, and the last line carries
the per-layer metrics (medians over the traced passes) plus the tracing
overhead; the spans are saved under `.perfbench_work/`.  The line before the
last one is a JSON report: run context, the workload's reason, the output
checks and the simulated quality statistics (`ber`, `fail_share`,
`classify_accuracy`, ...), which depend on the seed and are not gated.

`--hw-probe DIR` is the opt-in hardware section: it times real fsyncs on a
file it creates in DIR, removes the file, prints the `probe.*` numbers and
exits; it never runs as part of a workload.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_TARGET_S = 1.0
MIN_PASSES = 3
YARDSTICK_ROWS = 25_000
# about the yardstick's time on the 2-core VM (Python 3.11) where this
# benchmark was defined, so rescaled times read as seconds on that host
YARDSTICK_BASE_S = 0.06


def _median(values):
    return statistics.median(values) if values else 0.0


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _context(seed: int) -> dict:
    import numpy

    pkg = SRC / "fsyncchan"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": {
            p.name: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted(pkg.glob("*.py"))
        },
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(times: tuple[dict, dict], c, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass from its span times and counts."""
    self_s, total_s = times

    def own(prefix):
        return sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)

    def total(*names):
        return sum(total_s.get(n, 0.0) for n in names)

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    simchan_s = own("simchan.")
    modem_s = self_s.get("modem.receive_frame", 0.0)
    read_s = total("core.trace_read", "core.load_labeled_dataset")
    episodes_s = total("analyzer.extract_episodes")
    knn_s = total(
        "analyzer.histogram_features",
        "analyzer.train_test_split",
        "analyzer.knn_train",
        "analyzer.knn_classify",
        "analyzer.classification_report",
    )
    delivered = c["modem.frame_symbols"]
    return {
        "simchan.busy_s": simchan_s,
        "simchan.probes": c["simchan.probes"],
        "simchan.probes_per_s": rate(c["simchan.probes"], simchan_s),
        "modem.busy_s": modem_s,
        "modem.wait_s": total("simchan.SimSource.probe_for", "modem.TraceSource.probe_for"),
        "modem.replay_s": total("modem.TraceSource.probe_for"),
        "modem.symbols": c["modem.symbols"],
        "modem.symbols_per_s": rate(c["modem.symbols"], modem_s),
        "modem.empty_windows": c["modem.empty_windows"],
        "modem.sync_symbols": c["modem.sync_symbols"],
        "modem.sync_yield": rate(delivered, c["modem.symbols"]),
        "modem.calibrate_s": total("modem.calibrate"),
        "modem.bit_errors": c["modem.bit_errors"],
        "modem.frames_lost": c["modem.frames_lost"],
        "core.trace_write_s": total("core.trace_write"),
        "core.trace_read_s": read_s,
        "core.rows_written": c["core.rows_written"],
        "core.rows_read": c["core.rows_read"],
        "core.read_rows_per_s": rate(c["core.rows_read"], read_s),
        "core.csv_bytes": c["core.csv_bytes"],
        "metrics.busy_s": own("metrics."),
        "metrics.bits_compared": c["metrics.bits_compared"],
        "analyzer.busy_s": own("analyzer."),
        "analyzer.episodes_s": episodes_s,
        "analyzer.episode_samples_per_s": rate(c["analyzer.episode_samples"], episodes_s),
        "analyzer.episodes": c["analyzer.episodes"],
        "analyzer.rate_s": total("analyzer.count_above", "analyzer.estimate_request_rate"),
        "analyzer.splits_s": total("analyzer.classify_split", "analyzer.split_detection_metrics"),
        "analyzer.keystrokes_s": total("analyzer.keystroke_timings"),
        "analyzer.knn_s": knn_s,
        "analyzer.knn_queries_per_s": rate(
            c["analyzer.knn_queries"], total("analyzer.knn_classify")
        ),
        "unattributed_s": wall_s - sum(self_s.values()),
    }


def host_ref_s() -> float:
    """Seconds for a fixed pure-Python job, the host-speed yardstick: draw
    Gaussian samples, format them as CSV rows, parse them back and scan them,
    as the workloads do, without calling the package."""
    t0 = time.perf_counter()
    rng = random.Random(1)
    rows = [(i * 23_000, max(1000, round(rng.gauss(21_000, 2_500)))) for i in range(YARDSTICK_ROWS)]
    buf = io.StringIO()
    for ts, lat in rows:
        buf.write(f"{ts},{lat}\n")
    parsed = []
    for line in buf.getvalue().splitlines():
        a, b = line.split(",")
        parsed.append((int(a), int(b)))
    parsed.sort(key=lambda row: row[1])
    sum(1 for _, lat in parsed if lat > 25_000)
    return time.perf_counter() - t0


class Run:
    """One benchmark run of one workload.

    The speed of a shared host drifts, by up to 2x within minutes, which no
    run of a minute can average out.  So every timed interval sits between
    two readings of a fixed yardstick job, and its time is also reported
    rescaled by YARDSTICK_BASE_S / (mean of the two readings): seconds on a
    host whose yardstick time is YARDSTICK_BASE_S.  A change in the program
    moves the rescaled times as it moves the raw ones; both are reported.
    """

    def __init__(self, workload, trace: bool):
        self.workload = workload
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[tuple[float, float]]] = {
            "setup": [], "untraced": [], "traced": []
        }
        self.yardstick: list[float] = []

    def _guarded(self, what, fn, *args):
        """Run fn; an exception is recorded and reported, never dropped."""
        try:
            return fn(*args)
        except Exception:
            self.errors.append(f"{what}: {traceback.format_exc(limit=4)}")
            return None

    def _timed(self, kind, fn, *args):
        """Time fn between two yardstick readings; keep (raw, rescaled).  A
        pass's rescaled time is also scaled to its stated work (`work_scale`)."""
        if not self.yardstick:
            self.yardstick.append(host_ref_s())
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        self.yardstick.append(host_ref_s())
        host = (self.yardstick[-2] + self.yardstick[-1]) / 2
        work = getattr(result, "work_scale", 1.0)
        self.samples[kind].append((raw, raw * work * YARDSTICK_BASE_S / host))
        return result

    def setup(self) -> None:
        """Set up several times.  A traced run sets up once more, traced, for
        the layer numbers of set-up-only calls."""
        from spans import NullRecorder, SpanRecorder

        start = time.perf_counter()
        while len(self.samples["setup"]) < SETUP_MAX_REPEATS and (
            len(self.samples["setup"]) < SETUP_MIN_REPEATS
            or time.perf_counter() - start < SETUP_TARGET_S
        ):
            self._timed("setup", self.workload.setup, NullRecorder())
        self.setup_rec = SpanRecorder() if self.trace else None
        if self.trace:
            self.workload.setup(self.setup_rec)

    def timed_pass(self, kind, rec, reference):
        """prepare (untimed), then one timed pass checked against the reference."""
        self.workload.prepare()
        result = self._timed(kind, self._guarded, "pass", self.workload.run_pass, rec)
        ops = reference.ops if reference is not None else 1
        self.attempted += ops
        if result is None or reference is None or result.outputs != reference.outputs:
            self.failed += ops
            if result is not None:
                self.errors.append("pass outputs differ from the reference pass")
        return result

    def median(self, kind, rescaled=True):
        return _median([sample[1 if rescaled else 0] for sample in self.samples[kind]])


def _quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def _main_workload(args) -> int:
    from spans import NullRecorder, SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, work_dir)
        run = Run(workload, bool(args.trace))
        run.setup()

        null = NullRecorder()
        workload.prepare()
        reference = run._guarded("reference pass", workload.run_pass, null)

        rec = SpanRecorder() if run.trace else None
        start = time.perf_counter()
        k = 0
        while (
            time.perf_counter() - start < args.seconds
            or len(run.samples["untraced"]) < MIN_PASSES
            or (run.trace and len(run.samples["traced"]) < MIN_PASSES)
        ):
            if run.trace and k % 2 == 1:
                rec.run_id = len(run.samples["traced"]) + 1
                result = run.timed_pass("traced", rec, reference)
            else:
                result = run.timed_pass("untraced", null, reference)
            k += 1
            if result is None and reference is None:
                break  # the workload cannot run at all; report, do not spin

        checks = []
        if reference is not None:
            for name, ok, detail in run._guarded("checks", workload.checks, reference) or [
                ("checks", False, "raised")
            ]:
                checks.append({"name": name, "ok": ok, "detail": detail})
                run.attempted += 1
                run.failed += 0 if ok else 1

        if run.trace:
            times = rec.layer_times()
            layers = [
                _layer_metrics(times.get(i + 1, ({}, {})), rec.counts(i + 1), raw)
                for i, (raw, _) in enumerate(run.samples["traced"])
            ]
            measured = {name: _median([m[name] for m in layers]) for name in layers[0]}
            _, setup_total = run.setup_rec.layer_times().get(0, ({}, {}))
            measured["core.framing_s"] = setup_total.get(
                "core.encode_frames", 0.0
            ) + setup_total.get("core.frames_to_bits", 0.0)
            measured["trace_overhead_s"] = run.median("traced", False) - run.median(
                "untraced", False
            )
            metrics = {
                name: {"value": measured.get(name, 0.0), "unit": unit}
                for name, unit in _PER_LAYER_UNITS.items()
            }
            rec.write(WORK / f"spans-{args.workload}.npz")
        else:
            metrics = {
                "wall_s": {"value": run.median("untraced"), "unit": "s"},
                "setup_s": {"value": run.median("setup"), "unit": "s"},
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            }

        report = {
            "workload": workload.name,
            "why": workload.why,
            "size": args.size,
            "context": _context(args.seed),
            "yardstick_s": {"median": _median(run.yardstick), "base": YARDSTICK_BASE_S},
            "raw_s": {kind: _quartiles([r for r, _ in v]) for kind, v in run.samples.items() if v},
            "rescaled_s": {kind: _quartiles([r for _, r in v]) for kind, v in run.samples.items() if v},
            "passes": {kind: len(v) for kind, v in run.samples.items()},
            "quality": reference.quality if reference is not None else None,
            "checks": checks,
            "errors": run.errors,
        }
        for err in run.errors:
            print(err, file=sys.stderr)
        correct = reference is not None and not run.errors and all(c["ok"] for c in checks)
        print(json.dumps(report, sort_keys=True))
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": max(1, run.attempted),
                    "failed": run.failed,
                    "metrics": metrics,
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


# per-layer metric units, in BENCHMARK.json order
_PER_LAYER_UNITS = {
    "simchan.busy_s": "s",
    "simchan.probes": "count",
    "simchan.probes_per_s": "1/s",
    "modem.busy_s": "s",
    "modem.wait_s": "s",
    "modem.replay_s": "s",
    "modem.symbols": "count",
    "modem.symbols_per_s": "1/s",
    "modem.empty_windows": "count",
    "modem.sync_symbols": "count",
    "modem.sync_yield": "ratio",
    "modem.calibrate_s": "s",
    "modem.bit_errors": "count",
    "modem.frames_lost": "count",
    "core.framing_s": "s",
    "core.trace_write_s": "s",
    "core.trace_read_s": "s",
    "core.rows_written": "count",
    "core.rows_read": "count",
    "core.read_rows_per_s": "1/s",
    "core.csv_bytes": "bytes",
    "metrics.busy_s": "s",
    "metrics.bits_compared": "count",
    "analyzer.busy_s": "s",
    "analyzer.episodes_s": "s",
    "analyzer.episode_samples_per_s": "1/s",
    "analyzer.episodes": "count",
    "analyzer.rate_s": "s",
    "analyzer.splits_s": "s",
    "analyzer.keystrokes_s": "s",
    "analyzer.knn_s": "s",
    "analyzer.knn_queries_per_s": "1/s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}


def _main_hw_probe(args) -> int:
    from hwprobe import measure

    directory = Path(args.hw_probe)
    if not directory.is_dir():
        print(f"error: --hw-probe {directory} is not a directory", file=sys.stderr)
        return 2
    print(json.dumps({"hardware": measure(directory), "gated": False}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, as listed in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="input size")
    parser.add_argument("--hw-probe", metavar="DIR", help="opt-in real-fsync measurements in DIR")
    args = parser.parse_args(argv)
    if not (SRC / "fsyncchan" / "__init__.py").is_file():
        print(f"error: no fsyncchan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.hw_probe:
        return _main_hw_probe(args)
    if not args.workload:
        parser.error("--workload is required")
    return _main_workload(args)


if __name__ == "__main__":
    sys.exit(main())
