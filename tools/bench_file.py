"""Write a BENCH JSON file: the benchmark's end-to-end metrics over fixed seeds.

    python3 tools/bench_file.py --out BENCH_<n>.json [--root DIR]

For each workload that DIR/BENCHMARK.json lists (DIR defaults to the checkout
holding this script), runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from DIR at each seed of SEEDS, with T = SECONDS, one run at a time, and
writes the median and quartiles of every end-to-end metric per workload,
each run's `correct` and `failed` values, and the run context from the
benchmark's report line (Python, numpy, nproc, commit and the line count of
each source file).  The context's `dirty` is true when DIR's tracked files
differ from that commit, and null when DIR is not a git checkout.  The
context also holds `parallel_speedup`: the work per second of two copies of
one pure-Python job run at once in two processes over one copy's alone,
the median over SPIN_REPEATS turns of each, about 2 where both cores of an
nproc of 2 are free and about 1 where the host runs the two on one core, so
it measures where the host places processes.  `parallel_speedup_pinned` is the same with each of the two
processes pinned to its own CPU, the lowest two of os.sched_getaffinity(0),
and null where fewer than two are allowed; only those two are pinned.  One
more run per workload, the same command with `--trace 1` at the first seed,
gives the LAYERS metrics, each the median over that run's traced passes.  T
is fixed so that any two BENCH files compare.

The file's `quality` section holds the channel's quality next to its speed,
both from DIR's src/ and each the median and quartiles of REPEATS runs:

- `loopback`: one row per symbol time and noise of LOOPBACK_GRID, each run
  as `python3 -m fsyncchan bench --seed 1234 --ts-us TS --noise N
  --payload-bits 80000`: the process's wall time and the row's `p_err` and
  error counts.  `startup_s`, the wall time of `python3 -m fsyncchan --help`,
  is the part of each wall time spent starting Python and importing;
- `import_rss_mb`: the peak resident memory (`ru_maxrss`) of a fresh
  Python process that imports `fsyncchan.cli` and exits, the baseline that
  every fsyncchan process pays before it does any work;
- `header_sync`: symbols per second of `receive_frames` searching quiet
  SimSource traffic at HEADER_SYNC_TS_US for a header that never comes,
  HEADER_SYNC_SYMBOLS symbols a search, the simulated probing included (in
  SimSource's child process where two CPUs are allowed).
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = (1, 2, 3, 4, 5)
SECONDS = 10.0
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
LAYERS = (
    "core.trace_read_s",
    "core.read_rows_per_s",
    "core.trace_write_s",
    "core.rows_written",
    "analyzer.busy_s",
    "analyzer.episodes_s",
    "analyzer.episode_samples_per_s",
    "analyzer.knn_s",
    "analyzer.knn_queries_per_s",
)
SPIN_STEPS = 2_000_000  # about 0.2 s of pure Python on a 2-core VM
SPIN_REPEATS = 5  # one timing of each side let a single slow one pass 2 on two CPUs
CONTEXT_KEYS = ("python", "numpy", "nproc", "git_commit", "src_lines")
REPEATS = 5
LOOPBACK_GRID = [(ts, noise) for ts in (50, 200, 400) for noise in ("none", "high")]
LOOPBACK_ARGS = ("bench", "--seed", "1234", "--payload-bits", "80000")
HEADER_SYNC_SYMBOLS = 80_000
HEADER_SYNC_TS_US = 50
# ru_maxrss is in KiB on Linux; /1024 gives MB as perfbench's peak_rss_mb does
IMPORT_RSS_CODE = (
    "import resource, fsyncchan.cli; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)


def run_once(
    root: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> tuple[dict, dict]:
    """The report and metrics lines of one benchmark run from the checkout
    root, untraced unless trace is 1."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spin(steps: int) -> int:
    """A fixed pure-Python job: one loop of `steps` integer steps."""
    total = 0
    for i in range(steps):
        total += i * i
    return total


def cpu_pair(allowed: set[int]) -> tuple[int, int] | None:
    """The two CPUs of allowed that parallel_speedup pins its workers to:
    the lowest two, or None when fewer than two are allowed."""
    return tuple(sorted(allowed)[:2]) if len(allowed) >= 2 else None


def _pin_worker(cpus) -> None:
    """Pool initializer: pin this worker to the next CPU of the queue."""
    os.sched_setaffinity(0, {cpus.get()})


def parallel_speedup(
    steps: int = SPIN_STEPS, cpus: tuple[int, int] | None = None, repeats: int = SPIN_REPEATS
) -> float:
    """Work per second of two copies of spin(steps) run at once in two
    processes over that of one copy alone, timed the same way: the median
    of `repeats` ratios, each from one alone and one both timing taken in
    turn.  With cpus, two distinct CPUs, each of the two processes is
    pinned to one of them."""
    queue = multiprocessing.SimpleQueue()
    for cpu in cpus or ():
        queue.put(cpu)
    ratios = []
    with multiprocessing.Pool(2, _pin_worker if cpus else None, (queue,)) as pool:
        pool.map(spin, [1, 1], chunksize=1)  # both workers up before timing
        for _ in range(repeats):
            start = time.perf_counter()
            pool.apply(spin, (steps,))
            alone = time.perf_counter() - start
            start = time.perf_counter()
            pool.map(spin, [steps, steps], chunksize=1)
            both = time.perf_counter() - start
            ratios.append(2 * alone / both)
    return round(statistics.median(ratios), 3)


def dirty(root: Path) -> bool | None:
    """Whether the tracked files of the git checkout root differ from its
    HEAD; None when root is not a git checkout or git is missing."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True,
        )
    except FileNotFoundError:
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def bench(root: Path) -> dict:
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    units: dict[str, str] = {}
    context = None
    for seed in SEEDS:
        for workload in workloads:
            report, result = run_once(root, workload, seed, SECONDS)
            context = context or {k: report["context"][k] for k in CONTEXT_KEYS}
            run = {k: result[k] for k in ("correct", "failed", "attempted")}
            run["seed"] = seed
            for name in METRICS:
                run[name] = result["metrics"][name]["value"]
                units[name] = result["metrics"][name]["unit"]
            runs[workload].append(run)
            print(workload, json.dumps(run), file=sys.stderr)
    layers = {}
    for workload in workloads:
        _, result = run_once(root, workload, SEEDS[0], SECONDS, trace=1)
        layers[workload] = {name: result["metrics"][name] for name in LAYERS}
        print(workload, "traced", json.dumps(layers[workload]), file=sys.stderr)
    context["src_lines_total"] = sum(context["src_lines"].values())
    context["dirty"] = dirty(root)
    context["parallel_speedup"] = parallel_speedup()
    pair = cpu_pair(os.sched_getaffinity(0))
    context["parallel_speedup_pinned"] = parallel_speedup(cpus=pair) if pair else None
    return {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "traced_seed": SEEDS[0],
        "context": context,
        "workloads": {
            w: {
                "metrics": {m: summary([r[m] for r in rs], units[m]) for m in METRICS},
                "runs": rs,
                "layers": layers[w],
            }
            for w, rs in runs.items()
        },
    }


def parse_bench_csv(text: str) -> list[dict]:
    """The rows of a `fsyncchan bench` CSV, each field an int, a float or,
    for the noise degree, a str."""

    def value(field: str):
        for kind in (int, float):
            try:
                return kind(field)
            except ValueError:
                pass
        return field

    return [{k: value(v) for k, v in row.items()} for row in csv.DictReader(text.splitlines())]


def _timed(root: Path, argv: list[str]) -> tuple[float, str]:
    """Wall time and stdout of one Python process run from root with its
    src/ first on the import path."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return elapsed, proc.stdout


def header_sync_times(n_symbols: int, repeats: int) -> list[float]:
    """Seconds per search of receive_frames over n_symbols of quiet
    simulated traffic at HEADER_SYNC_TS_US, one search per channel seed
    0..repeats-1, each from a fresh calibration; quality runs it in a child
    that imports DIR's src/."""
    from fsyncchan.core import BitStream, ChannelConfig
    from fsyncchan.modem import calibrate, receive_frames
    from fsyncchan.simchan import SenderSchedule, SimParams, SimSource, calibration_trace

    cfg, model = ChannelConfig(ts_us=HEADER_SYNC_TS_US), SimParams().model()
    quiet = SenderSchedule(BitStream(bytes(n_symbols)), cfg.ts_us)
    times = []
    for seed in range(repeats):
        state = calibrate(calibration_trace(model, cfg, seed=1_000 + seed), cfg)
        source = SimSource(quiet, model, seed)
        start = time.perf_counter()
        found = next(receive_frames(source, cfg, state, 1, max_symbols=n_symbols))
        times.append(time.perf_counter() - start)
        if found is not None:
            raise RuntimeError(f"a header was found in quiet traffic, channel seed {seed}")
    return times


def quality(root: Path) -> dict:
    """The loopback grid's wall times and error rates, header sync in
    symbols/s and the import footprint, from root's src/."""
    startup = [_timed(root, ["-m", "fsyncchan", "--help"])[0] for _ in range(REPEATS)]
    import_rss = [int(_timed(root, ["-c", IMPORT_RSS_CODE])[1]) / 1024 for _ in range(REPEATS)]
    rows = []
    for ts, noise in LOOPBACK_GRID:
        argv = ["-m", "fsyncchan", *LOOPBACK_ARGS, "--ts-us", str(ts), "--noise", noise]
        runs = [_timed(root, argv) for _ in range(REPEATS)]
        if len({out for _, out in runs}) != 1:
            raise RuntimeError(f"{' '.join(argv)} printed different rows")
        row, = parse_bench_csv(runs[0][1])
        row["wall_s"] = summary([t for t, _ in runs], "s")
        rows.append(row)
        print("loopback", json.dumps(row), file=sys.stderr)
    code = (
        f"import json, sys; sys.path.insert(1, {str(Path(__file__).parent)!r}); import bench_file; "
        f"print(json.dumps(bench_file.header_sync_times({HEADER_SYNC_SYMBOLS}, {REPEATS})))"
    )
    times = json.loads(_timed(root, ["-c", code])[1])
    return {
        "loopback_command": "python3 -m fsyncchan " + " ".join(LOOPBACK_ARGS) + " --ts-us TS --noise N",
        "startup_s": summary(startup, "s"),
        "import_rss_mb": summary(import_rss, "MB"),
        "loopback": rows,
        "header_sync": {
            "symbols": HEADER_SYNC_SYMBOLS,
            "ts_us": HEADER_SYNC_TS_US,
            "symbols_per_s": summary([HEADER_SYNC_SYMBOLS / t for t in times], "1/s"),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="BENCH JSON file to write")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    root = args.root.resolve()
    result = {**bench(root), "quality": quality(root)}
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
