"""Compare two checkouts on one workload in alternating pairs of benchmark runs.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S [--seed S0]

Pair i runs

    python3 perfbench/run.py --workload W --seed S0+i --seconds S --trace 0

from each checkout, one run at a time.  The parent goes first in even pairs
and the change in odd ones, so a drift in the host's speed falls on both
sides alike.  For each end-to-end metric that CHANGE_DIR/BENCHMARK.json
lists, prints each side's median and quartiles, the pairs the change won
(ties count for neither) and whether that is a gain: the change wins at
least nine tenths of the pairs and the medians differ, in the metric's
better direction, by more than the distance between the parent's quartiles.
It also prints each metric's order effect, the median over pairs of second
run / first run - 1: it reads a slowdown of whichever side runs second (the
host, or a fresh checkout), while a pure difference between the sides reads
about 0 there.  Runs whose outputs were not correct are counted per side,
and each side's line count of src/fsyncchan is printed from its report
line, so a change that deletes code shows its line delta next to the metrics.
The host's `parallel_speedup` (see bench_file) is printed before and after
the pairs, so a gain that rests on a free second CPU shows whether it had
one.  Exits 1 when any run on either side was not correct, after printing
every line, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_file import parallel_speedup, run_once, summary


def compare(parent: list[float], change: list[float], unit: str, better: str) -> dict:
    """Both sides' summaries of one metric over the same pairs, the change's
    wins and whether they make a gain."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same number of runs on each side, at least 2")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    base, new = summary(parent, unit), summary(change, unit)
    gain = wins >= 0.9 * len(parent) and sign * (base["median"] - new["median"]) > (
        base["q3"] - base["q1"]
    )
    return {"parent": base, "change": new, "wins": wins, "pairs": len(parent), "gain": gain}


def order_effect(parent: list[float], change: list[float]) -> float:
    """The median over pairs of second run / first run - 1, the parent
    running first in even pairs and the change in odd ones, as main orders
    them."""
    return statistics.median(
        (c / p if i % 2 == 0 else p / c) - 1 for i, (p, c) in enumerate(zip(parent, change))
    )


def report_line(name: str, better: str, result: dict) -> str:
    def side(s: dict) -> str:
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    return (
        f"{name} ({result['parent']['unit']}, {better} is better): "
        f"parent {side(result['parent'])}  change {side(result['change'])}  "
        f"change won {result['wins']}/{result['pairs']}  gain: {'yes' if result['gain'] else 'no'}"
    )


def src_lines_line(parent: dict, change: dict) -> str:
    """Each side's total source line count, from a report line of each."""
    old, new = (sum(r["context"]["src_lines"].values()) for r in (parent, change))
    return f"src lines: parent {old}  change {new}  ({new - old:+d})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="workload name, as in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (at least 2)")
    parser.add_argument("--seconds", type=float, default=10.0, help="--seconds of each run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    reports: dict[str, dict] = {}
    print(f"parallel_speedup before the pairs: {parallel_speedup()}", flush=True)
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            reports[side], result = run_once(roots[side], args.workload, args.seed + i, args.seconds)
            runs[side].append(result)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"parallel_speedup after the pairs: {parallel_speedup()}")
    for m in metrics:
        values = {s: [r["metrics"][m["name"]]["value"] for r in rs] for s, rs in runs.items()}
        result = compare(values["parent"], values["change"], m["unit"], m["better"])
        print(report_line(m["name"], m["better"], result))
        effect = order_effect(values["parent"], values["change"])
        print(f"{m['name']} order effect (second run / first run - 1, median): {effect:+.2%}")
    bad = {side: sum(not r["correct"] or r["failed"] > 0 for r in rs) for side, rs in runs.items()}
    for side, rs in runs.items():
        print(f"{side}: {bad[side]} of {len(rs)} runs not correct")
    print(src_lines_line(reports["parent"], reports["change"]))
    return 1 if any(bad.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
