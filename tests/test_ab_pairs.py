"""The pair comparison that tools/ab_pairs.py prints, on fixed numbers."""

import importlib
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def ab_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("ab_pairs")


def test_lower_is_better_gain(ab_pairs):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    change = [p - 6.0 for p in parent[:-1]] + [19.0]  # the last pair is a tie
    result = ab_pairs.compare(parent, change, "s", "lower")
    assert result["wins"] == 9 and result["pairs"] == 10
    # statistics.quantiles' default (exclusive) method
    assert result["parent"] == {"unit": "s", "median": 14.5, "q1": 11.75, "q3": 17.25, "n": 10}
    assert result["change"]["median"] == 8.5
    assert result["gain"]  # 9 of 10 won, and 14.5 - 8.5 > 17.25 - 11.75
    line = ab_pairs.report_line("wall_s", "lower", result)
    assert line == (
        "wall_s (s, lower is better): parent 14.5 [11.75, 17.25]  change 8.5 [5.75, 11.25]  "
        "change won 9/10  gain: yes"
    )


def test_gain_needs_the_wins_and_the_gap(ab_pairs):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # every pair won, but the medians differ by 3 against an IQR of 5.5
    result = ab_pairs.compare(parent, [p - 3.0 for p in parent], "s", "lower")
    assert result["wins"] == 10 and not result["gain"]
    # a wide gap, but only 8 of 10 pairs won
    change = [p - 9.0 for p in parent[:8]] + [20.0, 21.0]
    result = ab_pairs.compare(parent, change, "s", "lower")
    assert result["wins"] == 8 and not result["gain"]


def test_higher_is_better(ab_pairs):
    parent = [1.0, 2.0, 3.0, 4.0]
    result = ab_pairs.compare(parent, [p + 10.0 for p in parent], "1/s", "higher")
    assert result["wins"] == 4 and result["gain"]
    result = ab_pairs.compare(parent, [p - 10.0 for p in parent], "1/s", "higher")
    assert result["wins"] == 0 and not result["gain"]


def test_unequal_or_single_runs_refused(ab_pairs):
    with pytest.raises(ValueError):
        ab_pairs.compare([1.0, 2.0], [1.0], "s", "lower")
    with pytest.raises(ValueError):
        ab_pairs.compare([1.0], [1.0], "s", "lower")


def test_order_effect_reads_the_second_run_not_the_side(ab_pairs):
    base = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5, 12.5, 11.5, 13.5]
    # the side that runs second reads 4% more, whichever it is: the parent
    # runs first in even pairs and the change in odd ones
    first, second = base, [b * 1.04 for b in base]
    parent = [f if i % 2 == 0 else s for i, (f, s) in enumerate(zip(first, second))]
    change = [s if i % 2 == 0 else f for i, (f, s) in enumerate(zip(first, second))]
    assert ab_pairs.order_effect(parent, change) == pytest.approx(0.04)
    # the change reads 4% more in every pair, in either order: about 0
    effect = ab_pairs.order_effect(base, [b * 1.04 for b in base])
    assert abs(effect) < 1e-3
    assert effect == pytest.approx((0.04 + 1 / 1.04 - 1) / 2)


def test_src_lines_line(ab_pairs):
    # the report line's per-file counts, summed per side
    parent = {"context": {"src_lines": {"cli.py": 500, "modem.py": 548}}}
    change = {"context": {"src_lines": {"cli.py": 510, "modem.py": 530}}}
    assert ab_pairs.src_lines_line(parent, change) == "src lines: parent 1048  change 1040  (-8)"
    assert ab_pairs.src_lines_line(change, parent).endswith("(+8)")


@pytest.mark.parametrize(
    "bad_run, code",
    [(None, 0), ({"correct": False, "failed": 0}, 1), ({"correct": True, "failed": 2}, 1)],
    ids=["all-correct", "not-correct", "failed"],
)
def test_main_exits_1_when_a_run_was_not_correct(ab_pairs, monkeypatch, tmp_path, capsys,
                                                   bad_run, code):
    # one bad run on the change side, in the last pair, after every line
    metric = {"name": "wall_s", "unit": "s", "better": "lower"}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [metric]}))
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append(root)
        result = {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.0 + seed}}}
        if bad_run is not None and len(calls) == 6:
            result.update(bad_run)
        return {"context": {"src_lines": {"a.py": 10}}}, result

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    # the real timing takes seconds; this one reads the runs made so far
    monkeypatch.setattr(ab_pairs, "parallel_speedup", lambda: float(len(calls)))
    argv = ["ab_pairs.py", str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "3"]
    monkeypatch.setattr("sys.argv", argv)
    assert ab_pairs.main() == code
    out = capsys.readouterr().out.splitlines()
    assert len(calls) == 6
    # the host's speedup is read before the first run and after the last
    assert out[:2] == [
        "parallel_speedup before the pairs: 0.0",
        "parallel_speedup after the pairs: 6.0",
    ]
    assert out[-3:] == [
        "parent: 0 of 3 runs not correct",
        f"change: {code} of 3 runs not correct",
        "src lines: parent 10  change 10  (+0)",
    ]


def test_run_once_is_bench_files(ab_pairs):
    # one benchmark runner serves both tools
    bench_file = importlib.import_module("bench_file")
    assert ab_pairs.run_once is bench_file.run_once


def test_bench_file_layers_are_benchmark_layers(ab_pairs):
    # the traced layers a BENCH file keeps are per-layer metrics of the benchmark
    bench_file = importlib.import_module("bench_file")
    benchmark = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    assert set(bench_file.LAYERS) <= {m["name"] for m in benchmark["per_layer"]}


def test_bench_context_records_parallel_speedup(ab_pairs, monkeypatch, tmp_path):
    # a BENCH file states how much two processes at once get from the host
    bench_file = importlib.import_module("bench_file")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "w"}]}))
    context = {k: {"core.py": 1} if k == "src_lines" else "x" for k in bench_file.CONTEXT_KEYS}
    report = {"context": context}
    metrics = {m: {"value": 1.0, "unit": "s"} for m in bench_file.METRICS + bench_file.LAYERS}
    result = {"correct": True, "failed": 0, "attempted": 1, "metrics": metrics}
    monkeypatch.setattr(bench_file, "run_once", lambda *args, **kwargs: (report, result))
    speedup = bench_file.parallel_speedup
    monkeypatch.setattr(bench_file, "parallel_speedup", lambda cpus=None: speedup(20_000, cpus))
    context = bench_file.bench(tmp_path)["context"]
    assert isinstance(context["parallel_speedup"], float)
    assert context["parallel_speedup"] > 0
    if len(os.sched_getaffinity(0)) >= 2:
        assert isinstance(context["parallel_speedup_pinned"], float)
        assert context["parallel_speedup_pinned"] > 0
    else:
        assert context["parallel_speedup_pinned"] is None
    assert context["dirty"] is None  # tmp_path is no git checkout
    assert set(bench_file.LAYERS) >= {"core.trace_write_s", "core.rows_written"}


@pytest.mark.parametrize("allowed, pair", [({0, 1}, (0, 1)), ({3}, None), ({1, 5, 7}, (1, 5))])
def test_cpu_pair_is_the_lowest_two(ab_pairs, allowed, pair):
    # the two CPUs the pinned parallel_speedup gives its workers, one each
    bench_file = importlib.import_module("bench_file")
    assert bench_file.cpu_pair(allowed) == pair


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_context_marks_a_dirty_tree(ab_pairs, tmp_path):
    # a BENCH file made from an uncommitted tree says so
    bench_file = importlib.import_module("bench_file")
    assert bench_file.dirty(tmp_path) is None  # not a git checkout

    def git(*args):
        config = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        subprocess.run(["git", *config, *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "a.txt").write_text("1\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    assert bench_file.dirty(tmp_path) is False
    (tmp_path / "new.txt").write_text("untracked\n")
    assert bench_file.dirty(tmp_path) is False  # untracked files do not count
    (tmp_path / "a.txt").write_text("2\n")
    assert bench_file.dirty(tmp_path) is True


def test_parse_bench_csv_rows(ab_pairs):
    # the rows of a bench CSV, numbers as numbers and the noise degree as text
    bench_file = importlib.import_module("bench_file")
    text = (
        "t_s_us,noise,n_bits,err_1to0,err_0to1,rate_1to0,rate_0to1,p_err,B_bps,C_bps\n"
        "50,none,80000,0,11,0.000000,0.000274,0.000138,20000.000,19960.755\n"
        "400,high,80000,0,0,0.000000,0.000000,0.000000,2500.000,2500.000\n"
    )
    rows = bench_file.parse_bench_csv(text)
    assert rows == [
        {"t_s_us": 50, "noise": "none", "n_bits": 80000, "err_1to0": 0, "err_0to1": 11,
         "rate_1to0": 0.0, "rate_0to1": 0.000274, "p_err": 0.000138, "B_bps": 20000.0,
         "C_bps": 19960.755},
        {"t_s_us": 400, "noise": "high", "n_bits": 80000, "err_1to0": 0, "err_0to1": 0,
         "rate_1to0": 0.0, "rate_0to1": 0.0, "p_err": 0.0, "B_bps": 2500.0, "C_bps": 2500.0},
    ]
    assert [type(v) for v in rows[0].values()] == [int, str, int, int, int] + [float] * 5
    assert bench_file.parse_bench_csv(text.splitlines(keepends=True)[0]) == []


def test_header_sync_searches_quiet_traffic(ab_pairs):
    # one timed search per repeat, each over quiet traffic with no header
    bench_file = importlib.import_module("bench_file")
    times = bench_file.header_sync_times(2_000, 2)
    assert len(times) == 2 and all(t > 0 for t in times)
