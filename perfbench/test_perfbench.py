"""The benchmark's own test, at a tiny input size.

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload must emit every metric BENCHMARK.json lists, pass its output
checks, and repeat its simulated statistics exactly for one seed.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# statistics that come from the seeded simulator alone
REPEATED_QUALITY = ("ber", "fail_share", "classify_accuracy", "split_f1", "keystroke_recall")
REPEATED_LAYER = ("simchan.probes", "modem.symbols", "modem.sync_symbols")

sys.path.insert(0, str(HERE))


def _run(workload, trace, cwd=ROOT, seed=7):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_repeats(workload):
    report, result = _parse(_run(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert all(check["ok"] for check in report["checks"]) and report["checks"]

    traced = [_parse(_run(workload, 1)) for _ in range(2)]
    for rep, res in traced:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for m in SPEC["per_layer"]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    (rep_a, res_a), (rep_b, res_b) = traced
    for key in REPEATED_QUALITY:
        assert report["quality"].get(key) == rep_a["quality"].get(key) == rep_b["quality"].get(key)
    for key in REPEATED_LAYER:
        assert res_a["metrics"][key]["value"] == res_b["metrics"][key]["value"]


def test_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    from spans import SpanRecorder

    rec = SpanRecorder()
    rec.run_id = 3
    outer = rec.begin("modem.receive_frame")
    inner = rec.begin("simchan.SimSource.probe_for")
    time.sleep(0.02)
    rec.end(inner)
    time.sleep(0.01)
    rec.end(outer)
    times = rec.layer_times()
    assert set(times) == {3}
    self_s, total_s = times[3]
    assert total_s["modem.receive_frame"] >= 0.03
    assert self_s["simchan.SimSource.probe_for"] == total_s["simchan.SimSource.probe_for"]
    assert self_s["modem.receive_frame"] == pytest.approx(
        total_s["modem.receive_frame"] - total_s["simchan.SimSource.probe_for"]
    )
