"""Smoke test of the end-to-end benchmark at ``--scale smoke`` (~20 s).

    python3 -m pytest benchmarks/e2e/test_e2e.py -q

Tier-1 does not collect this file (``testpaths = ["tests"]``).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def _printed_units(lines):
    """metric name -> unit, from the human-readable metric lines."""
    printed = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 3 and line.startswith("  "):
            printed[fields[0]] = fields[2]
    return printed


def test_benchmark_json_matches_the_command():
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_end_to_end_metrics_and_golden_digest(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--scale", "smoke", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # correct == every round matched the stored smoke digest
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert _printed_units(lines[:-1]) == declared


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_self_times_add_up(workload, capsys):
    m = run.measure(workload, 0, 0, 1, "smoke")
    assert m["correct"] is True and m["traced_rounds"] >= 1
    for self_sum, root in m["trace_checks"]:
        assert abs(self_sum - root) <= 0.01 * root
    line = run.report(m, 1)
    lines = capsys.readouterr().out.strip().splitlines()
    assert _printed_units(lines[:-1]) == _declared("per_layer")
    assert set(json.loads(line)["metrics"]) == set(run.PER_LAYER)
    trace = json.loads((run.TRACE_DIR / ("%s.json" % workload)).read_text())
    assert trace["traceEvents"]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        ["python3", "benchmarks/e2e/run.py", "--workload", "upath",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
