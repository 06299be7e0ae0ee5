"""End-to-end benchmark of the reproduction: four workloads, measured round by round.

    python3 benchmarks/e2e/run.py --workload upath --seed 0 --seconds 25 --trace 0

Each round runs in a fresh ``worker.py`` process (cold imports, fresh
designs, a fresh empty proof cache, ``jobs=1``).  Rounds repeat while
the next one is expected to end within ``--seconds``.  Every reported
time is put on a reference machine speed (``speed.py``), so a shared
host's slow spells do not show as regressions.  The command checks every round against the
golden digests in ``golden.json``, prints each metric by name with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics instead; ``--runs N`` repeats the whole measurement
with seeds S..S+N-1 and reports each metric's median, quartiles and
spread.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"
TRACE_DIR = ROOT / "bench-trace"
TMP_DIR = ROOT / ".bench_tmp"
# a round takes ~4 s; with this cap a hung round still ends the run in <180 s
ROUND_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
from tracing import COUNT_METRICS, TIME_METRICS  # noqa: E402
from worker import SCALES  # noqa: E402

WORKLOADS = ("upath", "leakage", "fuzz-oracle", "perf-oracle")

END_TO_END = {
    "op_ms": "ms",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{name: "count" for name in COUNT_METRICS},
    **{name: "s" for name in TIME_METRICS},
    "sim.cycles_per_s": "1/s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead": "ratio",
}


class RoundFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def run_round(workload, scale, seed, round_index, trace=False, chrome=None) -> dict:
    """One round in a fresh worker process; returns its JSON result."""
    tmp = TMP_DIR / ("%s-%d-%d" % (workload, seed, round_index))
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--scale", scale,
        "--seed", str(seed), "--round", str(round_index), "--tmp", str(tmp),
        "--trace", "1" if trace else "0",
    ]
    if chrome is not None:
        cmd += ["--chrome", str(chrome)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, TMPDIR=str(tmp)), timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed("%s round timed out after %ds" % (workload, exc.timeout))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(
            "%s round %d (seed %d) exited with code %d"
            % (workload, round_index, seed, proc.returncode)
        )
    return json.loads(lines[-1])


def load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def matches_golden(workload, golden, result) -> bool:
    """Every round of a fixed-input workload must match its stored digest.
    perf-oracle draws new sequences from each seed, so only the recorded
    round is compared; the oracle checks every other one itself."""
    entry = golden.get(result["variant"])
    if entry is None:
        return workload == "perf-oracle"
    return entry == {"digest": result["digest"], "checks": result["checks"]}


def _quartiles(values):
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _op_ms(result) -> float:
    """Mean time of one op in a round: every round does the same work."""
    return 1000.0 * sum(result["op_s"]) / len(result["op_s"])


def measure(workload, seed, seconds, trace, scale) -> dict:
    """Run rounds for about ``seconds`` and aggregate them into metrics.

    A round starts only if it is expected to end in time, so a run takes
    ``seconds`` plus at most one round's misestimate; it always runs one
    round (two with ``trace``).
    """
    golden = load_golden().get(scale, {}).get(workload, {})
    plain, traced, durations = [], [], []
    started = time.perf_counter()
    index = 0
    while True:
        is_traced = bool(trace) and index % 2 == 1
        chrome = None
        if is_traced and not traced:
            TRACE_DIR.mkdir(exist_ok=True)
            chrome = TRACE_DIR / ("%s.json" % workload)
        round_started = time.perf_counter()
        result = run_round(workload, scale, seed, index, is_traced, chrome)
        durations.append(time.perf_counter() - round_started)
        (traced if is_traced else plain).append(result)
        index += 1
        elapsed = time.perf_counter() - started
        if (elapsed + statistics.median(durations) > seconds
                and (traced or not trace)):
            break

    rounds = plain + traced
    op_ms = [_op_ms(r) for r in plain]
    metrics = {
        "op_ms": statistics.median(op_ms),
        "checks_per_s": statistics.median(
            r["checks"] / sum(r["op_s"]) for r in plain
        ),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    spreads = {
        "op_ms": _quartiles(op_ms),
        "setup_s": _quartiles(r["setup_s"] for r in plain),
        "peak_rss_mb": _quartiles(r["peak_rss_mb"] for r in plain),
    }
    if trace:
        layers = {
            key: sum(r["layers"][key] for r in traced) / len(traced)
            for key in COUNT_METRICS + TIME_METRICS
        }
        layers["sim.cycles_per_s"] = (
            layers["sim.cycles"] / layers["sim.s"] if layers["sim.s"] else 0.0
        )
        layers["bench.unattributed_s"] = (
            sum(r["unattributed_s"] for r in traced) / len(traced)
        )
        layers["bench.trace_overhead"] = (
            statistics.median(_op_ms(r) for r in traced) / metrics["op_ms"] - 1.0
        )
        metrics = layers
    return {
        "workload": workload,
        "seed": seed,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "ops": sum(len(r["op_s"]) for r in plain),
        "speed": statistics.median(r["speed"] for r in rounds),
        "correct": all(matches_golden(workload, golden, r) for r in rounds),
        "attempted": sum(r["checks"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "quartiles": spreads,
        "trace_checks": [(r["self_sum_s"], r["round_s"]) for r in traced],
    }


def _result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def report(m, trace) -> str:
    """Print one measurement; returns its JSON result line."""
    units = PER_LAYER if trace else END_TO_END
    print(
        "%s: seed %d, %d round(s) + %d traced, %d op(s), %d checks, %d failed, "
        "golden %s, machine speed %.2f of the reference"
        % (m["workload"], m["seed"], m["rounds"], m["traced_rounds"], m["ops"],
           m["attempted"], m["failed"], "ok" if m["correct"] else "MISMATCH",
           m["speed"])
    )
    for name in units:
        quart = m["quartiles"].get(name)
        extra = "  (q1 %.6g, q3 %.6g)" % quart if quart and not trace else ""
        print("  %-24s %14.6g %-6s%s" % (name, m["metrics"][name], units[name], extra))
    line = _result_line(
        m["correct"], m["attempted"], m["failed"],
        {name: m["metrics"][name] for name in units}, units,
    )
    print(line)
    return line


def summarize(runs, trace) -> dict:
    """Median, quartiles and spread (IQR / median) of each metric."""
    units = PER_LAYER if trace else END_TO_END
    out = {}
    for name, unit in units.items():
        values = [m["metrics"][name] for m in runs]
        median = statistics.median(values)
        q1, q3 = _quartiles(values)
        out[name] = {
            "median": median, "q1": q1, "q3": q3, "unit": unit,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(values),
        }
    return out


def update_golden(workloads, scale) -> None:
    """Record the digest of round 0 at seed 0 of each workload."""
    golden = load_golden() if GOLDEN.exists() else {}
    for workload in workloads:
        result = run_round(workload, scale, 0, 0)
        entries = {
            result["variant"]: {"digest": result["digest"], "checks": result["checks"]}
        }
        golden.setdefault(scale, {})[workload] = entries
        print("%s/%s: %s" % (scale, workload, entries))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure for this long (at least one round)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from traced rounds")
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat with seeds S..S+N-1 and summarize")
    parser.add_argument("--update-golden", action="store_true",
                        help="record the seed-0 digests of each workload")
    args = parser.parse_args(argv)

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.update_golden:
            update_golden(workloads, args.scale)
            return 0
        measured = []
        summaries = {}
        for workload in workloads:
            runs = []
            for k in range(args.runs):
                m = measure(workload, args.seed + k, args.seconds, args.trace,
                            args.scale)
                report(m, args.trace)
                runs.append(m)
            measured.extend(runs)
            if args.runs > 1:
                summaries[workload] = summarize(runs, args.trace)
    except RoundFailed as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2

    correct = all(m["correct"] for m in measured)
    for workload, summary in summaries.items():
        print("%s over %d runs:" % (workload, args.runs))
        for name, s in summary.items():
            print("  %-24s median %12.6g %-6s q1 %12.6g  q3 %12.6g  spread %6.2f%%"
                  % (name, s["median"], s["unit"], s["q1"], s["q3"], 100 * s["spread"]))
    if summaries:
        print(json.dumps({"correct": correct, "summary": summaries}))
    elif len(measured) > 1:
        units = PER_LAYER if args.trace else END_TO_END
        print(_result_line(
            correct,
            sum(m["attempted"] for m in measured),
            sum(m["failed"] for m in measured),
            {"%s.%s" % (m["workload"], name): m["metrics"][name]
             for m in measured for name in units},
            {"%s.%s" % (m["workload"], name): unit
             for m in measured for name, unit in units.items()},
        ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
