"""Incremental-solving bench: legacy cold pipeline vs incremental + COI.

Runs the full synthesis pipeline (DUV PL reachability pruning followed by
``synthesize_all``) on the 4-bit core twice from cold: once with the
legacy per-property solver instances (``incremental=False``) and once
with the default assumption-based incremental contexts plus
cone-of-influence slicing.  Asserts the two arms produce byte-identical
canonical uPATH sets, identical per-property induction verdicts, and
byte-identical SynthLC labels (classified outside the timed region --
SynthLC runs no SAT, so its labels depend only on the uPATH inputs),
then records the measured wall clocks, per-check solver times, and the
COI cell-reduction ratio to ``INCR_BENCH.json`` in the repo root.

``induction_k`` is raised to 8 (a paper knob; every candidate PL still
closes at the same verdict) so the k-induction phase dominates trace
simulation and the bench exercises the unrolling-reuse hot path the
incremental contexts exist for.
"""

import statistics
import time

from repro.core import Rtl2MuPath, SynthLC
from repro.core.rtl2mupath import Rtl2MuPathConfig
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
from repro.designs.core import CoreConfig
from repro.fuzz.metamorphic import canonical_contracts, canonical_mupaths
from repro.mc import PropertyStats

from conftest import print_banner, record_bench_json

IUVS = ("ADD", "MUL", "DIV")
INDUCTION_K = 8

BENCH_FAMILY = ContextFamilyConfig(
    horizon=30, neighbors=("DIV",), iuv_values=(0, 1), neighbor_values=(0, 1)
)
TAINT_FAMILY = ContextFamilyConfig(
    horizon=30,
    neighbors=("DIV",),
    iuv_values=(0, 1),
    neighbor_values=(0, 1),
    instrumented=True,
)


def _run_pipeline(design, incremental):
    provider = CoreContextProvider(xlen=design.config.xlen, config=BENCH_FAMILY)
    stats = PropertyStats(label="incr-bench")
    tool = Rtl2MuPath(
        design,
        provider,
        stats=stats,
        config=Rtl2MuPathConfig(incremental=incremental, induction_k=INDUCTION_K),
    )
    started = time.perf_counter()
    reachable = tool.duv_pl_reachability(IUVS)
    results = tool.synthesize_all(IUVS)
    elapsed = time.perf_counter() - started
    checks = [r for r in stats.results if r.engine == "k-induction"]
    return {
        "tool": tool,
        "elapsed": elapsed,
        "reachable": reachable,
        "results": results,
        "checks": checks,
        "verdicts": sorted(
            (r.query_name, r.outcome, r.detail) for r in checks
        ),
    }


def _synthlc_labels(design, results):
    tool = SynthLC(
        design,
        CoreContextProvider(xlen=design.config.xlen, config=TAINT_FAMILY),
        stats=PropertyStats(label="incr-bench-lc"),
    )
    return canonical_contracts(tool.classify(results, transmitters=list(IUVS)))


def test_incremental_cold_pipeline_vs_legacy():
    design = build_core(CoreConfig(xlen=4))

    legacy = _run_pipeline(design, incremental=False)
    incr = _run_pipeline(design, incremental=True)

    # the incremental machinery must never change the answer
    assert legacy["reachable"] == incr["reachable"]
    assert canonical_mupaths(legacy["results"]) == canonical_mupaths(
        incr["results"]
    )
    assert legacy["verdicts"] == incr["verdicts"]
    assert _synthlc_labels(design, legacy["results"]) == _synthlc_labels(
        design, incr["results"]
    )

    # COI accounting: every induction context in the pool solved a slice
    pool = incr["tool"]._induction_pool
    assert pool is not None and pool._contexts
    full_cells = design.netlist.num_cells
    sliced_cells = max(ctx.netlist.num_cells for ctx in pool._contexts.values())
    assert sliced_cells < full_cells

    speedup = legacy["elapsed"] / incr["elapsed"]
    assert speedup >= 2.0, (
        "cold incremental pipeline only %.2fx faster than legacy" % speedup
    )

    payload = {
        "workload": "duv-prune + synth-all %s" % " ".join(IUVS),
        "design": "cva6ish_core xlen=4",
        "induction_k": INDUCTION_K,
        "induction_checks": len(legacy["checks"]),
        "legacy_cold_seconds": round(legacy["elapsed"], 3),
        "incremental_cold_seconds": round(incr["elapsed"], 3),
        "speedup": round(speedup, 2),
        "legacy_mean_check_seconds": round(
            statistics.mean(r.time_seconds for r in legacy["checks"]), 4
        ),
        "incremental_mean_check_seconds": round(
            statistics.mean(r.time_seconds for r in incr["checks"]), 4
        ),
        "coi_full_cells": full_cells,
        "coi_sliced_cells": sliced_cells,
        "coi_cell_reduction": round(1.0 - sliced_cells / full_cells, 3),
        "mupaths_identical": True,
        "synthlc_labels_identical": True,
    }
    path = record_bench_json("INCR_BENCH.json", payload)

    print_banner("Incremental + COI -- cold pipeline vs legacy")
    print("%d k-induction checks at k=%d on the xlen=4 core"
          % (payload["induction_checks"], INDUCTION_K))
    print("legacy (cold):      %7.2fs" % legacy["elapsed"])
    print("incremental (cold): %7.2fs  (%.2fx)" % (incr["elapsed"], speedup))
    print("per-check solver:   %0.4fs -> %0.4fs"
          % (payload["legacy_mean_check_seconds"],
             payload["incremental_mean_check_seconds"]))
    print("COI slice:          %d -> %d cells (%.1f%% dropped)"
          % (full_cells, sliced_cells,
             100.0 * payload["coi_cell_reduction"]))
    print("recorded -> %s" % path)
