"""Certification overhead bench: ``--certify off`` vs ``spot`` vs ``full``.

Same workload as ``test_bench_incremental.py`` (DUV PL reachability
pruning followed by ``synthesize_all`` on the xlen=4 core at
``induction_k=8``), run once per certify mode.  ``off`` and ``spot`` run ``TRIALS`` times and
the bench scores the *minimum* of the per-trial wall times (noise on a
shared core is strictly additive, so the minimum is the closest
observable to the true cost); ``full`` runs once, its overhead is
recorded but unconstrained.

The targets:

* ``spot`` overhead < 10% vs ``off`` -- spot mode logs every proof but
  only materializes/checks a deterministic sample, so the steady-state
  cost is the solver-side logging, which must stay in the noise.
* Certification must never change the answer: byte-identical canonical
  uPATH sets and per-property verdicts between ``off`` and ``full``.
* Every ``full``-mode k-induction certificate verifies, and covers both
  proof legs (``base`` + ``step``).
"""

import time

from repro.core import Rtl2MuPath
from repro.core.rtl2mupath import Rtl2MuPathConfig
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
from repro.designs.core import CoreConfig
from repro.fuzz.metamorphic import canonical_mupaths
from repro.mc import PropertyStats

from conftest import print_banner, record_bench_json

IUVS = ("ADD", "MUL", "DIV")
INDUCTION_K = 8
TRIALS = 3
SPOT_OVERHEAD_LIMIT = 0.10

BENCH_FAMILY = ContextFamilyConfig(
    horizon=30, neighbors=("DIV",), iuv_values=(0, 1), neighbor_values=(0, 1)
)


def _run_pipeline(design, certify):
    provider = CoreContextProvider(xlen=design.config.xlen, config=BENCH_FAMILY)
    stats = PropertyStats(label="cert-bench")
    tool = Rtl2MuPath(
        design,
        provider,
        stats=stats,
        config=Rtl2MuPathConfig(induction_k=INDUCTION_K, certify=certify),
    )
    started = time.perf_counter()
    reachable = tool.duv_pl_reachability(IUVS)
    results = tool.synthesize_all(IUVS)
    elapsed = time.perf_counter() - started
    checks = [r for r in stats.results if r.engine == "k-induction"]
    return {
        "elapsed": elapsed,
        "reachable": reachable,
        "results": results,
        "verdicts": sorted((r.query_name, r.outcome, r.detail) for r in checks),
        "certs": [
            r.certificate
            for r in stats.results
            if getattr(r, "certificate", None) is not None
        ],
    }


def test_certify_overhead_and_parity():
    design = build_core(CoreConfig(xlen=4))

    off_trials = [_run_pipeline(design, "off") for _ in range(TRIALS)]
    spot_trials = [_run_pipeline(design, "spot") for _ in range(TRIALS)]
    full = _run_pipeline(design, "full")

    off = min(off_trials, key=lambda t: t["elapsed"])
    spot = min(spot_trials, key=lambda t: t["elapsed"])

    # certification must never change the answer
    assert off["reachable"] == full["reachable"] == spot["reachable"]
    assert canonical_mupaths(off["results"]) == canonical_mupaths(
        full["results"]
    )
    assert off["verdicts"] == full["verdicts"] == spot["verdicts"]

    # off carries no certificates; full certifies and verifies everything
    assert off["certs"] == []
    assert full["certs"], "full mode produced no certificates"
    assert all(c["verified"] is True for c in full["certs"])
    drat_full = [c for c in full["certs"] if c["kind"] == "drat"]
    assert drat_full, "full mode produced no DRAT certificates"
    # payloads over the retention limit degrade to digest-only *after*
    # checking -- those are still verified (asserted above); any retained
    # payload must cover both k-induction legs
    for cert in drat_full:
        if cert.get("payload") is not None:
            assert set(cert["payload"]["legs"]) == {"base", "step"}
        else:
            assert cert.get("payload_dropped") is True

    spot_overhead = spot["elapsed"] / off["elapsed"] - 1.0
    full_overhead = full["elapsed"] / off["elapsed"] - 1.0
    assert spot_overhead < SPOT_OVERHEAD_LIMIT, (
        "--certify spot costs %.1f%% over off (limit %.0f%%): %.3fs vs %.3fs"
        % (
            spot_overhead * 100.0,
            SPOT_OVERHEAD_LIMIT * 100.0,
            spot["elapsed"],
            off["elapsed"],
        )
    )

    payload = {
        "workload": "duv-prune + synth-all %s" % " ".join(IUVS),
        "design": "cva6ish_core xlen=4",
        "induction_k": INDUCTION_K,
        "trials": TRIALS,
        "off_seconds": round(off["elapsed"], 3),
        "spot_seconds": round(spot["elapsed"], 3),
        "full_seconds": round(full["elapsed"], 3),
        "off_trial_seconds": [round(t["elapsed"], 3) for t in off_trials],
        "spot_trial_seconds": [round(t["elapsed"], 3) for t in spot_trials],
        "spot_overhead_pct": round(spot_overhead * 100.0, 2),
        "full_overhead_pct": round(full_overhead * 100.0, 2),
        "spot_overhead_limit_pct": SPOT_OVERHEAD_LIMIT * 100.0,
        "full_certificates": len(full["certs"]),
        "full_certificates_verified": sum(
            1 for c in full["certs"] if c["verified"] is True
        ),
        "spot_certificates": len(spot["certs"]),
        "spot_certificates_checked": sum(
            1 for c in spot["certs"] if c["verified"] is not None
        ),
        "mupaths_identical": True,
        "verdicts_identical": True,
    }
    path = record_bench_json("CERT_BENCH.json", payload)

    print_banner("Certified verdicts -- --certify overhead")
    print("workload: duv-prune + synth-all on the xlen=4 core, k=%d, "
          "min of %d trials" % (INDUCTION_K, TRIALS))
    print("off:   %.3fs" % off["elapsed"])
    print("spot:  %.3fs  (%+.1f%%)" % (spot["elapsed"], spot_overhead * 100.0))
    print("full:  %.3fs  (%+.1f%%), %d/%d certificates verified"
          % (full["elapsed"], full_overhead * 100.0,
             payload["full_certificates_verified"], len(full["certs"])))
    print("recorded -> %s" % path)
