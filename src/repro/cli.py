"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``upath INSTR``  -- synthesize and render INSTR's uPATH set on the core
* ``decisions INSTR`` -- print INSTR's decision set
* ``uspec INSTR [INSTR...]`` -- emit a uSPEC-style model
* ``table2``       -- print the metadata (Table II) report
* ``sc-safe INSTR REG`` -- Definition V.1 check: run INSTR with REG secret
* ``synth-all [INSTR...]`` -- batch uPATH synthesis through the parallel
  verification job engine (default: one representative per functional
  class).  Flags:

  * ``--jobs N`` -- worker processes (default: all cores; ``1`` = the
    serial in-process reference path);
  * ``--cache-dir DIR`` -- persistent proof cache: re-runs replay prior
    REACHABLE/UNREACHABLE verdicts instead of re-checking them, and any
    change to the netlist, context family, or tool config invalidates
    entries automatically (UNDETERMINED is never cached as final);
  * ``--trace FILE`` -- append structured JSONL run telemetry (job
    start/finish, cache hit/miss, verdicts, retries, timings) plus a
    run-manifest summary that reconciles with the SS VII-B3 property
    accounting;
  * ``--timeout SECONDS`` / ``--max-attempts N`` -- per-job wall-clock
    deadline and the attempts per job: an attempt that times out or
    raises is retried; results, UNDETERMINED ones included, are final;
  * ``--keep-going`` -- report failed jobs (every attempt failed, or
    the worker died running the job alone) instead of aborting the
    whole batch;
  * ``--metrics FILE`` -- dump the process metrics registry (Prometheus
    text exposition) at run end;
  * ``--duv-prune`` -- run the paper's step 1 (DUV-level PL
    reachability: cover scans plus unbounded k-induction proofs for
    candidate PLs) before synthesis, accounted in its own stats block;
  * ``--no-incremental`` -- rebuild fresh solvers per induction proof
    instead of reusing one growing proof context per design (the legacy
    reference path; verdicts are identical, only slower);
  * ``--certify off|full`` -- verdict certification
    (:mod:`repro.cert`): ``full`` checks every certificate; a failed
    one is reported (``cert_failures`` / ``cert_uncaught`` in the
    manifest), its result is never cached, and the run exits 1.

  A clean Ctrl-C drains finished workers into the proof cache and exits
  130.  Rerunning the same command with the same ``--cache-dir``
  replays every job that finished and executes only the rest; the cache
  never holds UNDETERMINED or a failed certificate, so those jobs
  re-execute and re-report.

* ``cache-info DIR`` -- summarize a proof-cache directory (entry and
  quarantine counts, sizes, age range); ``--json`` for machine output,
  ``--verify`` to re-check every entry's checksum and certificate digest
  (exit 1 when any entry is quarantined).

* ``fuzz`` -- run a differential fuzz campaign: generate seeded random
  sequential designs, cross-check every engine (simulator vs reference
  model, bit-blaster, BMC, k-induction, enumerative, portfolio) on the
  REACHABLE/UNREACHABLE/UNDETERMINED lattice, shrink any disagreement
  to a minimal reproducer, and write it to ``--out``.  Flags:

  * ``--seed N`` -- campaign seed (design seeds stream from it);
  * ``--budget SECS`` -- wall-clock budget (default 30);
  * ``--out DIR`` -- reproducer directory (default ``fuzz-out``);
  * ``--max-designs N`` -- stop after N designs even under budget;
  * ``--horizon N`` -- oracle unrolling depth (default 4);
  * ``--no-shrink`` -- write unshrunk reproducers;
  * ``--trace FILE`` -- JSONL span telemetry, analyzable by ``profile``;
  * ``--metrics FILE`` -- dump the metrics registry at campaign end.

  Exit status 1 when any oracle disagreement was found.

* ``perf`` -- compile the μPATH-derived performance model for a case-
  study core and fuzz it differentially against :mod:`repro.sim`:
  seeded straight-line sequences run through both the cycle predictor
  and the RTL simulator, every cycle-count divergence classified as a
  perf-model bug or a missed μPATH (a completeness check on the
  synthesis), shrunk, and written to ``--out``.  Prints the per-
  instruction timing-variability table (the SynthLC cross-check) and
  the predicted stall-cycle breakdown per hazard class.  Flags:

  * ``--design NAME`` -- ``core`` (baseline), ``cva6-mul`` (zero-skip
    multiplier), or ``fixed`` (default ``core``);
  * ``--xlen N`` -- datapath width (default 4);
  * ``--seed N`` / ``--budget SECS`` / ``--max-sequences N`` -- campaign
    size controls;
  * ``--out DIR`` -- reproducer directory (default ``perf-out``);
  * ``--no-shrink`` -- write unshrunk reproducers;
  * ``--trace FILE`` / ``--metrics FILE`` -- telemetry, as for ``fuzz``.

  Exit status 1 when any mismatch was found (unclassified mismatches
  are always fatal; CI gates on them).

* ``profile TRACE`` -- analyze a ``--trace`` JSONL file: per-phase and
  per-instruction time breakdowns, hotspot ranking, and the checker-time
  reconciliation against the run's property statistics.  Flags:

  * ``--top N`` -- hotspot count (default 10);
  * ``--export-chrome-trace FILE`` -- write a Chrome-tracing / Perfetto
    JSON rendering of the span tree (opens in ``ui.perfetto.dev``);
  * ``--check`` -- exit non-zero if the trace is malformed (unbalanced
    or mis-nested spans, events without timestamps) or the checker-time
    reconciliation fails.  Used by CI.

The CLI is a thin veneer over the library; see ``examples/`` for richer
workflows.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .cert import MODES
from .core import Rtl2MuPath, Rtl2MuPathConfig, UhbGraph, check_sc_safe
from .designs import ContextFamilyConfig, CoreContextProvider, build_core, isa
from .report import CLASS_REPRESENTATIVES, render_uspec_model, table2_report


def _default_provider(xlen: int) -> CoreContextProvider:
    return CoreContextProvider(
        xlen=xlen,
        config=ContextFamilyConfig(
            horizon=44,
            neighbors=("DIV", "SW", "BEQ"),
            iuv_values=(0, 1, 2, 8, 128, 255),
            neighbor_values=(0, 1, 2, 255),
        ),
    )


@contextlib.contextmanager
def _telemetry(trace_path, metrics_path):
    """Trace the block to ``trace_path`` (JSONL), and after it, however
    it ends, dump the metrics registry to ``metrics_path``; either may
    be None."""
    from . import obs
    from .engine.telemetry import TelemetryLog
    from .obs.tracer import Tracer

    log = tracer = None
    if trace_path:
        log = TelemetryLog(trace_path)
        tracer = Tracer(sink=log.event)
        obs.activate(tracer)
    try:
        yield
    finally:
        if tracer is not None:
            obs.deactivate(tracer)
            log.close()
        if metrics_path:
            with open(metrics_path, "w", encoding="utf-8") as handle:
                handle.write(obs.get_registry().to_prometheus())


def _synthesize(names):
    design = build_core()
    tool = Rtl2MuPath(design, _default_provider(design.config.xlen))
    return design, {name: tool.synthesize(name) for name in names}, tool


def cmd_upath(args):
    _design, results, tool = _synthesize([args.instr])
    result = results[args.instr]
    print(
        "%s: %d uPATH families, %d concrete cycle-accurate uPATHs"
        % (args.instr, result.num_upaths, len(result.concrete_paths))
    )
    for path in result.concrete_paths[: args.max_paths]:
        print()
        print(UhbGraph(path).render_ascii())
    print()
    print(tool.stats.summary())
    return 0


def cmd_decisions(args):
    _design, results, _tool = _synthesize([args.instr])
    decisions = results[args.instr].decisions
    print("decision sources:", ", ".join(decisions.sources) or "(none)")
    for decision in decisions.decisions():
        print(" ", decision)
    return 0


def cmd_uspec(args):
    _design, results, _tool = _synthesize(args.instrs)
    sys.stdout.write(render_uspec_model(results))
    return 0


def cmd_table2(args):
    from .designs.cache import build_cache

    core = build_core()
    cache = build_cache()
    print(table2_report({"core": core.metadata, "cache": cache.metadata}))
    return 0


def cmd_sc_safe(args):
    design = build_core()
    program = [isa.encode(args.instr, rd=3, rs1=1, rs2=2)]
    violation = check_sc_safe(design, program, [args.register])
    if violation is None:
        print("SC-Safe holds for %s with %s secret (sampled pairs)"
              % (args.instr, args.register))
        return 0
    print("SC-Safe VIOLATION:")
    print("  secret %s = %d vs %d diverges at cycle %d through PLs %s"
          % (
              violation.secret_register,
              violation.value_a,
              violation.value_b,
              violation.first_divergence_cycle,
              sorted(violation.diverging_pls()),
          ))
    return 1


def cmd_synth_all(args):
    from .engine import EngineConfig, EngineError, JobScheduler

    names = list(args.instrs) or sorted(set(CLASS_REPRESENTATIVES.values()))
    known = {s.name for s in isa.INSTRUCTIONS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print("unknown instruction(s): %s" % ", ".join(unknown))
        return 2
    design = build_core()
    tool = Rtl2MuPath(
        design,
        _default_provider(design.config.xlen),
        config=Rtl2MuPathConfig(
            incremental=not args.no_incremental,
            certify=args.certify,
        ),
    )
    engine_config = EngineConfig(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        trace_path=args.trace,
        timeout_seconds=args.timeout,
        max_attempts=args.max_attempts,
        keep_going=args.keep_going,
    )
    engine = JobScheduler(engine_config)
    # the engine traces to --trace itself
    with _telemetry(None, args.metrics):
        try:
            if args.duv_prune:
                # the paper's step 1 (DUV-level PL pruning, SS V-B1): cover
                # scans for named PLs plus k-induction proofs for candidate
                # (invalid-valuation) PLs.  Accounted in its own stats object
                # so the engine manifest still reconciles with the synthesis
                # phase's property totals alone.
                from .mc.stats import PropertyStats

                duv_stats = PropertyStats(label="duv-reach")
                synth_stats = tool.stats
                tool.stats = duv_stats
                try:
                    reachable = tool.duv_pl_reachability(names)
                finally:
                    tool.stats = synth_stats
                total = len(tool.metadata.pls) + len(tool.metadata.candidate_pls)
                print(
                    "DUV PL pruning: %d/%d PLs reachable (%s)"
                    % (
                        len(reachable),
                        total,
                        "incremental induction"
                        if not args.no_incremental
                        else "legacy per-property induction",
                    )
                )
                print(duv_stats.summary())
                print()
            results = tool.synthesize_all(names, engine=engine)
        except EngineError as exc:
            print("engine error: %s" % exc)
            manifest = engine.last_manifest
            if manifest is not None:
                print(manifest.summary())
            return 1
        except KeyboardInterrupt:
            # the scheduler already drained finished workers into the proof
            # cache; tell the user how to pick the run back up
            print()
            if args.cache_dir:
                print(
                    "interrupted; finished jobs are in the proof cache -- rerun "
                    "the same command with --cache-dir %s to execute only the "
                    "rest" % args.cache_dir
                )
            else:
                print(
                    "interrupted (no --cache-dir, so nothing was stored); rerun "
                    "with --cache-dir DIR to keep finished jobs across runs"
                )
            manifest = engine.last_manifest
            if manifest is not None:
                print(manifest.summary())
            return 130
        except OSError as exc:
            print("error: %s" % exc)
            return 1
    failed = []
    for name in names:
        result = results[name]
        if result is None:  # a --keep-going run degraded this job
            failed.append(name)
            print("%-6s FAILED (see telemetry; every attempt failed or the "
                  "worker died)" % name)
            continue
        print(
            "%-6s %d uPATH families, %d concrete paths, %d decision sources%s"
            % (
                name,
                result.num_upaths,
                len(result.concrete_paths),
                len(result.decisions.sources),
                " [multi-path]" if result.multi_path else "",
            )
        )
    print()
    print(tool.stats.summary())
    manifest = engine.last_manifest
    print(manifest.summary())
    if not manifest.reconciles(tool.stats):
        print("WARNING: telemetry manifest does not reconcile with stats")
        return 1
    if manifest.cert_uncaught:
        # the campaign completed, but some verdict's certificate failed:
        # that verdict is untrusted, so the run must not exit clean
        print(
            "WARNING: %d uncaught certification failure(s) -- the affected "
            "verdicts are untrusted" % manifest.cert_uncaught
        )
        return 1
    return 1 if failed else 0


def cmd_cache_info(args):
    import json
    import os

    from .engine.cache import ProofCache

    if not os.path.isdir(args.dir):
        print("error: %s is not a directory" % args.dir)
        return 2
    if args.verify:
        # deep walk: re-parse every entry, re-derive its byte checksum
        # and its certificate digest, and quarantine what fails --
        # checksums prove the bytes are intact, certificate digests prove
        # the payload is the one that was checked
        report = ProofCache(args.dir).verify_store()
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(
                "verified %d entr%s: %d ok, %d with certificates, "
                "%d quarantined"
                % (
                    report["checked"],
                    "y" if report["checked"] == 1 else "ies",
                    report["ok"],
                    report["with_certificates"],
                    report["quarantined"],
                )
            )
            if report["stale_format"]:
                print("  stale format:  %d" % report["stale_format"])
            for reason, count in sorted(
                report["quarantined_by_reason"].items()
            ):
                print("  %-14s %d" % (reason + ":", count))
        return 1 if report["quarantined"] else 0
    stats = ProofCache(args.dir).stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    import datetime

    def _when(ts):
        if ts is None:
            return "-"
        return datetime.datetime.fromtimestamp(ts).isoformat(
            sep=" ", timespec="seconds"
        )

    print("proof cache: %s (format v%d)" % (stats["cache_dir"], stats["format"]))
    print(
        "  entries:     %d (%.1f KiB)"
        % (stats["entries"], stats["entry_bytes"] / 1024.0)
    )
    print(
        "  quarantined: %d (%.1f KiB)"
        % (stats["quarantined"], stats["quarantined_bytes"] / 1024.0)
    )
    print("  oldest:      %s" % _when(stats["oldest_entry"]))
    print("  newest:      %s" % _when(stats["newest_entry"]))
    return 0


def cmd_fuzz(args):
    import json
    import os

    from .fuzz import CampaignConfig, OracleConfig, run_campaign

    config = CampaignConfig(
        seed=args.seed,
        budget_seconds=args.budget,
        out_dir=args.out,
        max_designs=args.max_designs,
        shrink=not args.no_shrink,
        oracle=OracleConfig(horizon=args.horizon),
    )
    with _telemetry(args.trace, args.metrics):
        result = run_campaign(config)
    os.makedirs(config.out_dir, exist_ok=True)
    summary_path = os.path.join(config.out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(result.summary())
    print("summary: %s" % summary_path)
    return 0 if result.ok else 1


def cmd_perf(args):
    import json
    import os

    from .designs import build_core, build_cva6_mul, build_fixed_core
    from .designs.core import CoreConfig
    from .designs.harness import STRAIGHT_LINE_POOL
    from .perf import (
        PerfCampaignConfig,
        collect_upath_summaries,
        compile_model,
        run_perf_campaign,
    )
    from .report import stall_breakdown_report, timing_variability_report

    builders = {
        "core": lambda: build_core(CoreConfig(xlen=args.xlen)),
        "cva6-mul": lambda: build_cva6_mul(xlen=args.xlen),
        "fixed": lambda: build_fixed_core(xlen=args.xlen),
    }
    config = PerfCampaignConfig(
        seed=args.seed,
        budget_seconds=args.budget,
        out_dir=args.out,
        max_sequences=args.max_sequences,
        shrink=not args.no_shrink,
    )
    with _telemetry(args.trace, args.metrics):
        design = builders[args.design]()
        summaries = collect_upath_summaries(
            design, ["ADD", "MUL", "DIV", "DIVU", "LW", "SW"]
        )
        model = compile_model(design, summaries, names=STRAIGHT_LINE_POOL)
        result = run_perf_campaign(design, model, config)
    os.makedirs(config.out_dir, exist_ok=True)
    summary_path = os.path.join(config.out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(timing_variability_report(model))
    print()
    print(stall_breakdown_report(result.predicted_stalls))
    print()
    print(result.summary())
    print("summary: %s" % summary_path)
    return 0 if result.ok else 1


def cmd_profile(args):
    import json

    from .obs import TraceProfile
    from .report import render_profile

    try:
        profile = TraceProfile.load(args.trace)
    except OSError as exc:
        print("error: %s" % exc)
        return 1
    sys.stdout.write(render_profile(profile, top=args.top))
    if args.export_chrome_trace:
        with open(args.export_chrome_trace, "w", encoding="utf-8") as handle:
            json.dump(profile.to_chrome_trace(), handle)
        print("chrome trace written to %s" % args.export_chrome_trace)
    if args.check:
        if not profile.ok:
            print("trace FAILED integrity checks (%d errors)"
                  % len(profile.errors))
            return 1
        stats = profile.stats
        if stats and isinstance(stats.get("total_time"), (int, float)):
            if not profile.reconciles_total_time(float(stats["total_time"])):
                print("trace FAILED checker-time reconciliation")
                return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RTL2MuPATH + SynthLC reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("upath", help="synthesize an instruction's uPATH set")
    p.add_argument("instr", choices=[s.name for s in isa.INSTRUCTIONS])
    p.add_argument("--max-paths", type=int, default=4)
    p.set_defaults(func=cmd_upath)

    p = sub.add_parser("decisions", help="print an instruction's decisions")
    p.add_argument("instr", choices=[s.name for s in isa.INSTRUCTIONS])
    p.set_defaults(func=cmd_decisions)

    p = sub.add_parser("uspec", help="emit a uSPEC-style model")
    p.add_argument("instrs", nargs="+")
    p.set_defaults(func=cmd_uspec)

    p = sub.add_parser("table2", help="metadata report (Table II)")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("sc-safe", help="Definition V.1 check")
    p.add_argument("instr", choices=[s.name for s in isa.INSTRUCTIONS])
    p.add_argument("register", help="architectural register, e.g. arf_w1")
    p.set_defaults(func=cmd_sc_safe)

    p = sub.add_parser(
        "synth-all",
        help="batch uPATH synthesis via the parallel job engine",
    )
    p.add_argument(
        "instrs",
        nargs="*",
        metavar="INSTR",
        help="instructions (default: one representative per class)",
    )
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: all cores)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent proof-cache directory")
    p.add_argument("--trace", default=None,
                   help="JSONL telemetry output path")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job wall-clock deadline in seconds")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="attempts per job: an attempt that times out or "
                        "raises is retried on the same recipe (default 3)")
    p.add_argument("--keep-going", action="store_true",
                   help="report failed jobs and continue instead of aborting")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="dump Prometheus text-format metrics at run end")
    p.add_argument("--duv-prune", action="store_true",
                   help="run the DUV-level PL reachability phase (cover "
                        "scans + k-induction proofs for candidate PLs) "
                        "before synthesis")
    p.add_argument("--no-incremental", action="store_true",
                   help="disable incremental solving: rebuild a fresh "
                        "solver per induction proof (legacy reference "
                        "path; the verdicts must not change)")
    p.add_argument("--certify", choices=MODES, default="off",
                   help="verdict certification (repro.cert): 'full' checks "
                        "every certificate; a failed one is reported, never "
                        "cached, and makes the run exit 1")
    p.set_defaults(func=cmd_synth_all)

    p = sub.add_parser(
        "cache-info",
        help="summarize a proof-cache directory",
    )
    p.add_argument("dir", metavar="DIR", help="proof-cache directory")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as JSON")
    p.add_argument("--verify", action="store_true",
                   help="deep-verify every entry (byte checksums and "
                        "certificate digests), quarantining failures; "
                        "exit 1 if anything was quarantined")
    p.set_defaults(func=cmd_cache_info)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzz campaign across all verification engines",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--budget", type=float, default=30.0,
                   help="wall-clock budget in seconds (default 30)")
    p.add_argument("--out", default="fuzz-out", metavar="DIR",
                   help="directory for shrunk reproducers (default fuzz-out)")
    p.add_argument("--max-designs", type=int, default=None, metavar="N",
                   help="stop after N designs even if budget remains")
    p.add_argument("--horizon", type=int, default=4,
                   help="oracle unrolling horizon in cycles (default 4)")
    p.add_argument("--no-shrink", action="store_true",
                   help="write reproducers without delta-debugging them")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="JSONL span telemetry (readable by 'repro profile')")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="dump Prometheus text-format metrics at campaign end")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "perf",
        help="differential cycle-count oracle: μPATH-derived predictor "
             "vs RTL simulation",
    )
    p.add_argument("--design", choices=("core", "cva6-mul", "fixed"),
                   default="core",
                   help="case-study core variant (default core)")
    p.add_argument("--xlen", type=int, default=4,
                   help="datapath width in bits (default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--budget", type=float, default=30.0,
                   help="wall-clock budget in seconds (default 30)")
    p.add_argument("--max-sequences", type=int, default=None, metavar="N",
                   help="stop after N sequences even if budget remains")
    p.add_argument("--out", default="perf-out", metavar="DIR",
                   help="directory for shrunk reproducers (default perf-out)")
    p.add_argument("--no-shrink", action="store_true",
                   help="write reproducers without delta-debugging them")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="JSONL span telemetry (readable by 'repro profile')")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="dump Prometheus text-format metrics at campaign end")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser(
        "profile",
        help="analyze a --trace JSONL file (phases, hotspots, reconciliation)",
    )
    p.add_argument("trace", help="path to the JSONL trace")
    p.add_argument("--top", type=int, default=10,
                   help="hotspot spans to show (default 10)")
    p.add_argument("--export-chrome-trace", default=None, metavar="FILE",
                   help="write Chrome-tracing / Perfetto JSON to FILE")
    p.add_argument("--check", action="store_true",
                   help="exit 1 if the trace is malformed or does not "
                        "reconcile")
    p.set_defaults(func=cmd_profile)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
