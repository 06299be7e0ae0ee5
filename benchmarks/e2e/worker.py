"""One round of one end-to-end workload, in a fresh process.

``run.py`` starts this script once per round, so every round pays a cold
process's imports and design builds, as a command-line user does.  The
script prints one JSON object as the last line of its standard output:

    python3 benchmarks/e2e/worker.py --workload upath --scale full \\
        --seed 0 --round 0 --tmp .bench_tmp/upath-0-0 [--trace 1] [--chrome F]

Set-up (``setup_s``) runs from interpreter start-up to the end of the
workload's ``setup``: imports, design builds, IFT instrumentation, the
perf model.  Inputs are then drawn, outside the timed round.  Every
time the script reports is put on the reference machine speed by
``speed.SpeedProbe``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from speed import SpeedProbe  # noqa: E402
from tracing import TIME_METRICS, Recorder  # noqa: E402

clock = time.perf_counter

#: Per-workload sizes.  ``full`` is what BENCHMARK.json measures (a round
#: takes 3-4.5 s on a 2-vCPU 2.1 GHz VM); ``smoke`` is far smaller and
#: backs ``test_e2e.py``.  Changing a size changes the golden digests.
SCALES = {
    "full": {
        "upath": {
            "family": {"horizon": 32, "neighbors": ("DIV",),
                       "iuv_values": (0, 1, 15), "neighbor_values": (0, 15)},
            "core": ("ADD", "DIV", "LW", "SW", "BEQ"),
            "cache": ("LD", "ST"),
        },
        "leakage": {
            "family": {"horizon": 32, "neighbors": ("DIV",),
                       "iuv_values": (0, 1, 15), "neighbor_values": (0, 15)},
            "taint_family": {"horizon": 32, "neighbors": ("DIV",),
                             "iuv_values": (0, 15), "neighbor_values": (0, 15)},
            "transponders": ("LW",),
            "transmitters": ("DIV",),
        },
        "fuzz-oracle": {"corpus_seed": 7, "designs": 28},
        "perf-oracle": {"sequences": 4000},
    },
    "smoke": {
        "upath": {
            "family": {"horizon": 32, "neighbors": ("DIV",),
                       "iuv_values": (0, 15), "neighbor_values": (0,)},
            "core": ("ADD",),
            "cache": ("LD",),
        },
        "leakage": {
            "family": {"horizon": 32, "neighbors": ("DIV",),
                       "iuv_values": (0, 15), "neighbor_values": (0,)},
            "taint_family": {"horizon": 32, "neighbors": ("DIV",),
                             "iuv_values": (0,), "neighbor_values": (0,)},
            # half the taint groups of LW <- DIV; each group compiles
            # the IFT netlist once, which bounds how small this can get
            "transponders": ("DIV",),
            "transmitters": ("LW",),
        },
        "fuzz-oracle": {"corpus_seed": 7, "designs": 2},
        "perf-oracle": {"sequences": 100},
    },
}

CORE_XLEN = 4
CACHE_HORIZON = 40  # CacheContextProvider's default
PERF_PROBES = ("ADD", "MUL", "DIV", "DIVU", "LW", "SW")  # as `repro perf`
SEED_STRIDE = 1000003  # the campaigns' stride between seed streams


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _undetermined(stats) -> int:
    return stats.outcome_histogram.get("undetermined", 0)


def _engine(tmp):
    from repro.engine import EngineConfig, JobScheduler

    # a fresh, empty proof cache per round: nothing replays
    return JobScheduler(
        EngineConfig(jobs=1, cache_dir=os.path.join(tmp, "proof-cache"))
    )


def _same_inputs(state, p, seed, round_index):
    return None, "all"


# ------------------------------------------------------------------ upath
def upath_setup(p):
    import repro.core  # noqa: F401  (loaded here so the round imports nothing)
    import repro.engine  # noqa: F401
    import repro.fuzz.metamorphic  # noqa: F401
    from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
    from repro.designs.cache import CacheContextProvider, build_cache
    from repro.designs.core import CoreConfig

    family = ContextFamilyConfig(**p["family"])
    return [
        (build_core(CoreConfig(xlen=CORE_XLEN)),
         CoreContextProvider(xlen=CORE_XLEN, config=family), p["core"]),
        (build_cache(), CacheContextProvider(horizon=CACHE_HORIZON), p["cache"]),
    ]


def upath_run(flows, p, inputs, tmp):
    """DUV PL pruning, then synth-all, on the core and then the cache."""
    from repro.core import Rtl2MuPath
    from repro.fuzz.metamorphic import canonical_mupaths
    from repro.mc.stats import PropertyStats

    started = clock()
    engine = _engine(tmp)
    results = {}
    checks = failed = 0
    for design, provider, names in flows:
        duv_stats = PropertyStats(label="duv-reach")
        tool = Rtl2MuPath(design, provider, stats=duv_stats)
        tool.duv_pl_reachability(names)
        # like `synth-all --duv-prune`: the engine manifest reconciles
        # with the synthesis phase's own stats
        tool.stats = PropertyStats(label="rtl2mupath")
        results.update(tool.synthesize_all(names, engine=engine))
        failed += engine.last_manifest.jobs_failed
        for stats in (duv_stats, tool.stats):
            checks += stats.count
            failed += _undetermined(stats)
    return {
        "ops": [(started, clock())],
        "checks": checks,
        "failed": failed,
        "digest": _digest(canonical_mupaths(results)),
    }


# ---------------------------------------------------------------- leakage
def leakage_setup(p):
    import repro.engine  # noqa: F401
    import repro.fuzz.metamorphic  # noqa: F401
    from repro.core import SynthLC
    from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
    from repro.designs.core import CoreConfig

    design = build_core(CoreConfig(xlen=CORE_XLEN))
    synth = CoreContextProvider(
        xlen=CORE_XLEN, config=ContextFamilyConfig(**p["family"])
    )
    taint = CoreContextProvider(
        xlen=CORE_XLEN,
        config=ContextFamilyConfig(instrumented=True, **p["taint_family"]),
    )
    # the constructor IFT-instruments the netlist
    return design, synth, SynthLC(design, taint)


def leakage_run(state, p, inputs, tmp):
    """synth-all of the transponders, then SynthLC over the transmitters."""
    from repro.core import Rtl2MuPath
    from repro.fuzz.metamorphic import canonical_contracts, canonical_mupaths

    design, provider, synthlc = state
    started = clock()
    engine = _engine(tmp)
    tool = Rtl2MuPath(design, provider)
    results = tool.synthesize_all(p["transponders"], engine=engine)
    failed = engine.last_manifest.jobs_failed
    contracts = synthlc.classify(
        results, transmitters=list(p["transmitters"]), engine=engine
    )
    failed += engine.last_manifest.jobs_failed
    return {
        "ops": [(started, clock())],
        "checks": tool.stats.count + synthlc.stats.count,
        "failed": failed + _undetermined(tool.stats) + _undetermined(synthlc.stats),
        "digest": _digest(canonical_mupaths(results), canonical_contracts(contracts)),
    }


# ------------------------------------------------------------ fuzz-oracle
def fuzz_setup(p):
    from repro.fuzz import CampaignConfig

    config = CampaignConfig()  # the campaign defaults: profile and oracle
    return config.profile, config.oracle


def fuzz_prepare(state, p, seed, round_index):
    """A fixed corpus, the first ``designs`` designs of the campaign at
    ``corpus_seed``, in an order drawn from the seed.  Every round checks
    the same designs; see README.md for why."""
    base = p["corpus_seed"] * SEED_STRIDE
    design_seeds = [base + i for i in range(p["designs"])]
    random.Random(seed * 1000 + round_index).shuffle(design_seeds)
    return design_seeds, "corpus"


def fuzz_run(state, p, design_seeds, tmp):
    """Each op: generate, build and fully check one design, exactly as the
    body of ``run_campaign``'s loop does."""
    from repro.fuzz import build_design, check_design, sample_spec

    profile, oracle = state
    ops = []
    checks = undetermined = failed = 0
    verdicts = {}
    for design_seed in design_seeds:
        started = clock()
        report = check_design(build_design(sample_spec(design_seed, profile)), oracle)
        ops.append((started, clock()))
        checks += report.checks
        undetermined += report.undetermined
        failed += 0 if report.ok else 1
        for key, count in report.verdicts.items():
            verdicts[key] = verdicts.get(key, 0) + count
    summary = {"designs": len(design_seeds), "checks": checks,
               "undetermined": undetermined, "verdicts": verdicts}
    return {
        "ops": ops,
        "checks": checks,
        "failed": failed,
        "digest": _digest(json.dumps(summary, sort_keys=True)),
    }


# ------------------------------------------------------------ perf-oracle
def perf_setup(p):
    import repro.perf.oracle  # noqa: F401
    from repro.designs import build_core
    from repro.designs.core import CoreConfig
    from repro.designs.harness import STRAIGHT_LINE_POOL
    from repro.perf import collect_upath_summaries, compile_model
    from repro.sim import Simulator

    design = build_core(CoreConfig(xlen=CORE_XLEN))
    summaries = collect_upath_summaries(design, PERF_PROBES)
    model = compile_model(design, summaries, names=STRAIGHT_LINE_POOL)
    return design, model, Simulator(design.netlist)


def _store_load_store(program) -> bool:
    """A store, a later load, then a later store (program order)."""
    from repro.designs import isa

    want = ("store", "load", "store")
    matched = 0
    for word in program:
        if isa.decode(word).spec.cls == want[matched]:
            matched += 1
            if matched == len(want):
                return True
    return False


def perf_prepare(state, p, seed, round_index):
    """The round's sequences, drawn as ``run_perf_campaign`` draws them.

    Store-load-store sequences are left out: on some of them the predictor
    never quiesces, a known perf-model bug (README.md pins two).  They are
    about 0.4% of the stream.
    """
    from repro.designs.harness import sample_sequence

    _design, model, _sim = state
    base = (seed * 1000 + round_index) * SEED_STRIDE
    sequences = []
    for index in range(p["sequences"]):
        program, arf_init = sample_sequence(
            base + index, xlen=model.xlen, nregs=model.nregs
        )
        if not _store_load_store(program):
            sequences.append((base + index, program, arf_init))
    return sequences, "seed%d-round%d" % (seed, round_index)


def perf_run(state, p, sequences, tmp):
    """Each op: predict one sequence and simulate it, differentially."""
    from repro.perf.oracle import check_sequence

    design, model, sim = state
    ops = []
    by_class = {}
    for seed, program, arf_init in sequences:
        started = clock()
        mismatch = check_sequence(design, sim, model, program, arf_init, seed=seed)
        ops.append((started, clock()))
        if mismatch is not None:
            name = mismatch.classification
            by_class[name] = by_class.get(name, 0) + 1
    failed = sum(by_class.values())
    summary = {
        "sequences": len(sequences),
        "skipped": p["sequences"] - len(sequences),
        "agreements": len(sequences) - failed,
        "by_class": by_class,
    }
    return {
        "ops": ops,
        "checks": len(sequences),
        "failed": failed,
        "digest": _digest(json.dumps(summary, sort_keys=True)),
    }


# name -> (setup, draw the round's inputs and name them, timed round)
WORKLOADS = {
    "upath": (upath_setup, _same_inputs, upath_run),
    "leakage": (leakage_setup, _same_inputs, leakage_run),
    "fuzz-oracle": (fuzz_setup, fuzz_prepare, fuzz_run),
    "perf-oracle": (perf_setup, perf_prepare, perf_run),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--tmp", required=True, help="per-round temporary directory")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--chrome", help="write the spans as a Chrome trace")
    args = parser.parse_args(argv)

    setup, prepare, run = WORKLOADS[args.workload]
    params = SCALES[args.scale][args.workload]
    recorder = Recorder() if args.trace else None
    probe = SpeedProbe(recorder)
    probe.start()
    try:
        if recorder is not None:
            recorder.install()
        with recorder.span("bench.setup") if recorder else contextlib.nullcontext():
            state = setup(params)
        setup_end = clock()

        inputs, variant = prepare(state, params, args.seed, args.round)
        root = recorder.span("bench.round") if recorder else contextlib.nullcontext()
        round_start = clock()
        with root:
            out = run(state, params, inputs, args.tmp)
        round_end = clock()
    finally:
        probe.stop()
    # a short round or set-up may see no timed sample in its window
    for _ in range(5):
        probe.sample()

    out["op_s"] = [probe.normalized(start, end) for start, end in out.pop("ops")]
    out["variant"] = variant
    out["setup_s"] = probe.normalized(STARTED, setup_end)
    out["speed"] = probe.factor(STARTED, round_end)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        own = recorder.self_times()
        factor = probe.factor(round_start, round_end)
        out["layers"] = {
            key: value * factor if key in TIME_METRICS else value
            for key, value in recorder.layer_metrics().items()
        }
        out["round_s"] = root.duration
        out["unattributed_s"] = own[root.index] * factor
        out["self_sum_s"] = sum(own[i] for i in recorder.subtree(root.index))
        if args.chrome:
            recorder.write_chrome_trace(args.chrome)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
