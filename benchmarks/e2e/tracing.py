"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark does not activate ``repro.obs``.  Instead it wraps the
public entry points of each layer from the outside: every call becomes a
span (label, metric key, parent, start, end) kept in memory, and small
per-call hooks count the layer's work (contexts, cycles, solves, ...).

Modules import many of these functions by name, so a function is
patched at *every* loaded ``repro`` module that holds it, not only where
it is defined.  Methods are patched once on their class.

A layer's self time is its span's duration minus the time covered by
its child spans; the self times of a root's subtree therefore add up to
the root's duration exactly, which ``test_e2e.py`` checks.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

# --------------------------------------------------------------- counters
# Each hook is ``hook(recorder, args, result, before)``; ``before`` is the
# value the matching ``snapshot(args)`` took when the call started.


def _count(key: str) -> Callable:
    def hook(rec, args, result, before):
        rec.counts[key] += 1

    return hook


def _designs(rec, args, result, before):
    rec.counts["designs.contexts"] += sum(len(g.contexts) for g in result)


def _mupath_designs(rec, args, result, before):
    _designs(rec, args, result, before)
    iuv = args[1]
    for group in result:
        for context in group.contexts:
            # the program lives in a closure inside the context, so the
            # IUV and group name stand in for it.  Holding the context
            # keeps its id() from being reused.
            rec.mupath_contexts[id(context)] = (context, iuv, group.label)


def _simulate(rec, args, result, before):
    simulator, context = args[0], args[1]
    rec.counts["sim.contexts"] += 1
    rec.counts["sim.cycles"] += len(result)
    entry = rec.mupath_contexts.get(id(context))
    if entry is not None:
        netlist = simulator.netlist
        key = (
            netlist.name,
            len(netlist.order),
            entry[1],
            entry[2],
            context.label,
            context.reset_overrides,
            context.horizon,
        )
        if key in rec.simulated:
            rec.counts["sim.repeat_contexts"] += 1
        else:
            rec.simulated.add(key)


def _run_program(rec, args, result, before):
    rec.counts["sim.contexts"] += 1
    # run_program stops at the quiescent cycle, which it has stepped
    rec.counts["sim.cycles"] += result.cycles + 1


def _stats_count(args):
    return args[0].stats.count


def _properties(key: str) -> Callable:
    def hook(rec, args, result, before):
        rec.counts[key] += args[0].stats.count - before

    return hook


def _paths(rec, args, result, before):
    rec.counts["mhb.paths"] += len(args[0].paths)


def _conflicts(args):
    return args[0].conflicts


def _solve(rec, args, result, before):
    rec.counts["solver.solves"] += 1
    rec.counts["solver.conflicts"] += args[0].conflicts - before


def _engine(rec, args, result, before):
    rec.counts["engine.jobs"] += len(args[1])
    rec.counts["engine.cache_stores"] += result.manifest.cache_stores


# (module, attribute, span label, self-time metric, hook, snapshot).  A
# dotted attribute names a method on a class in that module.
PATCHES = (
    ("repro.designs.harness", "CoreContextProvider.mupath_groups",
     "mupath_groups", "designs.s", _mupath_designs, None),
    ("repro.designs.harness", "CoreContextProvider.taint_groups",
     "taint_groups", "designs.s", _designs, None),
    ("repro.designs.cache", "CacheContextProvider.mupath_groups",
     "mupath_groups", "designs.s", _mupath_designs, None),
    ("repro.designs.cache", "CacheContextProvider.taint_groups",
     "taint_groups", "designs.s", _designs, None),
    ("repro.sim.simulator", "compile_netlist",
     "compile_netlist", "sim.compile_s", _count("sim.compiles"), None),
    ("repro.mc.enumerative", "simulate_context",
     "simulate_context", "sim.s", _simulate, None),
    ("repro.designs.harness", "run_program",
     "run_program", "sim.s", _run_program, None),
    ("repro.mc.enumerative", "TraceDB.__init__",
     "TraceDB", "mc.tracedb_s", _count("mc.tracedbs"), None),
    ("repro.core.rtl2mupath", "VisitIndex.__init__",
     "VisitIndex", "mhb.extract_s", _paths, None),
    ("repro.core.rtl2mupath", "Rtl2MuPath.duv_pl_reachability",
     "duv_pl_reachability", "rtl2mupath.s",
     _properties("rtl2mupath.properties"), _stats_count),
    ("repro.core.rtl2mupath", "Rtl2MuPath.synthesize",
     "synthesize", "rtl2mupath.s",
     _properties("rtl2mupath.properties"), _stats_count),
    ("repro.core.synthlc", "SynthLC.classify",
     "classify", "synthlc.s",
     _properties("synthlc.properties"), _stats_count),
    # the engine runs SynthLC work items through this job, not classify()
    ("repro.engine.specs", "SynthLCJob.execute",
     "SynthLCJob", "synthlc.s", None, None),
    ("repro.ift.cellift", "instrument_ift", "instrument_ift", "ift.s", None, None),
    ("repro.mc.kinduction", "prove_unreachable_kinduction",
     "kinduction", "mc.kinduction_s", _count("mc.kinduction_calls"), None),
    ("repro.mc.bmc", "BmcContext.__init__", "BmcContext", "mc.bmc_s", None, None),
    ("repro.mc.bmc", "BmcContext.check",
     "bmc.check", "mc.bmc_s", _count("mc.bmc_checks"), None),
    ("repro.mc.enumerative", "EnumerativeEngine.check",
     "enumerative.check", "mc.enumerative_s",
     _count("mc.enumerative_checks"), None),
    ("repro.mc.portfolio", "PortfolioEngine.check",
     "portfolio.check", "mc.portfolio_s", None, None),
    ("repro.solver.sat", "SatSolver.solve", "solve", "solver.s", _solve, _conflicts),
    ("repro.engine.scheduler", "JobScheduler.run", "engine.run", "engine.s", _engine, None),
    ("repro.fuzz.gen", "sample_spec", "sample_spec", "fuzz.gen_s",
     _count("fuzz.designs"), None),
    ("repro.fuzz.gen", "build_design", "build_design", "fuzz.gen_s", None, None),
    ("repro.fuzz.oracle", "check_design", "check_design", "fuzz.oracle_s", None, None),
    ("repro.perf.predict", "predict_program",
     "predict_program", "perf.predict_s", None, None),
    ("repro.perf.oracle", "check_sequence", "check_sequence", "perf.oracle_s",
     _count("perf.sequences"), None),
)

COUNT_METRICS = (
    "designs.contexts", "sim.compiles", "sim.contexts", "sim.cycles",
    "sim.repeat_contexts", "mc.tracedbs", "mhb.paths",
    "rtl2mupath.properties", "synthlc.properties", "mc.kinduction_calls",
    "mc.bmc_checks", "mc.enumerative_checks", "solver.solves",
    "solver.conflicts", "engine.jobs", "engine.cache_stores",
    "fuzz.designs", "perf.sequences",
)
TIME_METRICS = tuple(sorted({patch[3] for patch in PATCHES}))


class Recorder:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        # each span: [label, metric, parent index, start, end]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.mupath_contexts: Dict[int, object] = {}
        self.simulated = set()

    def wrap(self, fn, label, metric, hook=None, snapshot=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [label, metric, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            before = snapshot(args) if snapshot is not None else None
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result, before)
                return result
            finally:
                stack.pop()
                span[4] = clock()

        return traced

    def span(self, label: str) -> "_Root":
        """A root (or nested) span opened by the benchmark's own code."""
        return _Root(self, label)

    def install(self) -> None:
        """Wrap every entry point in :data:`PATCHES`."""
        # import first, so the by-name scan below sees every import site
        for patch in PATCHES:
            importlib.import_module(patch[0])
        for module_name, attr, label, metric, hook, snapshot in PATCHES:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                setattr(owner, method, self.wrap(original, label, metric, hook, snapshot))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, label, metric, hook, snapshot)
            for name, loaded in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and (
                    getattr(loaded, attr, None) is original
                ):
                    setattr(loaded, attr, traced)

    # -------------------------------------------------------------- results
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the children's durations."""
        own = [span[4] - span[3] for span in self.spans]
        for span in self.spans:
            if span[2] >= 0:
                own[span[2]] -= span[4] - span[3]
        return own

    def subtree(self, root: int) -> List[int]:
        """Indices of ``root`` and every span below it."""
        inside = {root}
        for index in range(root + 1, len(self.spans)):
            if self.spans[index][2] in inside:
                inside.add(index)
        return sorted(inside)

    def layer_metrics(self) -> Dict[str, float]:
        """Counts and per-layer self times summed over every span."""
        metrics: Dict[str, float] = {key: 0 for key in COUNT_METRICS}
        metrics.update({key: 0.0 for key in TIME_METRICS})
        metrics.update(self.counts)
        for span, own in zip(self.spans, self.self_times()):
            if span[1] is not None:
                metrics[span[1]] += own
        return metrics

    def write_chrome_trace(self, path: str, pid: int = 1) -> None:
        """Write every span as a Chrome-trace complete event."""
        if not self.spans:
            return
        origin = min(span[3] for span in self.spans)
        events = [
            {
                "name": span[0],
                "cat": span[1] or "bench",
                "ph": "X",
                "ts": round((span[3] - origin) * 1e6, 3),
                "dur": round((span[4] - span[3]) * 1e6, 3),
                "pid": pid,
                "tid": 1,
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class _Root:
    def __init__(self, recorder: Recorder, label: str):
        self.recorder = recorder
        self.label = label
        self.index: Optional[int] = None

    def __enter__(self):
        rec = self.recorder
        self.index = len(rec.spans)
        rec.spans.append(
            [self.label, None, rec.stack[-1] if rec.stack else -1,
             time.perf_counter(), 0.0]
        )
        rec.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        rec = self.recorder
        rec.stack.pop()
        rec.spans[self.index][4] = time.perf_counter()
        return False

    @property
    def duration(self) -> float:
        span = self.recorder.spans[self.index]
        return span[4] - span[3]
