"""Simulate-once tests: value-typed contexts, shared rows, one compile per
netlist content, the DUV-PL column scan, and DUV-pruning families reused
by synthesis."""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

import repro.mc.enumerative as enumerative
import repro.sim.simulator as simulator_module
from repro.core import Rtl2MuPath
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core, isa
from repro.designs.cache import CacheContextProvider, cache_context
from repro.designs.core import CoreConfig
from repro.designs.harness import TaintSpec, program_context
from repro.engine import EngineConfig, JobScheduler
from repro.fuzz.metamorphic import canonical_mupaths
from repro.mc import TraceDB
from repro.mc.enumerative import simulate_context
from repro.rtl.netlist import Netlist, netlist_fingerprint
from repro.sim import Simulator
from repro.sim.simulator import compiled, simulation_key

XLEN = 4
FAMILY = ContextFamilyConfig(
    horizon=24, neighbors=("DIV",), iuv_values=(0, 1), neighbor_values=(0, 1),
)
IUVS = ("ADD", "DIV")


def _core_context(script=None, overrides=None, taint=None, instrumented=False,
                  horizon=24):
    word = isa.encode("ADD", rd=3, rs1=1, rs2=2)
    return program_context(
        [("feed", (word,))] if script is None else script,
        {"arf_w1": 1, "arf_w2": 2} if overrides is None else overrides,
        horizon=horizon, taint=taint, instrumented=instrumented, label="ctx",
    )


def _cache_context(requests=((False, 1, 1), "quiesce", (True, 1, 2)),
                   taint=None, instrumented=False):
    return cache_context(requests, horizon=40, taint=taint,
                         instrumented=instrumented, label="ctx")


# ------------------------------------------------------- value-typed contexts
class TestValueContexts:
    def test_separately_built_providers_give_equal_contexts(self):
        for make in (
            lambda: CoreContextProvider(xlen=XLEN, config=FAMILY).mupath_groups("LW"),
            lambda: CacheContextProvider().mupath_groups("ST"),
        ):
            first, second = make(), make()
            a = [c for g in first for c in g.contexts]
            b = [c for g in second for c in g.contexts]
            assert a == b
            assert [hash(c) for c in a] == [hash(c) for c in b]
            assert all(x is not y for x, y in zip(a, b))

    def test_every_stimulus_field_distinguishes_contexts(self):
        base = _core_context()
        assert base == _core_context() and hash(base) == hash(_core_context())
        word = isa.encode("SUB", rd=3, rs1=1, rs2=2)
        variants = [
            _core_context(taint=TaintSpec(pc=4, rs1=True)),
            _core_context(instrumented=True),
            _core_context(script=[("feed", (word,))]),
            _core_context(overrides={"arf_w1": 2, "arf_w2": 2}),
            _core_context(horizon=25),
        ]
        for variant in variants:
            assert variant != base
        cache_base = _cache_context()
        assert cache_base == _cache_context()
        for variant in (
            _cache_context(requests=((False, 1, 1), (True, 1, 2))),
            _cache_context(taint=TaintSpec(pc=4, rs1=True)),
            _cache_context(instrumented=True),
        ):
            assert variant != cache_base

    def test_contexts_round_trip_through_pickle(self):
        design = build_core(CoreConfig(xlen=XLEN))
        for context in (
            _core_context(taint=TaintSpec(pc=4, rs2=True), instrumented=True),
            CoreContextProvider(xlen=XLEN, config=FAMILY).mupath_groups("DIV")[1].contexts[0],
        ):
            copy = pickle.loads(pickle.dumps(context))
            assert copy == context and hash(copy) == hash(context)
        context = _core_context()
        copy = pickle.loads(pickle.dumps(context))
        assert simulate_context(Simulator(design.netlist), copy) == simulate_context(
            Simulator(design.netlist), context
        )
        cache = _cache_context()
        assert pickle.loads(pickle.dumps(cache)) == cache


# ------------------------------------------------------------- shared rows
class TestTraceDBSharing:
    def test_equal_contexts_share_rows_and_keep_their_views(self, monkeypatch):
        calls = []

        def counting(simulator, context):
            calls.append(context)
            return simulate_context(simulator, context)

        monkeypatch.setattr(enumerative, "simulate_context", counting)
        design = build_core(CoreConfig(xlen=XLEN))
        a, b = _core_context(), _core_context(overrides={"arf_w1": 3, "arf_w2": 1})
        family = [a, b, _core_context(), a, b]
        db = TraceDB(design.netlist, family, complete=True)
        assert len(calls) == 2
        assert db.contexts == family and len(db.views) == len(family)
        assert len(db.rows_by_context) == 2
        views = db.views
        assert views[0].cycles is views[2].cycles is views[3].cycles
        assert views[1].cycles is views[4].cycles
        assert views[0].cycles is not views[1].cycles
        for context, view in zip(family, views):
            fresh = simulate_context(Simulator(build_core(CoreConfig(xlen=XLEN)).netlist), context)
            assert view.cycles == fresh


# ------------------------------------------------------------ compile memo
class TestCompileMemo:
    @pytest.fixture
    def compiles(self, monkeypatch):
        """Fresh, isolated memo tables plus a log of real compiles."""
        monkeypatch.setattr(simulator_module, "_COMPILED", weakref.WeakValueDictionary())
        monkeypatch.setattr(simulator_module, "_BY_NETLIST", weakref.WeakKeyDictionary())
        log = []
        original = simulator_module.compile_netlist

        def counting(netlist):
            log.append(netlist.name)  # not the netlist: the log must not keep it alive
            return original(netlist)

        monkeypatch.setattr(simulator_module, "compile_netlist", counting)
        return log

    def test_equal_netlists_compile_once(self, compiles):
        first = build_core(CoreConfig(xlen=XLEN)).netlist
        second = build_core(CoreConfig(xlen=XLEN)).netlist
        assert first is not second
        sim_a, sim_b = Simulator(first), Simulator(second)
        assert len(compiles) == 1
        assert compiled(first) is compiled(second)
        assert sim_a._step_fn is sim_b._step_fn

    def test_reordered_named_compiles_separately(self, compiles):
        netlist = build_core(CoreConfig(xlen=XLEN)).netlist
        reordered = Netlist(
            netlist.name, netlist.order, netlist.inputs, netlist.registers,
            dict(reversed(list(netlist.named.items()))), netlist.outputs,
        )
        # the structural fingerprint cannot tell them apart ...
        assert netlist_fingerprint(reordered) == netlist_fingerprint(netlist)
        # ... but their observable order differs, and so does the memo key
        assert simulation_key(reordered) != simulation_key(netlist)
        sim, sim_reordered = Simulator(netlist), Simulator(reordered)
        assert len(compiles) == 2
        assert sim_reordered.observable_names != sim.observable_names
        inputs = {"in_valid": 1, "in_instr": isa.encode("ADD", rd=3, rs1=1, rs2=2)}
        assert sim.step(inputs) == sim_reordered.step(inputs)

    def test_entry_is_freed_with_its_netlists(self, compiles):
        first = build_core(CoreConfig(xlen=XLEN)).netlist
        second = build_core(CoreConfig(xlen=XLEN)).netlist
        Simulator(first), Simulator(second)
        table = simulator_module._COMPILED
        key = simulation_key(first)
        del first
        gc.collect()
        assert key in table  # the second netlist still holds the entry
        del second
        gc.collect()
        assert key not in table and len(table) == 0


# ----------------------------------------------------------- DUV-PL covers
def test_duv_column_scan_matches_a_per_bit_scan():
    tool = Rtl2MuPath(
        build_core(CoreConfig(xlen=XLEN)),
        CoreContextProvider(xlen=XLEN, config=FAMILY),
    )
    reachable = tool.duv_pl_reachability(IUVS)
    pls = {**tool.metadata.pls, **tool.metadata.candidate_pls}
    per_bit = {
        name for name, pl in pls.items()
        if any(
            view.bit(slot.occ_signal, t)
            for db in tool._duv_tracedbs for view in db.views
            for slot in pl.slots for t in range(view.horizon)
        )
    }
    assert reachable == per_bit
    assert sorted(r.query_name for r in tool.stats.results) == sorted(
        "duvpl_reach_%s" % name for name in pls
    )


# ----------------------------------------- DUV-pruning families in synthesis
def _distinct_contexts(provider):
    return sum(len(set(g.contexts)) for name in IUVS for g in provider.mupath_groups(name))


def _run(engine, calls=None):
    tool = Rtl2MuPath(
        build_core(CoreConfig(xlen=XLEN)), CoreContextProvider(xlen=XLEN, config=FAMILY)
    )
    tool.duv_pl_reachability(IUVS)
    held = [weakref.ref(db) for db in tool._duv_tracedbs]
    before = len(calls) if calls is not None else None
    results = tool.synthesize_all(IUVS, engine=engine)
    if calls is not None:
        assert len(calls) == before  # synthesis simulated nothing new
    gc.collect()
    assert all(ref() is None for ref in held)  # released once synthesis returns
    return canonical_mupaths(results)


class TestSynthesisReuse:
    def test_inline_engine_simulates_each_context_once(self, monkeypatch):
        calls = []

        def counting(simulator, context):
            calls.append(context)
            return simulate_context(simulator, context)

        monkeypatch.setattr(enumerative, "simulate_context", counting)
        monkeypatch.setattr(enumerative, "_SHARED", weakref.WeakValueDictionary())
        provider = CoreContextProvider(xlen=XLEN, config=FAMILY)
        total = sum(len(g.contexts) for n in IUVS for g in provider.mupath_groups(n))
        distinct = _distinct_contexts(provider)
        assert distinct < total  # the family has repeats to save
        inline = _run(JobScheduler(EngineConfig(jobs=1)), calls)
        assert len(calls) == distinct
        monkeypatch.undo()
        assert inline == _run(None)
        assert inline == _run(JobScheduler(EngineConfig(jobs=2)))
