"""Fixed-point elision in the stimulus loop.

The loop behind ``simulate_context`` pads the rest of the horizon with a
fixed point's row when no step is released.  Rows must equal a direct
step loop's, a design that never reaches a fixed point is stepped every
cycle, and ``Simulator`` still rejects unknown names.
"""

import pytest

import repro.mc.enumerative as enumerative
from repro.core.synthlc import instrument_design
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
from repro.designs.cache import CacheContextProvider, build_cache
from repro.designs.core import CoreConfig
from repro.mc.enumerative import Context, simulate_context
from repro.rtl import Module, elaborate, mux
from repro.sim import Simulator
from repro.sim.simulator import compiled

# the e2e benchmark's smoke-scale upath family, and the leakage taint family
SMOKE_FAMILY = ContextFamilyConfig(
    horizon=32, neighbors=("DIV",), iuv_values=(0, 15), neighbor_values=(0,),
)
TAINT_FAMILY = ContextFamilyConfig(
    instrumented=True, horizon=32, neighbors=("DIV",), iuv_values=(0, 15),
    neighbor_values=(0, 15),
)


def counted_drive(monkeypatch):
    """Wrap the step that ``simulate_context``'s loop calls; returns the
    list each call appends to."""
    calls = []
    real = enumerative.drive

    def drive(step, *args, **kwargs):
        def counting(state, inputs):
            calls.append(inputs)
            return step(state, inputs)

        return real(counting, *args, **kwargs)

    monkeypatch.setattr(enumerative, "drive", drive)
    return calls


def input_blind_drive(step, state, script, idle, horizon, quiesce=None):
    """Planted bug: pads with the first fixed point's row, even when that
    row releases a step and the inputs change."""
    rows = []
    i = 0
    for t in range(horizon):
        inputs, release = script[i] if i < len(script) else (idle, None)
        after, row = step(state, inputs)
        rows.append(row)
        if after == state:
            return rows + [row] * (horizon - t - 1), state
        if i < len(script) and (release is None or row[release]):
            i += 1
        state = after
    return rows, state


def direct_rows(netlist, context):
    """``context``'s rows from a plain loop over the compiled step: every
    cycle stepped, the script's step rule spelled out."""
    entry = compiled(netlist)
    overrides = dict(context.reset_overrides)
    state = tuple(overrides.get(reg.name, reg.reset) for reg, _ in netlist.registers)
    steps = list(context.script)
    rows = []
    for t in range(context.horizon):
        assignment, release = steps[0] if steps else ((), None)
        inputs = {**dict(context.idle), **dict(assignment)}
        state, row = entry.step(state, tuple(inputs.get(node.name, 0) for node in netlist.inputs))
        rows.append(row)
        if steps and (release is None or row[entry.observable_names.index(release)]):
            steps.pop(0)
    return rows


def mismatches(netlist, contexts):
    """Contexts whose simulated rows differ from the direct loop's."""
    sim = Simulator(netlist)
    return [
        context for context in dict.fromkeys(contexts)
        if simulate_context(sim, context) != direct_rows(netlist, context)
    ]


def _counter(enable=True):
    m = Module("c")
    c = m.reg("count", 4, reset=0)
    if enable:
        c.next = mux(m.input("en", 1), c.q + 1, c.q)
    else:
        c.next = c.q + 1
    m.name_signal("value", c.q)
    return elaborate(m)


@pytest.fixture(scope="module")
def core():
    return build_core(CoreConfig(xlen=4))


@pytest.fixture(scope="module")
def static_taint(core):
    """The static-taint script, ``feed; wait_quiesce; flush; feed``, on IFT."""
    provider = CoreContextProvider(xlen=4, config=TAINT_FAMILY)
    contexts = [
        c
        for operand in ("rs1", "rs2")
        for g in provider.taint_groups("LW", "DIV", "static", operand)
        for c in g.contexts
    ]
    return instrument_design(core).netlist, contexts


class TestElision:
    def test_quiescing_core_context_skips_its_tail(self, core, monkeypatch):
        provider = CoreContextProvider(xlen=4, config=SMOKE_FAMILY)
        context = provider.mupath_groups("ADD")[0].contexts[0]
        sim = Simulator(core.netlist)
        calls = counted_drive(monkeypatch)
        rows = simulate_context(sim, context)
        assert len(rows) == sim.cycle == context.horizon
        assert 0 < len(calls) < context.horizon
        assert rows == direct_rows(core.netlist, context)

    def test_free_running_counter_never_elides(self, monkeypatch):
        netlist = _counter(enable=False)
        context = Context.scripted({}, [], 40, label="count")
        calls = counted_drive(monkeypatch)
        rows = simulate_context(Simulator(netlist), context)
        assert len(calls) == 40
        assert [row[0] for row in rows] == [t % 16 for t in range(40)]
        assert rows == direct_rows(netlist, context)

    def test_reset_override_unknown_register_still_raises(self):
        with pytest.raises(KeyError):
            Simulator(_counter()).reset({"nope": 1})

    def test_unknown_input_still_raises_after_quiescence(self):
        sim = Simulator(_counter())
        sim.step_tuple({"en": 0})
        sim.step_tuple({"en": 0})
        with pytest.raises(KeyError):
            sim.step_tuple({"bogus": 1})


class TestRowsMatchDirectLoop:
    def test_static_taint_script(self, static_taint):
        netlist, contexts = static_taint
        assert mismatches(netlist, contexts) == []

    def test_smoke_core_family(self, core):
        provider = CoreContextProvider(xlen=4, config=SMOKE_FAMILY)
        for iuv in ("ADD", "DIV"):
            contexts = [c for g in provider.mupath_groups(iuv) for c in g.contexts]
            assert mismatches(core.netlist, contexts) == []

    def test_smoke_cache_family(self):
        contexts = [
            c for g in CacheContextProvider(horizon=40).mupath_groups("LD") for c in g.contexts
        ]
        assert mismatches(build_cache().netlist, contexts) == []

    def test_planted_input_blind_replay_is_caught(self, static_taint, monkeypatch):
        netlist, contexts = static_taint
        monkeypatch.setattr(enumerative, "drive", input_blind_drive)
        assert mismatches(netlist, contexts)

