"""The stimulus loop against the per-cycle drivers it replaced.

A context is a value: reset overrides, a script of steps, idle inputs and
a horizon (``repro.mc.enumerative.Context``).  One loop,
``repro.mc.enumerative.drive``, runs every context over the compiled
step: a step is driven until a cycle whose own row has its release signal
high, or for one cycle when it has none, and the next step starts on the
following cycle.

The reference below keeps the drivers those scripts replaced: a callback
``driver(t, prev_obs)``, called every cycle with the previous row's
``fetch_ready`` and ``pipe_quiesce``, for the core's program scripts, the
cache's request lists and CVA6-OP's instruction pairs, over a loop that
steps every cycle.  The providers' contexts are recorded together with
the description each was built from, and the rows must be equal on every
context of the tier-1 smoke families, the e2e benchmark's full-scale
upath and leakage families, the core IFT netlist and its observed slice,
the cache IFT netlist, the static scripts and the CVA6-OP pairs.  Three
planted loops must fail it: a release read from the previous row, a
``taint_flush`` pulse held two cycles, and a quiesce wait released by the
row before the wait.
"""

from functools import partial

import pytest

import repro.designs.cache as cache_mod
import repro.designs.harness as harness
import repro.mc.enumerative as enumerative
from repro.core.synthlc import ASSUMPTIONS, OPERANDS, SynthLC, instrument_design
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core, isa, slot_pc
from repro.designs.cache import CacheContextProvider, build_cache
from repro.designs.core import CoreConfig
from repro.designs.variants import build_cva6_op, oppack_context
from repro.mc.enumerative import drive, simulate_context
from repro.rtl import Module, elaborate, mux
from repro.sim import Simulator
from repro.sim.simulator import compiled

XLEN = 4
CACHE_HORIZON = 40
# the e2e benchmark's families (benchmarks/e2e/worker.py): smoke-scale
# upath, full-scale upath (also the leakage workload's synthesis family)
# and the full-scale leakage taint family
SMOKE_FAMILY = ContextFamilyConfig(
    horizon=32, neighbors=("DIV",), iuv_values=(0, 15), neighbor_values=(0,),
)
FULL_FAMILY = ContextFamilyConfig(
    horizon=32, neighbors=("DIV",), iuv_values=(0, 1, 15), neighbor_values=(0, 15),
)
TAINT_FAMILY = ContextFamilyConfig(
    instrumented=True, horizon=32, neighbors=("DIV",), iuv_values=(0, 15),
    neighbor_values=(0, 15),
)
ADD0 = isa.encode("ADD", rd=3, rs1=1, rs2=2)
ADD1 = isa.encode("ADD", rd=6, rs1=4, rs2=5)


# ------------------------------------------------------- reference drivers
def _constants(taint, instrumented):
    inputs = {}
    if taint is not None:
        inputs["taint_pc"] = taint.pc
        inputs["taint_rs1"] = 1 if taint.rs1 else 0
        inputs["taint_rs2"] = 1 if taint.rs2 else 0
    if instrumented:
        inputs["taint_intro"] = 1
        inputs["taint_flush"] = 0
    return inputs


def program_driver(script, taint, instrumented):
    """The core's driver: replays each word until ``fetch_ready`` accepts
    it, waits for ``pipe_quiesce`` after at least one waited cycle (the
    observation lags the drive by a cycle), pulses ``taint_flush`` for one
    cycle and idles ``n`` cycles."""
    state = {"phase": 0, "ptr": 0, "idle": 0, "driving": False, "waited": False}

    def driver(t, prev_obs):
        inputs = _constants(taint, instrumented)
        if state["driving"] and prev_obs is not None and prev_obs["fetch_ready"]:
            state["ptr"] += 1
        state["driving"] = False
        while state["phase"] < len(script):
            item = script[state["phase"]]
            kind = item[0]
            if kind == "feed":
                if state["ptr"] >= len(item[1]):
                    state["phase"] += 1
                    state["ptr"] = 0
                    continue
                inputs["in_valid"] = 1
                inputs["in_instr"] = item[1][state["ptr"]]
                state["driving"] = True
                return inputs
            if kind == "wait_quiesce":
                if state["waited"] and prev_obs is not None and prev_obs["pipe_quiesce"]:
                    state["phase"] += 1
                    state["waited"] = False
                    continue
                state["waited"] = True
                return inputs
            if kind == "flush":
                if instrumented:
                    inputs["taint_flush"] = 1
                state["phase"] += 1
                return inputs
            if kind == "idle":
                if state["idle"] >= item[1]:
                    state["idle"] = 0
                    state["phase"] += 1
                    continue
                state["idle"] += 1
                return inputs
            raise ValueError("unknown script item %r" % (item,))
        return inputs

    return driver


def cache_driver(requests, taint, instrumented):
    """The cache's driver: request i, PC ``slot_pc(i)``, is replayed until
    ``fetch_ready`` accepts it; "quiesce" and "flush" as for the core."""
    state = {"phase": 0, "driving": False, "issued": 0, "waited": False}

    def driver(t, prev_obs):
        inputs = _constants(taint, instrumented)
        if state["driving"] and prev_obs is not None and prev_obs["fetch_ready"]:
            state["phase"] += 1
            state["issued"] += 1
        state["driving"] = False
        while state["phase"] < len(requests):
            item = requests[state["phase"]]
            if item == "quiesce":
                if state["waited"] and prev_obs is not None and prev_obs["pipe_quiesce"]:
                    state["phase"] += 1
                    state["waited"] = False
                    continue
                state["waited"] = True
                return inputs
            if item == "flush":
                if instrumented:
                    inputs["taint_flush"] = 1
                state["phase"] += 1
                return inputs
            is_store, addr, data = item
            inputs.update(req_valid=1, req_is_store=1 if is_store else 0,
                          req_addr=addr, req_data=data, req_pc=slot_pc(state["issued"]))
            state["driving"] = True
            return inputs
        return inputs

    return driver


def oppack_driver(pairs):
    """CVA6-OP's driver: each (word0, word1 or None) pair is replayed until
    ``fetch_ready`` accepts it."""
    state = {"ptr": 0, "driving": False}

    def driver(t, prev_obs):
        if state["driving"] and prev_obs is not None and prev_obs["fetch_ready"]:
            state["ptr"] += 1
        state["driving"] = False
        inputs = {}
        if state["ptr"] < len(pairs):
            w0, w1 = pairs[state["ptr"]]
            inputs.update(in_valid0=1, in_instr0=w0)
            if w1 is not None:
                inputs.update(in_valid1=1, in_instr1=w1)
            state["driving"] = True
        return inputs

    return driver


def reference_rows(netlist, context, driver):
    """``context``'s rows with ``driver`` called every cycle on the
    previous row's feedback, over a loop that steps every cycle."""
    entry = compiled(netlist)
    names = entry.observable_names
    feedback = [(n, names.index(n)) for n in ("fetch_ready", "pipe_quiesce") if n in names]
    inputs_order = [node.name for node in netlist.inputs]
    overrides = dict(context.reset_overrides)
    state = tuple(overrides.get(reg.name, reg.reset) for reg, _ in netlist.registers)
    rows = []
    prev_obs = None
    for t in range(context.horizon):
        inputs = driver(t, prev_obs)
        assert inputs.keys() <= set(inputs_order), inputs
        state, row = entry.step(state, tuple(inputs.get(name, 0) for name in inputs_order))
        rows.append(row)
        prev_obs = {name: row[i] for name, i in feedback}
    return rows


def recorded(build):
    """The distinct contexts ``build()`` makes, each with the factory of
    its reference driver, read off the description it was built from."""
    drivers = {}
    real_program, real_cache = harness.program_context, cache_mod.cache_context

    def program(script, overrides=None, *, horizon, taint=None, instrumented=False, label=""):
        context = real_program(script, overrides, horizon=horizon, taint=taint,
                               instrumented=instrumented, label=label)
        drivers[context] = partial(program_driver, tuple(script), taint, instrumented)
        return context

    def cache(requests, *, horizon, taint=None, instrumented=False, label=""):
        context = real_cache(requests, horizon=horizon, taint=taint,
                             instrumented=instrumented, label=label)
        drivers[context] = partial(cache_driver, tuple(requests), taint, instrumented)
        return context

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "program_context", program)
        patch.setattr(cache_mod, "cache_context", cache)
        contexts = build()
    return [(context, drivers[context]) for context in dict.fromkeys(contexts)]


def first_mismatch(netlist, family):
    """The first context whose ``simulate_context`` rows differ from its
    reference rows, or None."""
    sim = Simulator(netlist)
    for context, factory in family:
        if simulate_context(sim, context) != reference_rows(netlist, context, factory()):
            return context
    return None


# ------------------------------------------------------------------ families
def mupath_contexts(provider, iuvs):
    return [c for name in iuvs for g in provider.mupath_groups(name) for c in g.contexts]


def taint_contexts(provider, pairs):
    """Every context SynthLC builds for ``pairs`` of (transponder,
    transmitter): each assumption, each operand the transmitter reads."""
    out = []
    for transponder, transmitter in pairs:
        spec = isa.BY_NAME.get(transmitter)
        for assumption in ASSUMPTIONS:
            for operand in OPERANDS:
                if spec is not None and not getattr(spec, "reads_" + operand):
                    continue
                for group in provider.taint_groups(transponder, transmitter, assumption, operand):
                    out += group.contexts
    return out


@pytest.fixture(scope="module")
def core():
    return build_core(CoreConfig(xlen=XLEN))


@pytest.fixture(scope="module")
def cache():
    return build_cache()


@pytest.fixture(scope="module")
def leakage(core):
    """The leakage workload's tool and its taint family: LW the
    transponder, DIV the transmitter (static scripts included)."""
    provider = CoreContextProvider(xlen=XLEN, config=TAINT_FAMILY)
    return SynthLC(core, provider), recorded(
        lambda: taint_contexts(provider, [("LW", "DIV")])
    )


@pytest.fixture(scope="module")
def smoke(core, cache):
    """The smoke upath families, on the core and on the cache."""
    provider = CoreContextProvider(xlen=XLEN, config=SMOKE_FAMILY)
    return [
        (core.netlist, recorded(lambda: mupath_contexts(provider, ("ADD", "DIV")))),
        (cache.netlist, recorded(
            lambda: mupath_contexts(CacheContextProvider(horizon=CACHE_HORIZON), ("LD",))
        )),
    ]


def oppack_family():
    """CVA6-OP pairs: packed and not, single and back to back."""
    family = []
    for w4 in (2, 0xC8):
        overrides = {"arf_w1": 3, "arf_w2": 5, "arf_w4": w4, "arf_w5": 7}
        for pairs in ([(ADD0, ADD1)], [(ADD0, None)], [(ADD0, ADD1), (ADD1, ADD0)],
                      [(ADD0, None), (ADD1, ADD0), (ADD0, ADD1)]):
            context = oppack_context(pairs, overrides, horizon=16)
            family.append((context, partial(oppack_driver, tuple(pairs))))
    return family


# ------------------------------------------------------------------ parity
def test_smoke_families(smoke):
    for netlist, family in smoke:
        assert family and first_mismatch(netlist, family) is None


def test_full_scale_upath_families(core, cache):
    provider = CoreContextProvider(xlen=XLEN, config=FULL_FAMILY)
    family = recorded(lambda: mupath_contexts(provider, ("ADD", "DIV", "LW", "SW", "BEQ")))
    cache_family = recorded(lambda: mupath_contexts(
        CacheContextProvider(horizon=CACHE_HORIZON), ("LD", "ST")
    ))
    assert (len(family), len(cache_family)) == (485, 300)
    assert first_mismatch(core.netlist, family) is None
    assert first_mismatch(cache.netlist, cache_family) is None


def test_full_scale_leakage_family_on_the_observed_slice(leakage):
    tool, family = leakage
    assert len(family) == 164
    assert any(c.label.startswith("static") for c, _ in family)
    assert first_mismatch(tool.observed(), family) is None


def test_full_scale_leakage_family_on_the_core_ift_netlist(leakage):
    tool, family = leakage
    assert first_mismatch(tool.ift.netlist, family) is None


def test_cache_taint_families_on_the_cache_ift_netlist(cache):
    provider = CacheContextProvider(horizon=CACHE_HORIZON, instrumented=True)
    pairs = [(p, t) for p in ("LD", "ST") for t in ("LD", "ST")]
    family = recorded(lambda: taint_contexts(provider, pairs))
    assert any(c.label.startswith("static") for c, _ in family)
    assert first_mismatch(instrument_design(cache).netlist, family) is None


def test_cva6_op_pairs():
    assert first_mismatch(build_cva6_op().netlist, oppack_family()) is None


def test_quiesce_stop_rule():
    """Under ``quiesce``: stop at the first high row after the last
    release, raise at a fixed point that releases nothing, and raise
    after ``horizon`` cycles that never settle."""
    m = Module("count")
    en = m.input("en", 1)
    count = m.reg("count", 4, reset=0)
    count.next = mux(en, count.q + 1, count.q)
    m.name_signal("done", count.q.eq(3))
    step = compiled(elaborate(m)).step
    on, off = (1,), (0,)  # the input tuple: en
    # two counting steps, then idle inputs that keep counting: done at 3
    rows, state = drive(step, (0,), [(on, None)] * 2, on, 16, quiesce=0)
    assert [row[0] for row in rows] == [0, 0, 0, 1] and state == (4,)
    # idle inputs that hold the count at 2: cycle 2 repeats forever
    with pytest.raises(RuntimeError, match="cycle 3 repeats cycle 2 forever"):
        drive(step, (0,), [(on, None)] * 2, off, 16, quiesce=0)
    with pytest.raises(RuntimeError, match="within 3 cycles"):
        drive(step, (0,), [], on, 3, quiesce=0)


# ------------------------------------------------------------------ planted
def planted(bug):
    """The stimulus loop, fixed-horizon runs only, with one planted bug."""

    def drive(step, state, script, idle, horizon, quiesce=None):
        rows = []
        i = held = 0  # the current step, and the cycles it has been driven
        for t in range(horizon):
            if bug == "wait released by the row before it" and rows and not held:
                # a wait (idle inputs, a release) whose previous row shows it
                while (i < len(script) and script[i][0] == idle
                       and script[i][1] is not None and rows[-1][script[i][1]]):
                    i += 1
            inputs, release = script[i] if i < len(script) else (idle, None)
            state, row = step(state, inputs)
            rows.append(row)
            held += 1
            if i < len(script):
                if release is None:
                    done = held == (2 if bug == "flush held two cycles" else 1)
                elif bug == "release read from the previous row":
                    done = len(rows) > 1 and rows[-2][release]
                else:
                    done = row[release]
                if done:
                    i += 1
                    held = 0
        return rows, state

    return drive


@pytest.mark.parametrize("bug", [
    "release read from the previous row",
    "flush held two cycles",
    "wait released by the row before it",
])
def test_planted_loop_is_caught(bug, smoke, leakage, monkeypatch):
    tool, family = leakage
    static = [(c, f) for c, f in family if c.label.startswith("static")]
    families = smoke + [(tool.observed(), static)]
    monkeypatch.setattr(enumerative, "drive", planted(bug))
    assert any(first_mismatch(netlist, f) is not None for netlist, f in families)


def test_unplanted_reference_loop_agrees(smoke, leakage, monkeypatch):
    """The planted loop without a bug is the step rule: it must pass."""
    tool, family = leakage
    static = [(c, f) for c, f in family if c.label.startswith("static")]
    monkeypatch.setattr(enumerative, "drive", planted(None))
    for netlist, f in smoke + [(tool.observed(), static)]:
        assert first_mismatch(netlist, f) is None
