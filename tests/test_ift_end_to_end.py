"""End-to-end IFT soundness on the real core.

The load-bearing guarantee behind SynthLC's decision-taint covers: when
two runs differ only in a transmitter's operand value, any cycle where a
PL's occupancy-by-the-IUV differs must be tainted in at least one of the
runs (taint over-approximates influence).  This is checked here on the
instrumented core for the divider and the store-to-load channels.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.synthlc import instrument_design
from repro.designs import isa, program_context, slot_pc
from repro.designs.harness import TaintSpec
from repro.mc import simulate_context
from repro.sim import Simulator


@pytest.fixture(scope="module")
def ift_core(core_design):
    return core_design, instrument_design(core_design)


def run_tainted(core_design, ift, program, overrides, taint_pc, horizon=40):
    sim = Simulator(ift.netlist)
    taint = TaintSpec(pc=taint_pc, rs1=True, rs2=True)
    context = program_context(
        [("feed", tuple(program))], overrides, horizon=horizon, taint=taint,
        instrumented=True,
    )
    return [dict(zip(sim.observable_names, row)) for row in simulate_context(sim, context)]


def occupancy_profiles(core_design, rows, pc):
    """(visits, tainted) per cycle for instruction ``pc``."""
    visits, tainted = [], []
    for obs in rows:
        vset, tset = set(), set()
        for name, pl in core_design.metadata.pls.items():
            for slot in pl.slots:
                if obs[slot.occ_signal] and obs[slot.pc_signal] == pc:
                    vset.add(name)
                    if obs[slot.taint_probe + "__tainted"]:
                        tset.add(name)
        visits.append(frozenset(vset))
        tainted.append(frozenset(tset))
    return visits, tainted


@settings(max_examples=12, deadline=None)
@given(v1=st.integers(0, 255), v2=st.integers(0, 255))
def test_div_occupancy_differences_are_tainted(ift_core, v1, v2):
    core_design, ift = ift_core
    program = [isa.encode("DIVU", rd=3, rs1=1, rs2=2)]
    rows1 = run_tainted(core_design, ift, program, {"arf_w1": v1, "arf_w2": 3}, slot_pc(0))
    rows2 = run_tainted(core_design, ift, program, {"arf_w1": v2, "arf_w2": 3}, slot_pc(0))
    visits1, tainted1 = occupancy_profiles(core_design, rows1, slot_pc(0))
    visits2, tainted2 = occupancy_profiles(core_design, rows2, slot_pc(0))
    for t, (a, b) in enumerate(zip(visits1, visits2)):
        for pl in a ^ b:  # occupancy differs at cycle t
            assert pl in tainted1[t] or pl in tainted2[t], (t, pl)


def test_store_to_load_stall_difference_is_tainted(ift_core):
    core_design, ift = ift_core
    sw = isa.encode("SW", rs1=4, rs2=5)
    lw = isa.encode("LW", rd=3, rs1=1, rs2=1)
    base = {"arf_w1": 0, "arf_w5": 9}
    rows_match = run_tainted(core_design, ift, [sw, lw], dict(base, arf_w4=0), slot_pc(0))
    rows_miss = run_tainted(core_design, ift, [sw, lw], dict(base, arf_w4=1), slot_pc(0))
    v_match, t_match = occupancy_profiles(core_design, rows_match, slot_pc(1))
    v_miss, t_miss = occupancy_profiles(core_design, rows_miss, slot_pc(1))
    diff_cycles = [t for t, (a, b) in enumerate(zip(v_match, v_miss)) if a != b]
    assert diff_cycles  # the load's uPATH really differs
    for t in diff_cycles:
        for pl in v_match[t] ^ v_miss[t]:
            assert pl in t_match[t] or pl in t_miss[t], (t, pl)


def test_untainted_instruction_has_no_taint(ift_core):
    core_design, ift = ift_core
    program = [isa.encode("ADD", rd=3, rs1=1, rs2=2)]
    # taint targets a PC that never appears
    rows = run_tainted(core_design, ift, program, {"arf_w1": 7}, taint_pc=0xFC)
    _visits, tainted = occupancy_profiles(core_design, rows, slot_pc(0))
    assert all(not tset for tset in tainted)
