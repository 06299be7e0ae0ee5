"""Fig. 2 bench: ADD uPATHs on CVA6-OP (operand packing).

Paper: a packed ADD commits in 4 cycles, a non-packed one in 5, the
difference being one vs two cycles in ID (the cycle-accurate uHB extension
is what makes the two paths distinguishable at all -- Fig. 2a's classic
notation collapses them).
"""

import pytest

from repro.core import UhbGraph, extract_path
from repro.core.decisions import extract_decisions
from repro.designs import isa
from repro.designs.variants import build_cva6_op, oppack_context
from repro.mc import simulate_context
from repro.props import ConcreteTraceView
from repro.sim import Simulator

from conftest import print_banner

ADD0 = isa.encode("ADD", rd=3, rs1=1, rs2=2)
ADD1 = isa.encode("ADD", rd=6, rs1=4, rs2=5)


def _run(design, overrides, horizon=12):
    sim = Simulator(design.netlist)
    rows = simulate_context(sim, oppack_context([(ADD0, ADD1)], overrides, horizon=horizon))
    view = ConcreteTraceView(rows, names=sim.observable_names)
    return extract_path(view, design.metadata.pls, iuv_pc=8, iuv="ADD")


def test_fig2_packed_vs_nonpacked(benchmark):
    design = build_cva6_op()

    def regenerate():
        packed = _run(design, {"arf_w1": 3, "arf_w2": 5, "arf_w4": 2, "arf_w5": 7})
        nonpacked = _run(design, {"arf_w1": 3, "arf_w2": 5, "arf_w4": 0xC8, "arf_w5": 7})
        return packed, nonpacked

    packed, nonpacked = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    print_banner("Fig. 2 -- ADD uPATHs on CVA6-OP")
    print("paper:    packed ADD latency 4, non-packed 5 (extra ID cycle)")
    print(
        "measured: packed %d, non-packed %d"
        % (packed.latency, nonpacked.latency)
    )
    print()
    print(UhbGraph(packed).render_ascii(title="Fig. 2b: packed uPATH"))
    print()
    print(UhbGraph(nonpacked).render_ascii(title="Fig. 2c: non-packed uPATH"))

    assert packed.latency == 4
    assert nonpacked.latency == 5
    assert nonpacked.run_lengths("ID") == [2]  # the paper's ID(l=2)
    assert packed.run_lengths("ID") == [1]


def test_fig2_decision_set_matches_sec4b():
    """SS IV-B: d_ADD = {(ID, {issue, scbIss}), (ID, {ID})}."""
    design = build_cva6_op()
    packed = _run(design, {"arf_w1": 3, "arf_w2": 5, "arf_w4": 2, "arf_w5": 7})
    nonpacked = _run(design, {"arf_w1": 3, "arf_w2": 5, "arf_w4": 0xC8, "arf_w5": 7})
    decisions = extract_decisions("ADD", [packed, nonpacked])

    print_banner("SS IV-B -- ADD decisions on CVA6-OP")
    print("paper:    src_ADD = {ID}; d_ADD = {(ID,{issue,scbIss}), (ID,{ID})}")
    for decision in decisions.decisions():
        print("measured:", decision)

    assert decisions.sources == ["ID"]
    destinations = set(decisions.destinations("ID"))
    assert frozenset({"issue", "scbIss"}) in destinations
    assert frozenset({"ID"}) in destinations
