"""CVA6-OP (operand packing) and CVA6-MUL variant tests (Figs. 1 and 2)."""

import pytest

from repro.designs import isa
from repro.designs.variants import OpPackConfig, build_cva6_op, oppack_context
from repro.mc import simulate_context
from repro.sim import Simulator


@pytest.fixture(scope="module")
def op_design():
    return build_cva6_op()


@pytest.fixture(scope="module")
def op_sim(op_design):
    return Simulator(op_design.netlist)


def run(design, sim, pairs, overrides, horizon=12):
    rows = simulate_context(sim, oppack_context(pairs, overrides, horizon=horizon))
    return [dict(zip(sim.observable_names, row)) for row in rows]


def visits(design, trace, pc):
    rows = []
    for t, obs in enumerate(trace):
        seen = set()
        for name, pl in design.metadata.pls.items():
            for slot in pl.slots:
                if obs[slot.occ_signal] and obs[slot.pc_signal] == pc:
                    seen.add(name)
        if seen:
            rows.append((t, sorted(seen)))
    return rows


ADD0 = isa.encode("ADD", rd=3, rs1=1, rs2=2)
ADD1 = isa.encode("ADD", rd=6, rs1=4, rs2=5)
NARROW = {"arf_w1": 3, "arf_w2": 5, "arf_w4": 2, "arf_w5": 7}
WIDE = {"arf_w1": 3, "arf_w2": 5, "arf_w4": 0xC8, "arf_w5": 7}


class TestPacking:
    def test_packed_upath_is_fig2b(self, op_design, op_sim):
        trace = run(op_design, op_sim, [(ADD0, ADD1)], NARROW)
        rows = visits(op_design, trace, 8)  # the younger ADD
        assert [v for _, v in rows] == [
            ["IF"],
            ["ID"],
            ["issue", "scbIss"],
            ["scbCmt"],
        ]

    def test_nonpacked_upath_is_fig2c(self, op_design, op_sim):
        trace = run(op_design, op_sim, [(ADD0, ADD1)], WIDE)
        rows = visits(op_design, trace, 8)
        assert [v for _, v in rows] == [
            ["IF"],
            ["ID"],
            ["ID"],  # the paper's ID(l=2)
            ["issue", "scbIss"],
            ["scbCmt"],
        ]

    def test_latencies_4_vs_5(self, op_design, op_sim):
        packed = visits(op_design, run(op_design, op_sim, [(ADD0, ADD1)], NARROW), 8)
        nonpacked = visits(op_design, run(op_design, op_sim, [(ADD0, ADD1)], WIDE), 8)
        assert len(packed) == 4 and len(nonpacked) == 5

    def test_older_instruction_unaffected(self, op_design, op_sim):
        for overrides in (NARROW, WIDE):
            trace = run(op_design, op_sim, [(ADD0, ADD1)], overrides)
            assert len(visits(op_design, trace, 4)) == 4

    def test_different_opcodes_never_pack(self, op_design, op_sim):
        sub1 = isa.encode("SUB", rd=6, rs1=4, rs2=5)
        trace = run(op_design, op_sim, [(ADD0, sub1)], NARROW)
        assert len(visits(op_design, trace, 8)) == 5

    def test_nonpackable_class_never_packs(self, op_design, op_sim):
        slt0 = isa.encode("SLT", rd=3, rs1=1, rs2=2)
        slt1 = isa.encode("SLT", rd=6, rs1=4, rs2=5)
        trace = run(op_design, op_sim, [(slt0, slt1)], NARROW)
        assert len(visits(op_design, trace, 8)) == 5

    def test_any_wide_operand_blocks_packing(self, op_design, op_sim):
        for reg in ("arf_w1", "arf_w2", "arf_w4", "arf_w5"):
            overrides = dict(NARROW)
            overrides[reg] = 0xF0
            trace = run(op_design, op_sim, [(ADD0, ADD1)], overrides)
            assert len(visits(op_design, trace, 8)) == 5, reg

    def test_packing_disabled_variant(self):
        design = build_cva6_op(OpPackConfig(packing_enabled=False))
        sim = Simulator(design.netlist)
        trace = run(design, sim, [(ADD0, ADD1)], NARROW)
        assert len(visits(design, trace, 8)) == 5

    def test_pack_fire_signal(self, op_design, op_sim):
        trace = run(op_design, op_sim, [(ADD0, ADD1)], NARROW)
        assert any(obs["pack_fire"] for obs in trace)
        trace = run(op_design, op_sim, [(ADD0, ADD1)], WIDE)
        assert not any(obs["pack_fire"] for obs in trace)


class TestArchitecturalResults:
    def test_both_results_written(self, op_design, op_sim):
        run(op_design, op_sim, [(ADD0, ADD1)], NARROW)
        state = op_sim.state_dict()
        assert state["arf_w3"] == (3 + 5) & 0xFF
        assert state["arf_w6"] == (2 + 7) & 0xFF

    def test_results_match_packed_or_not(self, op_design, op_sim):
        run(op_design, op_sim, [(ADD0, ADD1)], WIDE)
        state = op_sim.state_dict()
        assert state["arf_w3"] == (3 + 5) & 0xFF
        assert state["arf_w6"] == (0xC8 + 7) & 0xFF

    def test_decision_example_from_paper(self, op_design, op_sim):
        """SS IV-B: d_ADD = {(ID, {issue, scbIss}), (ID, {ID})}."""
        packed = run(op_design, op_sim, [(ADD0, ADD1)], NARROW)
        nonpacked = run(op_design, op_sim, [(ADD0, ADD1)], WIDE)

        def next_after_id(trace):
            rows = visits(op_design, trace, 8)
            for (t, seen), (t2, seen2) in zip(rows, rows[1:]):
                if "ID" in seen:
                    return tuple(seen2)
            return None

        assert next_after_id(packed) == ("issue", "scbIss")
        assert next_after_id(nonpacked) == ("ID",)
