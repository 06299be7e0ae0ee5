"""Witness-export tests."""

import pytest

from repro.mc.outcomes import CheckResult
from repro.report import witness_pl_timeline, witness_to_vcd
from repro.core.pl import DesignMetadata, MicroFsm, PerformingLocation, PlSlot


@pytest.fixture
def reachable_result():
    witness = [
        {"pl_IF_occ": 1, "pl_IF_pc": 4, "pl_ID_occ": 0, "pl_ID_pc": 0},
        {"pl_IF_occ": 0, "pl_IF_pc": 4, "pl_ID_occ": 1, "pl_ID_pc": 4},
    ]
    return CheckResult("q", "reachable", "bmc", witness=witness)


@pytest.fixture
def metadata():
    return DesignMetadata(
        design_name="toy",
        pls={
            "IF": PerformingLocation("IF", (PlSlot("pl_IF_occ", "pl_IF_pc"),)),
            "ID": PerformingLocation("ID", (PlSlot("pl_ID_occ", "pl_ID_pc"),)),
        },
        ufsms=(MicroFsm("u", "pc", ("v",)),),
        ifr_signal="IFR",
        commit_signal="c",
        commit_pc_signal="cp",
        operand_registers=(),
        arf_registers=(),
        amem_registers=(),
    )


class TestVcdExport:
    def test_full_export(self, reachable_result):
        vcd = witness_to_vcd(reachable_result)
        assert "$enddefinitions" in vcd
        assert "pl_IF_occ" in vcd

    def test_signal_restriction(self, reachable_result):
        vcd = witness_to_vcd(reachable_result, signals=["pl_IF_occ"])
        assert "pl_IF_occ" in vcd and "pl_ID_occ" not in vcd

    def test_unreachable_rejected(self):
        result = CheckResult("q", "unreachable", "bmc")
        with pytest.raises(ValueError):
            witness_to_vcd(result)


class TestTimeline:
    def test_timeline(self, reachable_result, metadata):
        lines = witness_pl_timeline(reachable_result, metadata, iuv_pc=4)
        assert lines == ["cycle  0: IF", "cycle  1: ID"]

    def test_other_pc_empty(self, reachable_result, metadata):
        assert witness_pl_timeline(reachable_result, metadata, iuv_pc=8) == []

    def test_slot_missing_from_the_witness_reads_unoccupied(self, metadata):
        # a k-induction witness from a pooled context holds only the
        # named signals of its COI slice: here ID's slot is cut away.
        # Cycles keep their absolute numbers.
        witness = [
            {"pl_IF_occ": 0, "pl_IF_pc": 4},
            {"pl_IF_occ": 1, "pl_IF_pc": 4},
            {"pl_IF_occ": 0, "pl_IF_pc": 4},
            {"pl_IF_occ": 1, "pl_IF_pc": 4},
        ]
        result = CheckResult("q", "reachable", "k-induction", witness=witness)
        lines = witness_pl_timeline(result, metadata, iuv_pc=4)
        assert lines == ["cycle  1: IF", "cycle  3: IF"]

    def test_end_to_end_with_bmc(self, core_design):
        """A real BMC witness renders to VCD and a PL timeline."""
        from repro.designs import isa, slot_pc
        from repro.mc import BmcContext, SymbolicContextSpec
        from repro.props import Eventually, Query
        from repro.designs.core import CoreConfig, build_core

        small = build_core(CoreConfig(xlen=4))
        word = isa.encode("ADD", rd=3, rs1=1, rs2=2)

        def drive(builder, t):
            return {
                "in_valid": 1 if t == 0 else 0,
                "in_instr": word if t == 0 else 0,
                "taint_pc": 0, "taint_rs1": 0, "taint_rs2": 0,
            }

        bmc = BmcContext(
            small.netlist, horizon=9,
            context=SymbolicContextSpec(drive=drive),
        )
        pl = small.metadata.pl("scbCmt")
        result = bmc.check(Query("c", Eventually(pl.visited_by(slot_pc(0)))))
        assert result.reachable
        timeline = witness_pl_timeline(result, small.metadata, slot_pc(0))
        assert any("scbCmt" in line for line in timeline)
        vcd = witness_to_vcd(result, signals=["pl_IF_occ", "commit_fire"])
        assert "commit_fire" in vcd
