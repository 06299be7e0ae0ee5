"""Definition V.1 oracle tests: SC-Safe checking under R_uPATH."""

import pytest

from repro.core.security import (
    UPathReceiver,
    check_sc_safe,
    violation_explained_by_signatures,
)
from repro.core.synthlc import LeakageSignature, TransmitterTag
from repro.designs import isa


class TestReceiver:
    def test_observation_erases_instruction_identity(self, core_design):
        from repro.designs import program_context
        from repro.mc import simulate_context
        from repro.sim import Simulator

        sim = Simulator(core_design.netlist)
        receiver = UPathReceiver(core_design.metadata, sim.observable_names)
        context = program_context(
            [("feed", (isa.encode("ADD", rd=3, rs1=1, rs2=2),))], {"arf_w1": 3}, horizon=10
        )
        observations = [receiver.observe(row) for row in simulate_context(sim, context)]
        # the IF slot shows up as a PL#signal entry, no PC anywhere
        assert any(any(e.startswith("IF#") for e in obs) for obs in observations)
        assert all("pc" not in e for obs in observations for e in obs)


class TestScSafe:
    def test_div_on_secret_violates(self, core_design):
        # DIV r3, r1(secret), r2: the serial divider's occupancy leaks r1
        program = [isa.encode("DIV", rd=3, rs1=1, rs2=2)]
        violation = check_sc_safe(
            core_design, program, ["arf_w1"], {"arf_w2": 3},
            secret_values=(1, 128),
        )
        assert violation is not None
        assert "divU" in violation.diverging_pls()

    def test_add_on_secret_is_safe(self, core_design):
        # an ADD's uPATH is operand-independent in isolation
        program = [isa.encode("ADD", rd=3, rs1=1, rs2=2)]
        violation = check_sc_safe(
            core_design, program, ["arf_w1"], {"arf_w2": 3},
        )
        assert violation is None

    def test_store_to_load_offset_violates(self, core_design):
        # SW with a secret base address followed by a LW: the load's stall
        # decision leaks the store's address page offset (SS IV-A)
        program = [
            isa.encode("SW", rs1=4, rs2=5),
            isa.encode("LW", rd=3, rs1=1, rs2=1),
        ]
        violation = check_sc_safe(
            core_design, program, ["arf_w4"], {"arf_w1": 0, "arf_w5": 7},
            secret_values=(0, 1),  # offsets 5&3=1 vs 6&3=2 against LW's 1
        )
        assert violation is not None
        diverged = violation.diverging_pls()
        assert diverged & {"LSQ", "ldStall", "ldFin", "comSTB", "memRq"}

    def test_branch_on_secret_comparison_violates(self, core_design):
        # BEQ r1(secret), r2: taken vs not-taken flush behaviour diverges
        program = [
            isa.encode("BEQ", rs1=1, rs2=2, rd=0),
            isa.encode("ADD", rd=3, rs1=6, rs2=7),
        ]
        violation = check_sc_safe(
            core_design, program, ["arf_w1"], {"arf_w2": 1},
            secret_values=(1, 2),  # equal vs not equal
        )
        assert violation is not None

    def test_mul_is_safe_on_baseline_but_not_zero_skip(self, core_design):
        from repro.designs.variants import build_cva6_mul

        program = [isa.encode("MUL", rd=3, rs1=1, rs2=2)]
        baseline = check_sc_safe(
            core_design, program, ["arf_w1"], {"arf_w2": 3},
            secret_values=(0, 5),
        )
        assert baseline is None  # fixed-latency multiplier
        zero_skip = check_sc_safe(
            build_cva6_mul(), program, ["arf_w1"], {"arf_w2": 3},
            secret_values=(0, 5),
        )
        assert zero_skip is not None
        assert "mulU" in zero_skip.diverging_pls()

    def test_public_sweep_without_secrets_is_deterministic(self, core_design):
        program = [isa.encode("XOR", rd=3, rs1=1, rs2=2)]
        violation = check_sc_safe(core_design, program, [], {"arf_w1": 9})
        assert violation is None


class TestSignatureCompleteness:
    def test_violation_explained(self, core_design):
        program = [isa.encode("DIV", rd=3, rs1=1, rs2=2)]
        violation = check_sc_safe(
            core_design, program, ["arf_w1"], {"arf_w2": 3}, secret_values=(1, 128)
        )
        signature = LeakageSignature(
            transponder="DIV",
            src="divU",
            destinations=(frozenset({"divU"}), frozenset({"scbFin"})),
            inputs=(TransmitterTag("DIV", "intrinsic", "rs1"),),
        )
        assert violation_explained_by_signatures(violation, [signature])

    def test_unrelated_signature_does_not_explain(self, core_design):
        program = [isa.encode("DIV", rd=3, rs1=1, rs2=2)]
        violation = check_sc_safe(
            core_design, program, ["arf_w1"], {"arf_w2": 3}, secret_values=(1, 128)
        )
        signature = LeakageSignature(
            transponder="LW",
            src="LSQ",
            destinations=(frozenset({"LSQ"}),),
            inputs=(),
        )
        assert not violation_explained_by_signatures(violation, [signature])
