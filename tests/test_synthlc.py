"""SynthLC integration tests: transmitter typing and leakage signatures.

One session-scoped classification run over a reduced scope (LW / SW / DIVU
as transponders; SW / LW / DIVU / BEQ as transmitters) backs the
assertions; they mirror the paper's headline CVA6 findings (SS VII-A1).
"""

import pytest

from repro.designs import ContextFamilyConfig, CoreContextProvider
from repro.core.synthlc import SynthLC, instrument_design

TAINT_FAMILY = ContextFamilyConfig(
    horizon=44,
    neighbors=("DIV", "SW", "LW"),
    iuv_values=(0, 1, 255),
    neighbor_values=(0, 1, 2, 255),
    instrumented=True,
)


@pytest.fixture(scope="session")
def synthlc_result(core_design, mupath_tool, mupath_lw, mupath_divu):
    mupath_sw = mupath_tool.synthesize("SW")
    provider = CoreContextProvider(xlen=8, config=TAINT_FAMILY)
    tool = SynthLC(core_design, provider)
    results = {"LW": mupath_lw, "DIVU": mupath_divu, "SW": mupath_sw}
    result = tool.classify(results, transmitters=["SW", "LW", "DIVU", "BEQ"])
    return result


class TestTransmitterTyping:
    def test_divu_is_intrinsic_transmitter(self, synthlc_result):
        assert "DIVU" in synthlc_result.intrinsic_transmitters

    def test_sw_and_beq_are_dynamic_transmitters(self, synthlc_result):
        assert "SW" in synthlc_result.dynamic_transmitters
        assert "BEQ" in synthlc_result.dynamic_transmitters

    def test_lw_is_younger_dynamic_transmitter(self, synthlc_result):
        # the novel SS VII-A1 channel: younger loads transmit to committed
        # stores through memory-port contention
        assert "LW" in synthlc_result.transmitters["dynamic_younger"]

    def test_no_static_transmitters_on_core(self, synthlc_result):
        # the paper finds none on the CVA6 core (no persistent uarch state
        # inside the verified scope; the front-end is black-boxed)
        assert not synthlc_result.static_transmitters

    def test_all_transponders_are_candidates(self, synthlc_result):
        assert set(synthlc_result.candidate_transponders) == {"LW", "SW", "DIVU"}


class TestSignatures:
    def _sig(self, result, name):
        matches = [s for s in result.signatures if s.name == name]
        assert matches, "missing signature %s (have %s)" % (
            name,
            [s.name for s in result.signatures],
        )
        return matches[0]

    def test_lw_issue_signature_matches_fig5(self, synthlc_result):
        # LD_issue(LD^N, ST^D_O): store-to-load page-offset stalling
        signature = self._sig(synthlc_result, "LW_issue")
        inputs = {(t.transmitter, t.ttype) for t in signature.inputs if not t.false_positive}
        assert ("SW", "dynamic_older") in inputs
        dsts = [set(d) for d in signature.destinations]
        assert any("ldFin" in d for d in dsts)
        assert any({"LSQ", "ldStall"} <= d for d in dsts)

    def test_sw_comstb_signature_is_novel_channel(self, synthlc_result):
        # ST_comSTB(ST^N, LD^D_Y): Fig. 5's fourth leakage function
        signature = self._sig(synthlc_result, "SW_comSTB")
        inputs = {(t.transmitter, t.ttype) for t in signature.inputs if not t.false_positive}
        assert ("LW", "dynamic_younger") in inputs
        dsts = [set(d) for d in signature.destinations]
        assert {"comSTB"} in dsts and any("memRq" in d for d in dsts)

    def test_divu_unit_signature_is_intrinsic(self, synthlc_result):
        signature = self._sig(synthlc_result, "DIVU_divU")
        inputs = {(t.transmitter, t.ttype) for t in signature.inputs if not t.false_positive}
        assert ("DIVU", "intrinsic") in inputs

    def test_signature_needs_two_tagged_decisions(self, synthlc_result):
        # footnote 3: every emitted signature exposes >1 observations
        for signature in synthlc_result.signatures:
            assert signature.output_range >= 2

    def test_render_shape(self, synthlc_result):
        text = self._sig(synthlc_result, "LW_issue").render()
        assert text.startswith("dst LW_issue(")
        assert "->" in text

    def test_stats_accumulated(self, synthlc_result):
        assert synthlc_result.stats.count > 100
        assert synthlc_result.stats.undetermined_fraction == 0.0


class TestInstrumentDesign:
    def test_blocks_arf_and_amem(self, core_design):
        design = instrument_design(core_design)
        blocked = design.config.blocked_registers
        assert "arf_w1" in blocked and "amem_w0" in blocked

    def test_introduce_map_targets_operand_registers(self, core_design):
        design = instrument_design(core_design)
        assert design.config.introduce_map == {
            "iss_rs1v": "intro_cond_rs1",
            "iss_rs2v": "intro_cond_rs2",
        }

    def test_extra_persistent_registers(self, core_design):
        design = instrument_design(core_design, extra_persistent=["fetch_pc"])
        assert "fetch_pc" in design.config.persistent_registers
