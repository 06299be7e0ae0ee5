"""Simulator tests: compiled semantics, reset overrides, retire maps, VCD."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc.enumerative import Context, ProductFamily, simulate_context
from repro.rtl import Module, elaborate, mux
from repro.sim import Simulator, trace_to_vcd

from repro.fuzz.gen import MASK, build_random_expr


class TestCounter:
    def _counter(self):
        m = Module("c")
        en = m.input("en", 1)
        c = m.reg("count", 4, reset=0)
        c.next = mux(en, c.q + 1, c.q)
        m.name_signal("value", c.q)
        return elaborate(m)

    def test_counts(self):
        sim = Simulator(self._counter())
        values = [sim.step({"en": 1})["value"] for _ in range(5)]
        assert values == [0, 1, 2, 3, 4]

    def test_enable_gates(self):
        sim = Simulator(self._counter())
        sim.step({"en": 1})
        sim.step({"en": 0})
        assert sim.step({"en": 0})["value"] == 1

    def test_wraps(self):
        sim = Simulator(self._counter())
        for _ in range(16):
            sim.step({"en": 1})
        assert sim.step({"en": 1})["value"] == 0

    def test_reset_restores(self):
        sim = Simulator(self._counter())
        sim.step({"en": 1})
        sim.step({"en": 1})
        sim.reset()
        assert sim.step({"en": 0})["value"] == 0
        assert sim.cycle == 1

    def test_reset_overrides(self):
        sim = Simulator(self._counter())
        sim.reset({"count": 9})
        assert sim.step({"en": 0})["value"] == 9

    def test_out_of_width_override_raises(self):
        # the compiled step is exact only for values that fit their
        # widths, so what a run sets once is checked (DESIGN §5m)
        sim = Simulator(self._counter())
        for value in (16, -1):
            with pytest.raises(ValueError, match="does not fit in 4 bits"):
                sim.reset({"count": value})
        sim.reset({"count": 15})
        assert sim.step({"en": 0})["value"] == 15

    def test_out_of_width_script_step_raises(self):
        netlist = self._counter()
        with pytest.raises(ValueError, match="en = 2 does not fit in 1 bits"):
            simulate_context(Simulator(netlist), Context.make({}, [{"en": 1}, {"en": 2}]))
        with pytest.raises(ValueError, match="en = 2 does not fit in 1 bits"):
            ProductFamily(netlist, [{"en": 0}, {"en": 2}], 2).distinct_views()

    def test_reset_override_unknown_register(self):
        sim = Simulator(self._counter())
        with pytest.raises(KeyError):
            sim.reset({"nope": 1})

    def test_unknown_input_rejected(self):
        sim = Simulator(self._counter())
        with pytest.raises(KeyError):
            sim.step({"bogus": 1})

    def test_missing_inputs_default_zero(self):
        sim = Simulator(self._counter())
        assert sim.step({})["value"] == 0

    def test_step_tuple_matches_step(self):
        n = self._counter()
        s1, s2 = Simulator(n), Simulator(n)
        for _ in range(4):
            obs = s1.step({"en": 1})
            row = s2.step_tuple({"en": 1})
            assert obs == dict(zip(s2.observable_names, row))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), a=st.integers(0, MASK), b=st.integers(0, MASK))
def test_random_expression_matches_reference(seed, a, b):
    m, _node, ref = build_random_expr(seed)
    sim = Simulator(elaborate(m))
    obs = sim.step({"a": a, "b": b})
    expected = ref(a, b) & MASK
    assert obs["out"] == expected
    assert obs["red_or"] == int(expected != 0)
    assert obs["red_and"] == int(expected == MASK)


class TestTraceAndVcd:
    NAMES = ["sig", "bus"]
    CYCLES = [{"sig": 0, "bus": 3}, {"sig": 1, "bus": 3}, {"sig": 1, "bus": 7}]

    def test_vcd_structure(self):
        vcd = trace_to_vcd(self.NAMES, self.CYCLES)
        assert "$enddefinitions" in vcd
        assert "$var wire" in vcd
        assert vcd.count("#") >= 3  # timestamps

    def test_vcd_only_changes_emitted(self):
        vcd = trace_to_vcd(self.NAMES, self.CYCLES)
        # bus changes at cycles 0 and 2 only: two b-value lines
        assert sum(1 for line in vcd.splitlines() if line.startswith("b")) == 2

    def test_vcd_width_override(self):
        vcd = trace_to_vcd(self.NAMES, self.CYCLES, widths={"bus": 8})
        assert "$var wire 8" in vcd


class TestRetireTimestamps:
    """Per-instruction retire accounting via ``ProgramRun.retire``: the
    cycle each PC shows on the commit port, read off the recorded rows
    too."""

    @pytest.fixture(scope="class")
    def core(self):
        from repro.designs import build_core

        design = build_core()
        return design, Simulator(design.netlist)

    def _run(self, core, program):
        from repro.designs import run_program

        _, sim = core
        return run_program(sim, program, record_trace=True)

    def test_back_to_back_alu_retires_every_cycle(self, core):
        from repro.designs import isa, slot_pc

        program = [
            isa.encode("ADDI", rd=1, rs1=0, rs2=1),
            isa.encode("ADDI", rd=2, rs1=0, rs2=2),
            isa.encode("ADDI", rd=3, rs1=0, rs2=3),
        ]
        run = self._run(core, program)
        times = run.retire
        cycles = [times[slot_pc(slot)] for slot in range(3)]
        # independent ALU ops stream through: one commit per cycle
        assert cycles == [cycles[0], cycles[0] + 1, cycles[0] + 2]
        trace = run.trace
        assert [t for t in range(trace.horizon) if trace.bit("commit_fire", t)] == cycles
        assert [trace.word("commit_pc", t) for t in cycles] == [slot_pc(s) for s in range(3)]

    def test_raw_stall_delays_consumer_retire(self, core):
        from repro.designs import isa, slot_pc

        dep = [
            isa.encode("ADDI", rd=1, rs1=0, rs2=7),
            isa.encode("DIV", rd=2, rs1=1, rs2=1),  # RAW on x1
        ]
        indep = [
            isa.encode("ADDI", rd=1, rs1=0, rs2=7),
            isa.encode("DIV", rd=2, rs1=3, rs2=3),  # no dependence
        ]
        gap_dep = (lambda t: t[slot_pc(1)] - t[slot_pc(0)])(
            self._run(core, dep).retire
        )
        gap_indep = (lambda t: t[slot_pc(1)] - t[slot_pc(0)])(
            self._run(core, indep).retire
        )
        # the dependent divide waits in ID for the ADDI to commit
        assert gap_dep > gap_indep

    def test_flushed_instruction_never_retires(self, core):
        from repro.designs import isa, slot_pc

        program = [
            isa.encode("ADDI", rd=1, rs1=0, rs2=3),
            isa.encode("BEQ", rs1=0, rs2=0),  # taken: flushes younger
            isa.encode("ADDI", rd=2, rs1=0, rs2=5),
        ]
        run = self._run(core, program)
        times = run.retire
        assert slot_pc(0) in times
        assert slot_pc(1) in times  # the branch itself commits
        assert slot_pc(2) not in times  # the squashed ADDI never does
        assert run.arf[2] == 0
