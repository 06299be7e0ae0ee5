"""Co-simulation: the pipelined core vs an architectural golden model.

Random straight-line programs (no control flow, so every instruction
commits) run on the core; the final architectural state (ARF + memory)
must match an instruction-at-a-time reference interpreter.  This checks
the datapath, hazard handling, scoreboard write-back, store-buffer
draining, and store-to-load ordering all at once.

The reference interpreter and the program-to-quiescence runner live in
:mod:`repro.designs.harness` (they are shared with the fuzz and perf
oracles); this suite exercises them against the default 8-bit core.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.designs import (
    STRAIGHT_LINE_POOL,
    build_core,
    golden_model,
    isa,
    run_program,
    sample_sequence,
)
from repro.designs.core import CoreConfig
from repro.designs.harness import _word_positions
from repro.designs.variants import build_cva6_mul
from repro.rtl import Module, elaborate
from repro.sim import Simulator

MEM_WORDS = 4


@pytest.fixture(scope="module")
def cosim_design():
    return build_core()


@pytest.fixture(scope="module")
def cosim_sim(cosim_design):
    return Simulator(cosim_design.netlist)


program_strategy = st.lists(
    st.tuples(
        st.sampled_from(STRAIGHT_LINE_POOL),
        st.integers(0, 7),  # rd
        st.integers(0, 7),  # rs1
        st.integers(0, 7),  # rs2/imm
    ),
    min_size=1,
    max_size=5,
)
arf_strategy = st.tuples(*([st.just(0)] + [st.integers(0, 255)] * 7))


@settings(max_examples=40, deadline=None)
@given(prog=program_strategy, arf_init=arf_strategy)
def test_random_programs_match_golden_model(cosim_design, cosim_sim, prog, arf_init):
    program = [isa.encode(name, rd=rd, rs1=rs1, rs2=rs2) for name, rd, rs1, rs2 in prog]
    run = run_program(cosim_sim, program, list(arf_init))
    want_arf, want_mem = golden_model(program, list(arf_init))
    assert run.arf == want_arf, (prog, arf_init)
    assert run.mem == want_mem, (prog, arf_init)


def test_seeded_sequences_match_golden_model(cosim_design, cosim_sim):
    """The fuzz/perf sequence sampler agrees with the reference too."""
    for seed in range(25):
        program, arf_init = sample_sequence(seed)
        run = run_program(cosim_sim, program, arf_init)
        want_arf, want_mem = golden_model(program, arf_init)
        assert run.arf == want_arf, seed
        assert run.mem == want_mem, seed


@pytest.mark.parametrize("build, xlen", [
    (lambda: build_core(CoreConfig(xlen=4)), 4),
    (build_core, 8),
    (build_cva6_mul, 8),
], ids=["core-xlen4", "core-xlen8", "cva6-mul"])
def test_program_run_reads_the_state_dict_words(build, xlen):
    sim = Simulator(build().netlist)
    checked = 0
    for seed in range(40):
        program, arf_init = sample_sequence(seed, xlen=xlen)
        if sum(isa.decode(word).spec.cls == "store" for word in program) > 1:
            continue  # steer clear of the store -> load -> store deadlock
        run = run_program(sim, program, arf_init)
        state = sim.state_dict()
        arf = sorted(name for name in state if name.startswith("arf_w"))
        mem = sorted(name for name in state if name.startswith("amem_w"))
        assert run.arf == [state["arf_w%d" % i] for i in range(len(arf))]
        assert run.mem == [state["amem_w%d" % i] for i in range(len(mem))]
        checked += 1
    assert checked >= 10


def test_word_positions_follow_the_numeric_suffix():
    m = Module("words")
    order = [10, 2, 9, 0, 11, 1]
    for i in order:
        reg = m.reg("arf_w%d" % i, 4)
        reg.next = reg.q
    mem = m.reg("amem_w0", 4)
    mem.next = mem.q
    netlist = elaborate(m)
    names = [reg.name for reg, _ in netlist.registers]
    arf, amem = _word_positions(netlist)
    assert [names[i] for i in arf] == ["arf_w%d" % i for i in sorted(order)]
    assert [names[i] for i in amem] == ["amem_w0"]


class TestDirectedCosim:
    def test_dependent_chain(self, cosim_design, cosim_sim):
        program = [
            isa.encode("ADDI", rd=1, rs1=0, rs2=5),
            isa.encode("ADD", rd=2, rs1=1, rs2=1),
            isa.encode("MUL", rd=3, rs1=2, rs2=1),
            isa.encode("DIVU", rd=4, rs1=3, rs2=2),
        ]
        run = run_program(cosim_sim, program, [0] * 8)
        assert run.arf[1] == 5 and run.arf[2] == 10
        assert run.arf[3] == 50 and run.arf[4] == 5

    def test_store_then_load_roundtrip(self, cosim_design, cosim_sim):
        program = [
            isa.encode("SW", rs1=1, rs2=2),  # mem[(r1+2)%4] = r2
            isa.encode("LW", rd=3, rs1=1, rs2=2),  # r3 = same word
        ]
        run = run_program(cosim_sim, program, [0, 1, 0x77, 0, 0, 0, 0, 0])
        assert run.arf[3] == 0x77
        assert run.mem[(1 + 2) % MEM_WORDS] == 0x77

    def test_two_stores_drain_in_order(self, cosim_design, cosim_sim):
        program = [
            isa.encode("SW", rs1=0, rs2=1),  # mem[1] = r1
            isa.encode("SW", rs1=0, rs2=1),  # mem[1] = r1 again (same addr)
            isa.encode("ADDI", rd=1, rs1=0, rs2=7),
        ]
        run = run_program(cosim_sim, program, [0, 0x21] + [0] * 6)
        assert run.mem[1] == 0x21
        assert run.arf[1] == 7

    def test_retire_map_covers_every_instruction(self, cosim_design, cosim_sim):
        program, arf_init = sample_sequence(7, min_len=4, max_len=6)
        run = run_program(cosim_sim, program, arf_init)
        assert len(run.retire) == len(program)
        assert sorted(run.retire.values()) == list(run.retire.values())
