"""Co-simulation: the pipelined core vs an architectural golden model.

Random straight-line programs (no control flow, so every instruction
commits) run on the core; the final architectural state (ARF + memory)
must match an instruction-at-a-time reference interpreter.  This checks
the datapath, hazard handling, scoreboard write-back, store-buffer
draining, and store-to-load ordering all at once.

The reference interpreter and the program-to-quiescence runner live in
:mod:`repro.designs.harness` (they are shared with the fuzz and perf
oracles); this suite exercises them against the default 8-bit core.
``run_program`` steps a slice of the core that observes only what its
loop reads (DESIGN §5q); :func:`reference_run` keeps the loop that steps
the whole core, and the parity tests below hold the two equal.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.designs import (
    STRAIGHT_LINE_POOL,
    build_core,
    golden_model,
    harness,
    isa,
    run_program,
    sample_sequence,
)
from repro.designs.core import CoreConfig
from repro.designs.harness import ProgramRun, _word_positions
from repro.designs.variants import build_cva6_mul, build_fixed_core
from repro.props import ConcreteTraceView
from repro.rtl import Module, Netlist, coi, elaborate
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


def reference_run(sim, program, arf_init=None, *, max_cycles=4000, record_trace=False):
    """``run_program``'s reference: ``sim`` itself, the whole core, stepped
    through ``step_tuple`` with an input dict per cycle, every row kept
    when ``record_trace``; ``sim.state`` is the run's final state
    afterwards."""
    overrides = {}
    if arf_init is not None:
        overrides = {"arf_w%d" % i: v for i, v in enumerate(arf_init) if i}
    sim.reset(overrides)
    program = list(program)
    retire = {}
    rows = []
    i_ready = sim.observable_index("fetch_ready")
    i_quiesce = sim.observable_index("pipe_quiesce")
    i_fire = sim.observable_index("commit_fire")
    i_pc = sim.observable_index("commit_pc")
    ptr = 0
    last_accept = -1
    cycles = None
    for t in range(max_cycles):
        inputs = None
        if ptr < len(program):
            inputs = {"in_valid": 1, "in_instr": program[ptr]}
        obs = sim.step_tuple(inputs)
        rows.append(obs)
        if ptr < len(program) and obs[i_ready]:
            ptr += 1
            last_accept = t
        if obs[i_fire]:
            retire.setdefault(obs[i_pc], t)
        if ptr >= len(program) and t > last_accept and obs[i_quiesce]:
            cycles = t
            break
    if cycles is None:
        raise RuntimeError("program did not quiesce within %d cycles" % max_cycles)
    arf_positions, mem_positions = _word_positions(sim.netlist)
    return ProgramRun(
        arf=[sim.state[i] for i in arf_positions],
        mem=[sim.state[i] for i in mem_positions],
        cycles=cycles,
        retire=retire,
        trace=ConcreteTraceView(rows, names=sim.observable_names) if record_trace else None,
    )


CORES = {
    "core-xlen4": (lambda: build_core(CoreConfig(xlen=4)), 4),
    "core-xlen8": (build_core, 8),
    "cva6-mul": (build_cva6_mul, 8),
    "fixed": (build_fixed_core, 8),
}


def _outcome(run, sim, program, arf_init, record_trace=False):
    """What a run returns, or the message it raised.  Not quiescing is one
    outcome: ``run_program`` raises at the cycle that would repeat forever,
    :func:`reference_run` after its 4,000 cycles."""
    try:
        got = run(sim, program, arf_init, record_trace=record_trace)
    except RuntimeError as exc:
        message = str(exc)
        return "did not quiesce" if message.startswith("program did not quiesce") else message
    trace = (got.trace.names, got.trace.cycles) if record_trace else None
    return got.cycles, got.retire, got.arf, got.mem, trace


def _first_mismatch(core, seeds, record_trace=False):
    """The first seed whose ``sample_sequence`` program runs differently
    on ``run_program`` and on :func:`reference_run`, or None."""
    build, xlen = CORES[core]
    sim = Simulator(build().netlist)
    for seed in seeds:
        program, arf_init = sample_sequence(seed, xlen=xlen)
        if _outcome(run_program, sim, program, arf_init, record_trace) != _outcome(
            reference_run, sim, program, arf_init, record_trace
        ):
            return seed
    return None


@pytest.mark.parametrize("core", sorted(CORES))
def test_sliced_runs_match_the_full_core(core):
    """Cycles, retire maps, ARF and memory words, or the raise, over 300
    seeded programs, store -> load -> store ones included."""
    assert _first_mismatch(core, range(300)) is None


@pytest.mark.parametrize("core", sorted(CORES))
def test_recorded_traces_match_the_full_core(core):
    assert _first_mismatch(core, range(40), record_trace=True) is None


@pytest.mark.parametrize("core", sorted(CORES))
@pytest.mark.parametrize("names", [("SB", "LW", "SW"), ("SW", "LW", "SW")])
def test_store_load_store_quiesces(core, names):
    """A stalled load waits on older stores only: the younger store at
    its offset cannot commit before it, so waiting on that store would
    never end."""
    build, _ = CORES[core]
    sim = Simulator(build().netlist)
    program = [isa.encode(name) for name in names]
    run = run_program(sim, program, [0] * 8)
    assert (run.arf, run.mem) == golden_model(program, [0] * 8)


def _without_younger_store_bits(netlist):
    """``netlist`` with every ``sstb*_yng`` bit held at its reset value 0,
    so the stalled load's matcher sees the younger stores again."""
    return Netlist(
        netlist.name, netlist.order, netlist.inputs,
        [(reg, reg.q if reg.name.endswith("_yng") else nxt) for reg, nxt in netlist.registers],
        netlist.named, netlist.outputs,
    )


def test_a_run_that_never_quiesces_raises_on_both_loops():
    """The store -> load -> store deadlock, planted back: all three words
    are accepted, and from cycle 8 on the core steps to its own state with
    ``pipe_quiesce`` low, so ``run_program`` raises at cycle 9."""
    netlist = _without_younger_store_bits(build_core(CoreConfig(xlen=4)).netlist)
    sim = Simulator(netlist)
    program = [isa.encode(name) for name in ("SB", "LW", "SW")]
    for record_trace in (False, True):
        with pytest.raises(RuntimeError, match="cycle 9 repeats cycle 8 forever"):
            run_program(sim, program, [0] * 8, record_trace=record_trace)
    with pytest.raises(RuntimeError, match="did not quiesce within 4000 cycles"):
        reference_run(sim, program, [0] * 8)


def test_planted_slice_dropping_a_word_is_caught(monkeypatch):
    real = coi.observed_netlist

    def dropping(netlist, names):
        sliced = real(netlist, names)
        return Netlist(
            sliced.name, sliced.order, sliced.inputs,
            [(reg, nxt) for reg, nxt in sliced.registers if reg.name != "arf_w3"],
            sliced.named, sliced.outputs,
        )

    monkeypatch.setattr(coi, "observed_netlist", dropping)
    sim = Simulator(build_core(CoreConfig(xlen=4)).netlist)
    program, arf_init = sample_sequence(0, xlen=4)
    with pytest.raises(ValueError, match="drops arf_w3"):
        run_program(sim, program, arf_init)


def test_out_of_width_arf_value_raises():
    sim = Simulator(build_core(CoreConfig(xlen=4)).netlist)
    program = [isa.encode("ADD", rd=3, rs1=1, rs2=2)]
    with pytest.raises(ValueError, match="arf_w2 = 16 does not fit in 4 bits"):
        run_program(sim, program, [0, 1, 16])
    assert run_program(sim, program, [0, 1, 15]).arf[3] == 0


def test_planted_misplaced_instruction_input_is_caught(monkeypatch):
    real = harness._RunPlan.feeds

    def misplaced(plan, program):
        i = plan.instr
        return [
            feed[:i] + (feed[i + 1], feed[i]) + feed[i + 2:]
            for feed in real(plan, program)
        ]

    monkeypatch.setattr(harness._RunPlan, "feeds", misplaced)
    assert _first_mismatch("core-xlen4", range(300)) is not None


@pytest.mark.parametrize("build, xlen", [
    (lambda: build_core(CoreConfig(xlen=4)), 4),
    (build_core, 8),
    (build_cva6_mul, 8),
], ids=["core-xlen4", "core-xlen8", "cva6-mul"])
def test_program_run_reads_the_state_dict_words(build, xlen):
    """The words a run returns are the full core's final registers of
    those names, read from the reference run's ``state_dict()``."""
    sim = Simulator(build().netlist)
    checked = 0
    for seed in range(40):
        program, arf_init = sample_sequence(seed, xlen=xlen)
        if sum(isa.decode(word).spec.cls == "store" for word in program) > 1:
            continue  # steer clear of the store -> load -> store deadlock
        run = run_program(sim, program, arf_init)
        reference_run(sim, program, arf_init)
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
