"""Verification contexts for the case-study cores.

RTL2MuPATH explores an instruction under verification (IUV) "in all
reachable contexts ... preceded/followed by an arbitrary number of valid
instructions" (SS V-B).  The paper's artifact makes this tractable with
*restricted execution assumptions* (Appendix I-F/G: the DIV experiment
issues the IUV right after reset and surrounds it with instructions drawn
from a small set).  This module provides the equivalent machinery for our
enumerative engine: program contexts whose scripts feed instruction
streams through the fetch handshake, and context-family generators that
sweep

* the IUV's operand values (covering every divider-latency class, both
  multiplier zero-skip arms, all page-offset relations, taken and
  not-taken branch outcomes, aligned and misaligned targets), and
* neighbouring transmitter instructions before/after the IUV.

Families report whether they were truncated so negative verdicts degrade
to UNDETERMINED exactly like a resource-limited model checker.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..mc.enumerative import Context, drive
from ..props.views import ConcreteTraceView
from ..sim.simulator import check_width, compiled
from . import isa

__all__ = [
    "TaintSpec",
    "program_context",
    "ContextFamilyConfig",
    "ContextGroup",
    "CoreContextProvider",
    "FIRST_PC",
    "slot_pc",
    "STRAIGHT_LINE_POOL",
    "OPERAND_CLASSES",
    "golden_model",
    "golden_steps",
    "GoldenStep",
    "ProgramRun",
    "program_trace",
    "run_program",
    "sample_operand",
    "sample_sequence",
]

FIRST_PC = 4  # fetch_pc reset value: the first accepted instruction's PC


def slot_pc(slot: int) -> int:
    """IID (PC) of the ``slot``-th accepted instruction."""
    return FIRST_PC + 4 * slot


@dataclass(frozen=True)
class TaintSpec:
    """Taint targeting for SynthLC runs (ignored on uninstrumented DUVs)."""

    pc: int
    rs1: bool = False
    rs2: bool = False


def taint_inputs(taint: Optional[TaintSpec], instrumented: bool) -> Dict[str, int]:
    """The taint constants, which a context holds on every cycle."""
    inputs: Dict[str, int] = {}
    if taint is not None:
        inputs.update(taint_pc=taint.pc, taint_rs1=int(taint.rs1), taint_rs2=int(taint.rs2))
    if instrumented:
        inputs.update(taint_intro=1, taint_flush=0)
    return inputs


def program_context(
    script: Sequence[tuple],
    overrides: Optional[Dict[str, int]] = None,
    *,
    horizon: int,
    taint: Optional[TaintSpec] = None,
    instrumented: bool = False,
    label: str = "",
) -> Context:
    """The core context running ``script`` from reset with ``overrides``.

    Script items: ``("feed", (word, ...))`` drives each word on the fetch
    port until ``fetch_ready`` accepts it; ``("wait_quiesce",)`` idles
    until a cycle of its own shows ``pipe_quiesce``, so for at least one
    cycle; ``("flush",)`` pulses ``taint_flush`` for one cycle
    (Assumption 3; an idle cycle when not instrumented); ``("idle", n)``
    idles for ``n`` cycles.  An unknown item raises ValueError.
    """
    steps, idle = _program_script(tuple(script), taint, instrumented)
    return Context(tuple(sorted((overrides or {}).items())), steps, horizon, idle, label)


@lru_cache(maxsize=1024)
def _program_script(script: tuple, taint: Optional[TaintSpec], instrumented: bool):
    """The ``(script, idle)`` pair of :func:`program_context`, built once
    per distinct program: a context family sweeps operand overrides over
    a few programs."""
    steps = []
    for item in script:
        kind = item[0]
        if kind == "feed":
            steps += [({"in_valid": 1, "in_instr": word}, "fetch_ready") for word in item[1]]
        elif kind == "wait_quiesce":
            steps.append(({}, "pipe_quiesce"))
        elif kind == "flush":
            steps.append(({"taint_flush": 1} if instrumented else {}, None))
        elif kind == "idle":
            steps += [({}, None)] * item[1]
        else:
            raise ValueError("unknown script item %r" % (item,))
    built = Context.scripted({}, steps, 0, idle=taint_inputs(taint, instrumented))
    return built.script, built.idle


# ------------------------------------------------------- program execution
#
# Shared straight-line program machinery: the cosim suite, the assembler
# tests, and the perf oracle all run seeded instruction sequences against
# the core and compare with the architectural reference below.

# straight-line instruction pool (no branches/jumps/system: all commit)
STRAIGHT_LINE_POOL: Tuple[str, ...] = (
    "ADD", "SUB", "XOR", "OR", "AND", "SLT", "SLTU", "SLL", "SRL",
    "ADDI", "XORI", "ORI", "ANDI", "SLTI", "SLLI", "SRLI",
    "LUI", "AUIPC", "CSRRW", "CSRRWI", "FENCE",
    "MUL", "MULH", "MULW",
    "DIV", "DIVU", "REM", "REMU",
    "LW", "LB", "LHU",
    "SW", "SB",
)


@dataclass(frozen=True)
class GoldenStep:
    """One retired instruction in the architectural reference execution."""

    slot: int
    pc: int
    name: str
    cls: str
    rd: int
    rs1: int
    rs2: int
    imm: int
    a: int  # rs1 operand value (0 when unread)
    b: int  # rs2 operand value (0 when unread)
    result: Optional[int]
    addr: Optional[int]  # load/store effective address


def golden_steps(
    program: Sequence[int],
    arf_init: Sequence[int],
    *,
    xlen: int = 8,
    mem_words: int = 4,
    pc_bits: int = 8,
) -> Tuple[List[GoldenStep], List[int], List[int]]:
    """Instruction-at-a-time reference execution of a straight-line program.

    Returns ``(steps, arf, mem)``.  Only the straight-line classes (the
    instructions in :data:`STRAIGHT_LINE_POOL`) are supported: with no
    control flow every instruction commits, so sequential semantics are
    exactly the core's architectural semantics.
    """
    mask = (1 << xlen) - 1
    half = 1 << (xlen - 1)
    arf = [v & mask for v in arf_init]
    mem = [0] * mem_words
    steps: List[GoldenStep] = []

    def signed(x):
        return x - (1 << xlen) if x >= half else x

    for slot, word in enumerate(program):
        instr = isa.decode(word)
        spec = instr.spec
        pc = slot_pc(slot) & ((1 << pc_bits) - 1)
        a = arf[instr.rs1] if spec.reads_rs1 else 0
        b = arf[instr.rs2] if spec.reads_rs2 else 0
        imm = instr.imm
        result = None
        addr = None
        if spec.cls == "alu":
            operand_b = imm if spec.alu_op in (
                "addi", "slti", "xori", "ori", "andi", "slli", "srli"
            ) else b
            op = spec.alu_op
            if op in ("add", "addi"):
                result = (a + operand_b) & mask
            elif op == "sub":
                result = (a - operand_b) & mask
            elif op in ("xor", "xori"):
                result = a ^ operand_b
            elif op in ("or", "ori"):
                result = a | operand_b
            elif op in ("and", "andi"):
                result = a & operand_b
            elif op in ("slt", "slti"):
                result = int(signed(a) < signed(operand_b))
            elif op == "sltu":
                result = int(a < operand_b)
            elif op in ("sll", "slli"):
                result = (a << (operand_b & 7)) & mask
            elif op in ("srl", "srli"):
                result = a >> (operand_b & 7)
            elif op == "lui":
                result = (imm << (xlen - 4)) & mask
            elif op == "auipc":
                result = ((pc & ((1 << min(xlen, pc_bits)) - 1)) + imm) & mask
            elif op == "csr":
                result = a
            elif op == "csri":
                result = imm
            elif op == "nop":
                result = 0
        elif spec.cls == "mul":
            result = (a * b) & mask
        elif spec.cls == "div":
            # the scaled core computes all div/rem variants unsigned
            if b == 0:
                q, r = mask, a
            else:
                q, r = a // b, a % b
            result = r if spec.name.startswith("REM") else q
        elif spec.cls == "load":
            addr = (a + imm) & mask
            result = mem[addr % mem_words]
        elif spec.cls == "store":
            addr = (a + imm) & mask
            mem[addr % mem_words] = b
        else:
            raise ValueError(
                "golden model only supports straight-line classes, got %s"
                % spec.name
            )
        if spec.writes_rd and instr.rd != 0 and result is not None:
            arf[instr.rd] = result
        steps.append(
            GoldenStep(
                slot=slot, pc=pc, name=spec.name, cls=spec.cls,
                rd=instr.rd, rs1=instr.rs1, rs2=instr.rs2, imm=imm,
                a=a, b=b, result=result, addr=addr,
            )
        )
    return steps, arf, mem


def golden_model(
    program: Sequence[int],
    arf_init: Sequence[int],
    *,
    xlen: int = 8,
    mem_words: int = 4,
    pc_bits: int = 8,
) -> Tuple[List[int], List[int]]:
    """Architectural reference: returns (arf, mem) after the program."""
    _, arf, mem = golden_steps(
        program, arf_init, xlen=xlen, mem_words=mem_words, pc_bits=pc_bits
    )
    return arf, mem


@dataclass
class ProgramRun:
    """One program execution on the simulated core."""

    arf: List[int]
    mem: List[int]
    cycles: int  # cycle index of the first post-program quiescent observation
    retire: Dict[int, int]  # committed PC -> commit-observation cycle
    trace: Optional[ConcreteTraceView] = None  # the whole core's rows, when recorded


# netlist -> (ARF word positions, memory word positions) in its state
# tuple, each ordered by numeric suffix; held weakly, like the compiles
_WORD_POSITIONS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _word_positions(netlist) -> Tuple[List[int], List[int]]:
    """State positions of the ``arf_w*`` and ``amem_w*`` registers."""
    positions = _WORD_POSITIONS.get(netlist)
    if positions is None:
        names = [reg.name for reg, _ in netlist.registers]

        def ordered(prefix):
            return [i for _, i in sorted(
                (int(name[len(prefix):]), i)
                for i, name in enumerate(names) if name.startswith(prefix)
            )]

        positions = _WORD_POSITIONS[netlist] = (ordered("arf_w"), ordered("amem_w"))
    return positions


# the signals run_program reads from each row
_RUN_READS = ("fetch_ready", "pipe_quiesce", "commit_fire", "commit_pc")


def _run_slice(netlist):
    """``netlist`` sliced to :data:`_RUN_READS` (DESIGN §5q).

    Raises ValueError if the slice drops an ``arf_w*`` or ``amem_w*``
    register, whose final value a run returns.
    """
    from ..rtl.coi import observed_netlist

    sliced = observed_netlist(netlist, _RUN_READS)
    kept = {reg.name for reg, _ in sliced.registers}
    lost = [
        reg.name for reg, _ in netlist.registers
        if reg.name.startswith(("arf_w", "amem_w")) and reg.name not in kept
    ]
    if lost:
        raise ValueError(
            "the slice of %s observing %s drops %s, which run_program returns"
            % (netlist.name, ", ".join(_RUN_READS), ", ".join(lost))
        )
    return sliced


class _RunPlan:
    """What :func:`run_program` steps on one netlist, and where it reads."""

    def __init__(self, netlist):
        entry = compiled(netlist)
        self.step = entry.step
        self.names = entry.observable_names
        self.index = {name: i for i, name in enumerate(self.names)}
        self.ready, self.quiesce, self.fire, self.pc = (
            self.names.index(name) for name in _RUN_READS
        )
        self.reset = tuple(reg.reset for reg, _ in netlist.registers)
        self.reg_index = {reg.name: i for i, (reg, _) in enumerate(netlist.registers)}
        self.widths = [reg.width for reg, _ in netlist.registers]
        inputs = [node.name for node in netlist.inputs]
        self.idle = (0,) * len(inputs)
        self.valid = inputs.index("in_valid")
        self.instr = inputs.index("in_instr")
        self.arf, self.mem = _word_positions(netlist)

    def feeds(self, program: Sequence[int]) -> List[tuple]:
        """Each word's input tuple: ``in_valid`` high, ``in_instr`` the word."""
        values = list(self.idle)
        values[self.valid] = 1
        out = []
        for word in program:
            values[self.instr] = word
            out.append(tuple(values))
        return out


# netlist -> {record_trace: its _RunPlan}, held weakly like the word positions
_RUN_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _run_plan(netlist, record_trace: bool) -> _RunPlan:
    plans = _RUN_PLANS.get(netlist)
    if plans is None:
        plans = _RUN_PLANS[netlist] = {}
    plan = plans.get(record_trace)
    if plan is None:
        plan = plans[record_trace] = _RunPlan(
            netlist if record_trace else _run_slice(netlist)
        )
    return plan


def _program_rows(plan: _RunPlan, program, arf_init, max_cycles: int):
    """``program``'s rows on ``plan``'s netlist and the state after them.

    The reset state with ``arf_init[i]`` in ``arf_w<i>`` for ``i > 0``
    (a value that does not fit its register raises ValueError), each
    word a script step released by ``fetch_ready``, as in
    :func:`program_context`, and the run stopped at the first
    ``pipe_quiesce`` row after the last accept (:func:`drive`).
    """
    state = plan.reset
    if arf_init is not None:
        values = list(state)
        for i, value in enumerate(arf_init):
            if i:
                name = "arf_w%d" % i
                position = plan.reg_index[name]
                check_width(name, value, plan.widths[position])
                values[position] = value
        state = tuple(values)
    script = [(feed, plan.ready) for feed in plan.feeds(program)]
    return drive(plan.step, state, script, plan.idle, max_cycles, quiesce=plan.quiesce)


def program_trace(
    netlist, program: Sequence[int], arf_init: Optional[Sequence[int]] = None,
    *, max_cycles: int = 4000,
) -> ConcreteTraceView:
    """The trace ``run_program(..., record_trace=True)`` records on
    ``netlist``, without the rest of its run: the perf model's probes
    read μPATHs from it (:func:`repro.core.mhb.extract_path`)."""
    plan = _run_plan(netlist, True)
    rows, _ = _program_rows(plan, program, arf_init, max_cycles)
    return ConcreteTraceView(rows, plan.names, plan.index)


def run_program(
    sim,
    program: Sequence[int],
    arf_init: Optional[Sequence[int]] = None,
    *,
    max_cycles: int = 4000,
    record_trace: bool = False,
) -> ProgramRun:
    """Feed ``program`` through the fetch handshake and run to quiescence.

    ``sim`` is a :class:`repro.sim.Simulator` over a core netlist; only
    its ``netlist`` is read.  The run steps that netlist's slice observing
    the four signals the run reads (DESIGN §5q), whose ARF and memory
    words are the core's, and leaves ``sim`` alone: after a run,
    ``sim.state`` is not the run's final state.  ``record_trace=True``
    steps the whole core instead and keeps its rows as ``trace``, a
    :class:`~repro.props.views.ConcreteTraceView` over the core's
    observable names.

    Each word is a script step released by ``fetch_ready``, as in
    :func:`program_context`; the run stops at the first ``pipe_quiesce``
    row after the last accept and raises RuntimeError on a cycle that
    would repeat forever instead, or after ``max_cycles``.  Per-
    instruction retire timestamps come from the commit port: the cycle
    each ``commit_pc`` is observed with ``commit_fire`` high.
    """
    plan = _run_plan(sim.netlist, record_trace)
    rows, state = _program_rows(plan, program, arf_init, max_cycles)
    fire, pc = plan.fire, plan.pc
    retire: Dict[int, int] = {}
    for t, row in enumerate(rows):
        if row[fire]:
            retire.setdefault(row[pc], t)
    return ProgramRun(
        arf=[state[i] for i in plan.arf],
        mem=[state[i] for i in plan.mem],
        cycles=len(rows) - 1,
        retire=retire,
        trace=ConcreteTraceView(rows, plan.names, plan.index) if record_trace else None,
    )


# ------------------------------------------------- seeded sequence sampling

#: operand-value classes the sequence sampler draws register inits from;
#: together they cover every divider-latency class, both multiplier
#: zero-skip arms, all low-bit page offsets, and negative (MSB-set) values
OPERAND_CLASSES: Tuple[str, ...] = (
    "zero", "one", "small", "pow2", "negative", "max", "any",
)


def sample_operand(rng: random.Random, xlen: int, classes: Sequence[str] = OPERAND_CLASSES) -> int:
    """Draw one operand value from a named value class."""
    mask = (1 << xlen) - 1
    cls = classes[rng.randrange(len(classes))]
    if cls == "zero":
        return 0
    if cls == "one":
        return 1
    if cls == "small":
        return rng.randrange(4)
    if cls == "pow2":
        return 1 << rng.randrange(xlen)
    if cls == "negative":
        return (1 << (xlen - 1)) | rng.randrange(1 << (xlen - 1))
    if cls == "max":
        return mask
    if cls == "any":
        return rng.randrange(1 << xlen)
    raise ValueError("unknown operand class %r" % cls)


def sample_sequence(
    seed: int,
    *,
    min_len: int = 1,
    max_len: int = 8,
    xlen: int = 8,
    nregs: int = 8,
    pool: Sequence[str] = STRAIGHT_LINE_POOL,
    operand_classes: Sequence[str] = OPERAND_CLASSES,
) -> Tuple[List[int], List[int]]:
    """One seeded straight-line instruction sequence with operand control.

    Returns ``(program_words, arf_init)``; deterministic in ``seed``.  The
    register file is initialized from :data:`OPERAND_CLASSES` draws (x0
    stays zero), which is what steers fuzzed sequences into every
    operand-dependent timing class of the divider, the zero-skip
    multiplier, and the store-to-load offset matcher.
    """
    rng = random.Random(seed)
    length = rng.randint(min_len, max_len)
    program = [
        isa.encode(
            pool[rng.randrange(len(pool))],
            rd=rng.randrange(nregs),
            rs1=rng.randrange(nregs),
            rs2=rng.randrange(nregs),
        )
        for _ in range(length)
    ]
    arf_init = [0] + [
        sample_operand(rng, xlen, operand_classes) for _ in range(nregs - 1)
    ]
    return program, arf_init


def default_value_set(xlen: int) -> Tuple[int, ...]:
    """Operand values covering every divider-latency class, zero/non-zero
    multiplier arms, all low-bit offsets, and a negative (MSB-set) value."""
    values = {0, 1, 2, 3}
    values.update(1 << i for i in range(xlen))
    values.add((1 << xlen) - 1)  # all-ones: negative divisor / max magnitude
    values.add((1 << (xlen - 1)) | 1)  # negative odd value
    return tuple(sorted(values))


def small_value_set(xlen: int) -> Tuple[int, ...]:
    """Reduced interferer-operand values: offset-0 / offset-match / offset-miss,
    zero / short / long divider latencies."""
    return (0, 1, 2, 3, 1 << (xlen - 1), (1 << xlen) - 1)


@dataclass(frozen=True)
class ContextFamilyConfig:
    """Knobs controlling context generation (the restriction assumptions)."""

    horizon: int = 48
    iuv_values: Optional[Tuple[int, ...]] = None  # default: default_value_set
    neighbor_values: Optional[Tuple[int, ...]] = None  # default: small_value_set
    neighbors: Tuple[str, ...] = ("ADD", "MUL", "DIV", "LW", "SW", "BEQ", "JALR", "ECALL")
    include_preceding: bool = True
    include_following: bool = True
    include_deep: bool = True  # 3/4-instruction shapes: drain & SCB-full stalls
    max_contexts: Optional[int] = None  # cap -> family marked incomplete
    instrumented: bool = False


@dataclass
class ContextGroup:
    """Contexts sharing one IUV placement (hence one IUV PC)."""

    iuv_pc: int
    contexts: List[Context]
    complete: bool
    label: str = ""
    taint_pc: Optional[int] = None  # transmitter slot PC (taint runs only)


class CoreContextProvider:
    """Context families for the CVA6-like core DUV."""

    # register allocation: IUV uses r1/r2 -> r3; neighbours use r4/r5 -> r6,
    # keeping architectural dependencies out of the picture so that all
    # observed interactions are microarchitectural channels.
    IUV_RS1, IUV_RS2, IUV_RD = 1, 2, 3
    NB_RS1, NB_RS2, NB_RD = 4, 5, 6

    def __init__(self, xlen: int, config: Optional[ContextFamilyConfig] = None):
        self.xlen = xlen
        self.config = config or ContextFamilyConfig()

    # ------------------------------------------------------------------ helpers
    def _iuv_word(self, name: str) -> int:
        return isa.encode(name, rd=self.IUV_RD, rs1=self.IUV_RS1, rs2=self.IUV_RS2)

    def _neighbor_word(self, name: str) -> int:
        return isa.encode(name, rd=self.NB_RD, rs1=self.NB_RS1, rs2=self.NB_RS2)

    def _overrides(self, v1, v2, w1, w2) -> Dict[str, int]:
        return {
            "arf_w%d" % self.IUV_RS1: v1,
            "arf_w%d" % self.IUV_RS2: v2,
            "arf_w%d" % self.NB_RS1: w1,
            "arf_w%d" % self.NB_RS2: w2,
        }

    def _context(self, script, overrides, label, taint=None) -> Context:
        return program_context(
            script, overrides, horizon=self.config.horizon, taint=taint,
            instrumented=self.config.instrumented, label=label,
        )

    # --------------------------------------------------------------- uPATH runs
    def mupath_groups(self, iuv_name: str) -> List[ContextGroup]:
        """Context groups for RTL2MuPATH's exploration of ``iuv_name``.

        Sweeps are additive rather than multiplicative: the IUV's operand
        pair is swept at representative neighbour values, and the
        neighbour's operand pair is swept at representative IUV values.
        This is the enumerative analogue of the paper artifact's restricted
        execution assumptions, and keeps each family in the low thousands
        of contexts.
        """
        cfg = self.config
        iuv_vals = cfg.iuv_values or default_value_set(self.xlen)
        nb_vals = cfg.neighbor_values or small_value_set(self.xlen)
        iuv_reps = (iuv_vals[0], iuv_vals[len(iuv_vals) // 2], iuv_vals[-1])
        nb_reps = (nb_vals[0], nb_vals[len(nb_vals) // 2])
        iuv_word = self._iuv_word(iuv_name)
        groups: List[ContextGroup] = []

        def build_group(slot, cases, label):
            contexts = []
            truncated = False
            for program, v1, v2, w1, w2, case_label in cases:
                if cfg.max_contexts and len(contexts) >= cfg.max_contexts:
                    truncated = True
                    break
                contexts.append(
                    self._context(
                        [("feed", tuple(program))],
                        self._overrides(v1, v2, w1, w2),
                        "%s %s v=(%d,%d) w=(%d,%d)" % (label, case_label, v1, v2, w1, w2),
                    )
                )
            return ContextGroup(
                iuv_pc=slot_pc(slot),
                contexts=contexts,
                complete=not truncated,
                label=label,
            )

        def neighbor_cases(make_program, tag):
            cases = []
            for nb in cfg.neighbors:
                nb_word = self._neighbor_word(nb)
                program = make_program(nb_word)
                # IUV operand sweep at representative neighbour values
                for w1, w2 in itertools.product(nb_reps, repeat=2):
                    for v1, v2 in itertools.product(iuv_vals, iuv_vals):
                        cases.append((program, v1, v2, w1, w2, "%s-%s" % (tag, nb)))
                # neighbour operand sweep at representative IUV values
                for v1, v2 in itertools.product(iuv_reps, repeat=2):
                    for w1, w2 in itertools.product(nb_vals, nb_vals):
                        cases.append((program, v1, v2, w1, w2, "%s-%s" % (tag, nb)))
            return cases

        cases = [
            ((iuv_word,), v1, v2, 0, 0, "solo")
            for v1, v2 in itertools.product(iuv_vals, iuv_vals)
        ]
        groups.append(build_group(0, cases, "solo"))
        if cfg.include_preceding:
            cases = neighbor_cases(lambda nb_word: (nb_word, iuv_word), "after")
            groups.append(build_group(1, cases, "preceded"))
        if cfg.include_following:
            cases = neighbor_cases(lambda nb_word: (iuv_word, nb_word), "before")
            groups.append(build_group(0, cases, "followed"))
        if cfg.include_deep:
            # (IUV, NB, NB') -- surfaces port-contention drain stalls for
            # committed stores (the ST_comSTB channel needs two younger
            # memory instructions in flight)
            contexts = []
            truncated = False
            for nb in cfg.neighbors:
                nb_word = self._neighbor_word(nb)
                nb2_word = isa.encode(nb, rd=0, rs1=7, rs2=7)
                for w1 in nb_vals:
                    for u in nb_vals:
                        for v1, v2 in ((iuv_reps[0], iuv_reps[1]), (iuv_reps[1], iuv_reps[0])):
                            if cfg.max_contexts and len(contexts) >= cfg.max_contexts:
                                truncated = True
                                break
                            overrides = self._overrides(v1, v2, w1, nb_reps[0])
                            overrides["arf_w7"] = u
                            contexts.append(
                                self._context(
                                    [("feed", (iuv_word, nb_word, nb2_word))],
                                    overrides,
                                    "deep2-%s v=(%d,%d) w=(%d) u=%d" % (nb, v1, v2, w1, u),
                                )
                            )
            groups.append(
                ContextGroup(iuv_pc=slot_pc(0), contexts=contexts,
                             complete=not truncated, label="deep2")
            )
            # (NB, FILL, FILL, IUV) -- fills the scoreboard behind a
            # long-latency transmitter so the IUV stalls in ID (SS VII-A1
            # "All": 1-to-68-cycle ID stalls as a function of DIV operands)
            fill_word = isa.encode("ADD", rd=0, rs1=0, rs2=0)
            cases = []
            for nb in cfg.neighbors:
                nb_word = self._neighbor_word(nb)
                for w1, w2 in itertools.product(nb_vals, nb_vals):
                    for v1, v2 in ((iuv_reps[0], iuv_reps[1]), (iuv_reps[-1], iuv_reps[0])):
                        cases.append(
                            (
                                (nb_word, fill_word, fill_word, iuv_word),
                                v1,
                                v2,
                                w1,
                                w2,
                                "scbfull-%s" % nb,
                            )
                        )
            groups.append(build_group(3, cases, "scbfull"))
        return groups

    # --------------------------------------------------------------- taint runs
    def taint_groups(
        self,
        transponder: str,
        transmitter: str,
        assumption: str,  # "intrinsic" | "dynamic_older" | "dynamic_younger" | "static"
        operand: str,  # "rs1" | "rs2"
    ) -> List[ContextGroup]:
        """Context groups for one SynthLC symbolic-IFT classification run.

        Taint is introduced at ``transmitter``'s ``operand`` register under
        the given typing assumption (Fig. 7); the caller's cover property
        then asks whether ``transponder``'s decision destinations become
        tainted.
        """
        cfg = self.config
        iuv_vals = cfg.iuv_values or default_value_set(self.xlen)
        nb_vals = cfg.neighbor_values or small_value_set(self.xlen)
        p_word = self._iuv_word(transponder)
        taint_rs1 = operand == "rs1"
        taint_rs2 = operand == "rs2"
        groups: List[ContextGroup] = []

        iuv_reps = (iuv_vals[0], iuv_vals[len(iuv_vals) // 2], iuv_vals[-1])
        nb_reps = (nb_vals[0], nb_vals[len(nb_vals) // 2])

        def collect(slot, t_slot, script_fn, label, extra_r7=False):
            contexts = []
            truncated = False
            taint = TaintSpec(pc=slot_pc(t_slot), rs1=taint_rs1, rs2=taint_rs2)
            # additive sweep: transmitter operands get the full sweep (they
            # introduce the taint), transponder operands only representative
            # values (enough to trigger each decision arm)
            cases = []
            for w1, w2 in itertools.product(nb_reps, nb_reps):
                for v1, v2 in itertools.product(iuv_reps, iuv_reps):
                    cases.append((v1, v2, w1, w2, 0))
            for v1, v2 in ((iuv_reps[0], iuv_reps[1]), (iuv_reps[-1], iuv_reps[0])):
                for w1, w2 in itertools.product(nb_vals, nb_vals):
                    cases.append((v1, v2, w1, w2, 0))
            if extra_r7:
                for u in nb_vals:
                    for w1 in nb_vals:
                        cases.append((iuv_reps[0], iuv_reps[1], w1, nb_reps[0], u))
            for v1, v2, w1, w2, u in cases:
                if cfg.max_contexts and len(contexts) >= cfg.max_contexts:
                    truncated = True
                    break
                overrides = self._overrides(v1, v2, w1, w2)
                if extra_r7:
                    overrides["arf_w7"] = u
                contexts.append(
                    self._context(
                        script_fn(),
                        overrides,
                        # machine-parsable: label|v1,v2|w1,w2,u
                        "%s|%d,%d|%d,%d,%d" % (label, v1, v2, w1, w2, u),
                        taint=taint,
                    )
                )
            groups.append(
                ContextGroup(
                    iuv_pc=slot_pc(slot),
                    contexts=contexts,
                    complete=not truncated,
                    label=label,
                    taint_pc=slot_pc(t_slot),
                )
            )

        if assumption == "intrinsic":
            if transmitter != transponder:
                return []
            word = p_word
            collect(0, 0, lambda: [("feed", (word,))], "intrinsic")
            # Assumption 1 only constrains iT == iP; other (untainted)
            # instructions may surround the pair.  Neighbour shapes surface
            # intrinsic decisions that need co-runners -- e.g. a store's own
            # address deciding its comSTB drain against younger loads.
            for nb in cfg.neighbors:
                nb_word = self._neighbor_word(nb)
                nb2_word = isa.encode(nb, rd=0, rs1=7, rs2=7)
                collect(
                    1, 1, lambda w=nb_word: [("feed", (w, word))],
                    "intr-after-%s" % nb,
                )
                collect(
                    0, 0,
                    lambda w=nb_word, w2=nb2_word: [("feed", (word, w, w2))],
                    "intr-before-%s" % nb,
                    extra_r7=True,
                )
        elif assumption == "dynamic_older":
            t_word = self._neighbor_word(transmitter)
            collect(
                1, 0, lambda: [("feed", (t_word, p_word))], "dyn-older-%s" % transmitter
            )
            # deep shape: T, FILL, FILL, P -- the transponder stalls in ID
            # behind a full scoreboard whose drain time depends on T
            fill_word = isa.encode("ADD", rd=0, rs1=0, rs2=0)
            collect(
                3,
                0,
                lambda: [("feed", (t_word, fill_word, fill_word, p_word))],
                "dyn-older-deep-%s" % transmitter,
            )
        elif assumption == "dynamic_younger":
            t_word = self._neighbor_word(transmitter)
            collect(
                0, 1, lambda: [("feed", (p_word, t_word))], "dyn-younger-%s" % transmitter
            )
            # deep shape: P, T, T' -- a second younger transmitter instance
            # contends for the memory port while P's committed store drains
            t2_word = isa.encode(transmitter, rd=0, rs1=7, rs2=7)
            collect(
                0,
                2,
                lambda: [("feed", (p_word, t_word, t2_word))],
                "dyn-younger-deep-%s" % transmitter,
                extra_r7=True,
            )
        elif assumption == "static":
            t_word = self._neighbor_word(transmitter)
            collect(
                1,
                0,
                lambda: [
                    ("feed", (t_word,)),
                    ("wait_quiesce",),
                    ("flush",),
                    ("feed", (p_word,)),
                ],
                "static-%s" % transmitter,
            )
        else:
            raise ValueError("unknown assumption %r" % assumption)
        return groups
