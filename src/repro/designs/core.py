"""The CVA6-like case-study core.

A width-scaled model of the RISC-V CVA6 CPU as the paper verifies it
(SS VI): 6-stage, single-issue, in-order with limited out-of-order
write-back through a FIFO scoreboard, diverse functional units (ALU,
serial divider, multiplier, LSU), speculative and committed store buffers,
and a single-R/W-port behavioral memory.  The frontend is black-boxed: the
verification environment drives fetched encodings at the IFR, exactly as
RTL2MuPATH does.

Every microarchitectural channel the paper reports on CVA6 is implemented
structurally:

* serial divider with operand-dependent latency 1..(xlen+2) cycles
  (1..66 at the paper's 64-bit scale, SS VII-A1 "Division/Remainder");
* zero-skip multiplier variant (CVA6-MUL, Fig. 1): 1 cycle with a zero
  operand, 4 otherwise;
* store-to-load page-offset stalling (SS IV-A, Fig. 4b): a load whose
  address page offset matches a pending store stalls in LSQ/ldStall
  until no older store matches (younger stores dispatched meanwhile
  are marked ``sstb*_yng`` and skipped);
* committed-store-buffer drain stalling behind younger loads using the
  single memory port (the paper's novel ST_comSTB channel, Fig. 5);
* mispredict flushes: conditional branches flush younger instructions as
  a function of rs1/rs2; JALR as a function of rs1; JAL unconditionally;
* issue / commit stalls behind long-latency transmitters (secondary
  leakage in Fig. 8).

The paper's three CVA6 bugs (SS VII-B2) are faithfully present by default
and removable with ``CoreConfig(fixed_bugs=True)``:

* JALR never raises a misaligned-target exception;
* JAL checks only 2-byte alignment;
* conditional branches raise misaligned-target exceptions regardless of
  their (operand-dependent) taken outcome;
* the scoreboard counter-width bug leaving one SCB entry unused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..rtl.module import Module
from ..rtl.netlist import Netlist, elaborate
from ..rtl.nodes import cat, mux, zext
from ..core.pl import DesignMetadata, MicroFsm, PerformingLocation, PlSlot
from . import isa
from .dputils import msb_index, signed_lt, unsigned_divide, var_shift_left, var_shift_right

__all__ = ["CoreConfig", "CoreDesign", "build_core", "ALU_OPS"]

# ALU operation micro-codes (latched at decode)
ALU_OPS = {
    "add": 0,
    "sub": 1,
    "sll": 2,
    "slt": 3,
    "sltu": 4,
    "xor": 5,
    "srl": 6,
    "or": 7,
    "and": 8,
    "lui": 9,
    "auipc": 10,
    "csr": 11,
    "csri": 12,
    "nop": 13,
    # immediate forms share codes; the uses-imm flag selects operand B
    "addi": 0,
    "slti": 3,
    "xori": 5,
    "ori": 7,
    "andi": 8,
    "slli": 2,
    "srli": 6,
}

_IMM_OPS = frozenset(
    {"addi", "slti", "xori", "ori", "andi", "slli", "srli", "csri", "lui"}
)


@dataclass(frozen=True)
class CoreConfig:
    """Build-time parameters (the paper's down-scaled configuration)."""

    xlen: int = 8
    pc_bits: int = 8
    nregs: int = 8
    mem_words: int = 4
    scb_entries: int = 4
    stb_entries: int = 2
    mul_variant: str = "baseline"  # "baseline" (2-cycle) | "zero_skip" (CVA6-MUL)
    mul_latency: int = 2
    zero_skip_fast: int = 1
    zero_skip_slow: int = 4
    fixed_bugs: bool = False  # True removes the four CVA6 bugs

    @property
    def offset_bits(self) -> int:
        return max(1, (self.mem_words - 1).bit_length())

    @property
    def scb_limit(self) -> int:
        """Usable SCB entries: one short of capacity under the counter bug."""
        return self.scb_entries if self.fixed_bugs else self.scb_entries - 1


@dataclass
class CoreDesign:
    """A built core: netlist plus verification metadata."""

    netlist: Netlist
    metadata: DesignMetadata
    config: CoreConfig
    source_lines: int = 0  # builder-LoC analogue of the paper's SV counts


def _class_flag(module, opcode, class_name):
    """OR of (opcode == spec.opcode) over the instructions of a class."""
    out = module.const(0, 1)
    for spec in isa.INSTRUCTIONS:
        if spec.cls == class_name:
            out = out | opcode.eq(spec.opcode)
    return out


def _spec_flag(module, opcode, predicate):
    out = module.const(0, 1)
    for spec in isa.INSTRUCTIONS:
        if predicate(spec):
            out = out | opcode.eq(spec.opcode)
    return out


def _encode_field(module, opcode, width, value_fn):
    """Sum-of-masks field encoder: value_fn(spec) -> small int code."""
    out = module.const(0, width)
    for spec in isa.INSTRUCTIONS:
        code = value_fn(spec)
        if code:
            out = out | mux(opcode.eq(spec.opcode), module.const(code, width), 0)
    return out


def build_core(config: Optional[CoreConfig] = None) -> CoreDesign:
    """Elaborate the core; returns the netlist and its metadata."""
    cfg = config or CoreConfig()
    X = cfg.xlen
    P = cfg.pc_bits
    NSCB = cfg.scb_entries
    NSTB = cfg.stb_entries
    OFF = cfg.offset_bits
    m = Module("cva6ish_core")

    # ------------------------------------------------------------- inputs
    in_valid = m.input("in_valid", 1)
    in_instr = m.input("in_instr", isa.ENCODING_BITS)
    taint_pc = m.input("taint_pc", P)
    taint_rs1 = m.input("taint_rs1", 1)
    taint_rs2 = m.input("taint_rs2", 1)

    # ---------------------------------------------------------- registers
    fetch_pc = m.reg("fetch_pc", P, reset=4)

    if_v = m.reg("if_v", 1)
    if_instr = m.reg("if_instr", isa.ENCODING_BITS)
    if_pc = m.reg("if_pc", P)

    id_v = m.reg("id_v", 1)
    id_instr = m.reg("id_instr", isa.ENCODING_BITS)
    id_pc = m.reg("id_pc", P)

    iss_v = m.reg("iss_v", 1)
    iss_pc = m.reg("iss_pc", P)
    iss_idx = m.reg("iss_idx", max(1, (NSCB - 1).bit_length()))
    iss_rs1v = m.reg("iss_rs1v", X)  # operand registers (taint introduction)
    iss_rs2v = m.reg("iss_rs2v", X)
    iss_imm = m.reg("iss_imm", 3)
    iss_aluop = m.reg("iss_aluop", 4)
    iss_brtype = m.reg("iss_brtype", 3)
    iss_uses_imm = m.reg("iss_uses_imm", 1)
    iss_signed = m.reg("iss_signed", 1)
    iss_is_rem = m.reg("iss_is_rem", 1)
    iss_is_alu = m.reg("iss_is_alu", 1)
    iss_is_mul = m.reg("iss_is_mul", 1)
    iss_is_div = m.reg("iss_is_div", 1)
    iss_is_load = m.reg("iss_is_load", 1)
    iss_is_store = m.reg("iss_is_store", 1)
    iss_is_branch = m.reg("iss_is_branch", 1)
    iss_is_jal = m.reg("iss_is_jal", 1)
    iss_is_jalr = m.reg("iss_is_jalr", 1)
    iss_is_system = m.reg("iss_is_system", 1)

    idxw = iss_idx.width
    scb_state = [m.reg("scb%d_state" % e, 3) for e in range(NSCB)]
    scb_pc = [m.reg("scb%d_pc" % e, P) for e in range(NSCB)]
    scb_rd = [m.reg("scb%d_rd" % e, 3) for e in range(NSCB)]
    scb_wen = [m.reg("scb%d_wen" % e, 1) for e in range(NSCB)]
    scb_res = [m.reg("scb%d_res" % e, X) for e in range(NSCB)]
    scb_exc = [m.reg("scb%d_exc" % e, 1) for e in range(NSCB)]
    scb_isst = [m.reg("scb%d_isst" % e, 1) for e in range(NSCB)]
    scb_head = m.reg("scb_head", idxw)
    scb_tail = m.reg("scb_tail", idxw)

    alu_v = m.reg("alu_v", 1)
    alu_pc = m.reg("alu_pc", P)
    alu_idx = m.reg("alu_idx", idxw)
    alu_rs1v = m.reg("alu_rs1v", X)
    alu_rs2v = m.reg("alu_rs2v", X)
    alu_imm = m.reg("alu_imm", 3)
    alu_op = m.reg("alu_op", 4)
    alu_brtype = m.reg("alu_brtype", 3)
    alu_uses_imm = m.reg("alu_uses_imm", 1)
    alu_is_branch = m.reg("alu_is_branch", 1)
    alu_is_jal = m.reg("alu_is_jal", 1)
    alu_is_jalr = m.reg("alu_is_jalr", 1)
    alu_exc_in = m.reg("alu_exc_in", 1)

    mul_v = m.reg("mul_v", 1)
    mul_pc = m.reg("mul_pc", P)
    mul_idx = m.reg("mul_idx", idxw)
    mul_cnt = m.reg("mul_cnt", 3)
    mul_res = m.reg("mul_res", X)

    div_cnt_bits = max(3, (X + 2).bit_length())
    div_v = m.reg("div_v", 1)
    div_pc = m.reg("div_pc", P)
    div_idx = m.reg("div_idx", idxw)
    div_cnt = m.reg("div_cnt", div_cnt_bits)
    div_res = m.reg("div_res", X)

    lsq_v = m.reg("lsq_v", 1)
    lsq_pc = m.reg("lsq_pc", P)
    ld_state = m.reg("ld_state", 2)  # 0 idle, 1 stalled, 2 finishing
    ld_pc = m.reg("ld_pc", P)
    ld_idx = m.reg("ld_idx", idxw)
    ld_addr = m.reg("ld_addr", X)

    sstb_v = [m.reg("sstb%d_v" % e, 1) for e in range(NSTB)]
    sstb_pc = [m.reg("sstb%d_pc" % e, P) for e in range(NSTB)]
    sstb_addr = [m.reg("sstb%d_addr" % e, X) for e in range(NSTB)]
    sstb_data = [m.reg("sstb%d_data" % e, X) for e in range(NSTB)]
    # the entry's store dispatched after the load now stalled in the LSU
    sstb_yng = [m.reg("sstb%d_yng" % e, 1) for e in range(NSTB)]
    sstb_head = m.reg("sstb_head", max(1, (NSTB - 1).bit_length()))
    sstb_tail = m.reg("sstb_tail", max(1, (NSTB - 1).bit_length()))

    cstb_v = [m.reg("cstb%d_v" % e, 1) for e in range(NSTB)]
    cstb_pc = [m.reg("cstb%d_pc" % e, P) for e in range(NSTB)]
    cstb_addr = [m.reg("cstb%d_addr" % e, X) for e in range(NSTB)]
    cstb_data = [m.reg("cstb%d_data" % e, X) for e in range(NSTB)]
    cstb_head = m.reg("cstb_head", max(1, (NSTB - 1).bit_length()))
    cstb_tail = m.reg("cstb_tail", max(1, (NSTB - 1).bit_length()))

    drain_v = m.reg("drain_v", 1)
    drain_pc = m.reg("drain_pc", P)
    drain_addr = m.reg("drain_addr", X)
    drain_data = m.reg("drain_data", X)

    arf = m.memory("arf", X, cfg.nregs)
    amem = m.memory("amem", X, cfg.mem_words)

    # SCB state encodings
    S_IDLE, S_ISS, S_FIN, S_CMT, S_EXC = 0, 1, 2, 3, 4

    # ================================================================ decode
    id_opcode = id_instr.q[9:16]
    id_rd = id_instr.q[6:9]
    id_rs1 = id_instr.q[3:6]
    id_rs2 = id_instr.q[0:3]

    id_is_alu = _class_flag(m, id_opcode, isa.CLS_ALU)
    id_is_mul = _class_flag(m, id_opcode, isa.CLS_MUL)
    id_is_div = _class_flag(m, id_opcode, isa.CLS_DIV)
    id_is_load = _class_flag(m, id_opcode, isa.CLS_LOAD)
    id_is_store = _class_flag(m, id_opcode, isa.CLS_STORE)
    id_is_branch = _class_flag(m, id_opcode, isa.CLS_BRANCH)
    id_is_jal = _class_flag(m, id_opcode, isa.CLS_JAL)
    id_is_jalr = _class_flag(m, id_opcode, isa.CLS_JALR)
    id_is_system = _class_flag(m, id_opcode, isa.CLS_SYSTEM)
    id_reads_rs1 = _spec_flag(m, id_opcode, lambda s: s.reads_rs1)
    id_reads_rs2 = _spec_flag(m, id_opcode, lambda s: s.reads_rs2)
    id_writes_rd = _spec_flag(m, id_opcode, lambda s: s.writes_rd)
    id_signed = _spec_flag(m, id_opcode, lambda s: s.signed)
    id_is_rem = _spec_flag(m, id_opcode, lambda s: s.name.startswith("REM"))
    id_uses_imm = _spec_flag(
        m, id_opcode, lambda s: s.cls == isa.CLS_ALU and s.alu_op in _IMM_OPS
    )
    id_aluop = _encode_field(
        m, id_opcode, 4, lambda s: ALU_OPS.get(s.alu_op, 0) if s.cls == isa.CLS_ALU else 0
    )
    branch_base = isa.BY_NAME["BEQ"].opcode
    id_brtype = _encode_field(
        m,
        id_opcode,
        3,
        lambda s: (s.opcode - branch_base) if s.cls == isa.CLS_BRANCH else 0,
    )

    # architectural register read (x0 hardwired to zero)
    id_rs1v = mux(id_rs1.eq(0), m.const(0, X), arf.read(id_rs1))
    id_rs2v = mux(id_rs2.eq(0), m.const(0, X), arf.read(id_rs2))

    # ===================================================== scoreboard status
    def _scb_active(e):
        return scb_state[e].q.ne(S_IDLE)

    scb_used = m.const(0, 3)
    for e in range(NSCB):
        scb_used = scb_used + zext(_scb_active(e), 3)
    scb_full = scb_used.uge(cfg.scb_limit)

    head_state_q = m.onehot_select(
        [(scb_head.q.eq(e), scb_state[e].q) for e in range(NSCB)], m.const(0, 3)
    )

    # ================================================================= flushes
    # ALU-stage control-flow resolution (computed below) feeds these; declare
    # the raw conditions first from latched ALU-stage values.
    a_opnd_b = mux(alu_uses_imm.q, zext(alu_imm.q, X), alu_rs2v.q)
    a = alu_rs1v.q
    b = a_opnd_b
    beq_t = a.eq(b)
    blt_t = signed_lt(a, b)
    bltu_t = a.ult(b)
    br_taken = m.onehot_select(
        [
            (alu_brtype.q.eq(0), beq_t),
            (alu_brtype.q.eq(1), ~beq_t),
            (alu_brtype.q.eq(2), blt_t),
            (alu_brtype.q.eq(3), ~blt_t),
            (alu_brtype.q.eq(4), bltu_t),
            (alu_brtype.q.eq(5), ~bltu_t),
        ],
        m.const(0, 1),
    )
    br_target = alu_pc.q + zext(alu_imm.q, P)
    jal_target = alu_pc.q + zext(alu_imm.q, P)
    jalr_target = zext(alu_rs1v.q[0 : min(X, P)], P) + zext(alu_imm.q, P)
    ctl_target = mux(alu_is_jalr.q, jalr_target, mux(alu_is_jal.q, jal_target, br_target))

    mis4 = ctl_target[0:2].ne(0)
    mis2 = ctl_target[0]
    if cfg.fixed_bugs:
        br_exc = alu_is_branch.q & br_taken & mis4
        jal_exc = alu_is_jal.q & mis4
        jalr_exc = alu_is_jalr.q & mis4
    else:
        # CVA6 bugs (SS VII-B2): branches except regardless of outcome; JAL
        # checks only 2-byte alignment; JALR never excepts.
        br_exc = alu_is_branch.q & mis4
        jal_exc = alu_is_jal.q & mis2
        jalr_exc = m.const(0, 1)
    alu_exc = alu_v.q & (alu_exc_in.q | br_exc | jal_exc | jalr_exc)

    # mispredict redirects (predict-not-taken; JALR predicted to pc+4)
    jalr_mispredict = alu_is_jalr.q & ctl_target.ne(alu_pc.q + 4)
    redirect_flush = alu_v.q & (
        (alu_is_branch.q & br_taken) | alu_is_jal.q | jalr_mispredict
    )

    exc_flush = m.const(0, 1)
    for e in range(NSCB):
        exc_flush = exc_flush | scb_state[e].q.eq(S_EXC)
    flush_any = redirect_flush | exc_flush

    # =========================================================== ALU result
    shamt = mux(alu_uses_imm.q, zext(alu_imm.q, 3), alu_rs2v.q[0:3])
    slt_r = zext(signed_lt(a, b), X)
    sltu_r = zext(a.ult(b), X)
    lui_r = zext(alu_imm.q, X) << (X - 4)
    auipc_r = zext(alu_pc.q[0 : min(X, P)], X) + zext(alu_imm.q, X)
    link_r = zext((alu_pc.q + 4)[0 : min(X, P)], X)
    alu_result = m.onehot_select(
        [
            (alu_is_jal.q | alu_is_jalr.q, link_r),
            (alu_op.q.eq(ALU_OPS["sub"]), a - b),
            (alu_op.q.eq(ALU_OPS["sll"]), var_shift_left(a, shamt)),
            (alu_op.q.eq(ALU_OPS["slt"]), slt_r),
            (alu_op.q.eq(ALU_OPS["sltu"]), sltu_r),
            (alu_op.q.eq(ALU_OPS["xor"]), a ^ b),
            (alu_op.q.eq(ALU_OPS["srl"]), var_shift_right(a, shamt)),
            (alu_op.q.eq(ALU_OPS["or"]), a | b),
            (alu_op.q.eq(ALU_OPS["and"]), a & b),
            (alu_op.q.eq(ALU_OPS["lui"]), lui_r),
            (alu_op.q.eq(ALU_OPS["auipc"]), auipc_r),
            (alu_op.q.eq(ALU_OPS["csr"]), a),
            (alu_op.q.eq(ALU_OPS["csri"]), zext(alu_imm.q, X)),
            (alu_op.q.eq(ALU_OPS["nop"]), m.const(0, X)),
        ],
        a + b,
    )
    alu_complete = alu_v.q

    # ======================================================= MUL / DIV units
    mul_complete = mul_v.q & mul_cnt.q.eq(0)
    div_complete = div_v.q & div_cnt.q.eq(0)

    # dispatch-time multiplier latency
    if cfg.mul_variant == "zero_skip":
        mul_lat = mux(
            iss_rs1v.q.eq(0) | iss_rs2v.q.eq(0),
            m.const(cfg.zero_skip_fast - 1, 3),
            m.const(cfg.zero_skip_slow - 1, 3),
        )
    else:
        mul_lat = m.const(cfg.mul_latency - 1, 3)
    mul_product = iss_rs1v.q * iss_rs2v.q

    # dispatch-time serial-divider latency: 1 cycle for a zero dividend,
    # else 2 + msb_index(dividend), plus a sign-fixup cycle for signed ops
    # with a negative divisor.  Range: 1 .. xlen+2 (1..66 at 64-bit scale).
    dividend = iss_rs1v.q
    divisor = iss_rs2v.q
    div_lat_core = zext(msb_index(dividend), div_cnt_bits) + 2
    div_fix = iss_signed.q & divisor[X - 1]
    div_lat = mux(
        dividend.eq(0),
        m.const(1, div_cnt_bits),
        div_lat_core + zext(div_fix, div_cnt_bits),
    )
    quotient, remainder = unsigned_divide(dividend, divisor)
    div_result = mux(iss_is_rem.q, remainder, quotient)

    # ===================================================== store-buffer status
    def _fifo_used(valids):
        used = m.const(0, 2)
        for v in valids:
            used = used + zext(v.q, 2)
        return used

    sstb_used = _fifo_used(sstb_v)
    cstb_used = _fifo_used(cstb_v)

    # ============================================================ LSU: loads
    ld_addr_new = iss_rs1v.q + zext(iss_imm.q, X)

    def _offset_match(addr, older_only=False):
        match = m.const(0, 1)
        for e in range(NSTB):
            valid = sstb_v[e].q & ~sstb_yng[e].q if older_only else sstb_v[e].q
            match = match | (
                valid & sstb_addr[e].q[0:OFF].eq(addr[0:OFF])
            )
            match = match | (
                cstb_v[e].q & cstb_addr[e].q[0:OFF].eq(addr[0:OFF])
            )
        match = match | (drain_v.q & drain_addr.q[0:OFF].eq(addr[0:OFF]))
        return match

    # dispatch fires (issue-stage occupant always advances; gated on flush)
    disp = iss_v.q & ~flush_any
    disp_alu = disp & (iss_is_alu.q | iss_is_branch.q | iss_is_jal.q
                       | iss_is_jalr.q | iss_is_system.q)
    disp_mul = disp & iss_is_mul.q
    disp_div = disp & iss_is_div.q
    disp_load = disp & iss_is_load.q
    disp_store = disp & iss_is_store.q

    ld_match_new = _offset_match(ld_addr_new)
    ld_goes_stall = disp_load & ld_match_new
    ld_goes_fin = disp_load & ~ld_match_new
    # a stalled load waits on older stores only: a younger store at its
    # offset cannot commit before it, so waiting on one never ends
    ld_match_cur = _offset_match(ld_addr.q, older_only=True)
    ld_unstall = ld_state.q.eq(1) & ~ld_match_cur
    ld_mem_now = ld_state.q.eq(2)  # accessing the single memory port
    ld_complete = ld_mem_now
    ld_data = amem.read(ld_addr.q[0:OFF])
    ld_will_access_next = ld_goes_fin | ld_unstall

    # ======================================================= committed drain
    cstb_head_v = m.onehot_select(
        [(cstb_head.q.eq(e), cstb_v[e].q) for e in range(NSTB)], m.const(0, 1)
    )
    cstb_head_pc = m.onehot_select(
        [(cstb_head.q.eq(e), cstb_pc[e].q) for e in range(NSTB)], m.const(0, P)
    )
    cstb_head_addr = m.onehot_select(
        [(cstb_head.q.eq(e), cstb_addr[e].q) for e in range(NSTB)], m.const(0, X)
    )
    cstb_head_data = m.onehot_select(
        [(cstb_head.q.eq(e), cstb_data[e].q) for e in range(NSTB)], m.const(0, X)
    )
    # the ST_comSTB channel: the committed store may only drain when no load
    # will use the single memory port next cycle (loads have priority)
    drain_fire = cstb_head_v & ~ld_will_access_next & ~ld_mem_now
    drain_v.next = drain_fire
    drain_pc.next = cstb_head_pc
    drain_addr.next = cstb_head_addr
    drain_data.next = cstb_head_data
    amem.write(drain_v.q, drain_addr.q[0:OFF], drain_data.q)

    # ================================================================ commit
    # The head pointer advances as an entry moves FIN -> CMT, so the next
    # finished entry can enter CMT the following cycle: one commit per cycle
    # throughput.  At most one entry is in CMT (or EXC) at a time.
    cmt_is = {}
    for name, regs in (("pc", scb_pc), ("rd", scb_rd), ("res", scb_res)):
        cmt_is[name] = m.onehot_select(
            [(scb_state[e].q.eq(S_CMT), regs[e].q) for e in range(NSCB)],
            m.const(0, regs[0].width),
        )
    cmt_wen = m.onehot_select(
        [(scb_state[e].q.eq(S_CMT), scb_wen[e].q) for e in range(NSCB)], m.const(0, 1)
    )
    cmt_isst = m.onehot_select(
        [(scb_state[e].q.eq(S_CMT), scb_isst[e].q) for e in range(NSCB)], m.const(0, 1)
    )
    commit_fire = m.const(0, 1)
    for e in range(NSCB):
        commit_fire = commit_fire | scb_state[e].q.eq(S_CMT)
    commit_pc = cmt_is["pc"]
    arf.write(commit_fire & cmt_wen & cmt_is["rd"].ne(0), cmt_is["rd"], cmt_is["res"])

    # committed store moves specSTB head -> comSTB tail
    st_commit_fire = commit_fire & cmt_isst
    sstb_head_addr = m.onehot_select(
        [(sstb_head.q.eq(e), sstb_addr[e].q) for e in range(NSTB)], m.const(0, X)
    )
    sstb_head_data = m.onehot_select(
        [(sstb_head.q.eq(e), sstb_data[e].q) for e in range(NSTB)], m.const(0, X)
    )
    sstb_head_pc = m.onehot_select(
        [(sstb_head.q.eq(e), sstb_pc[e].q) for e in range(NSTB)], m.const(0, P)
    )

    # ===================================================== hazards / stalls
    raw_hazard = m.const(0, 1)
    for e in range(NSCB):
        writes = _scb_active(e) & scb_wen[e].q
        raw_hazard = raw_hazard | (
            writes
            & (
                (scb_rd[e].q.eq(id_rs1) & id_reads_rs1)
                | (scb_rd[e].q.eq(id_rs2) & id_reads_rs2)
            )
        )

    mul_busy = mul_v.q | (iss_v.q & iss_is_mul.q)
    div_busy = div_v.q | (iss_v.q & iss_is_div.q)
    # a finishing load (state 2) frees the unit this cycle, so back-to-back
    # loads pipeline through the single port -- which is what lets a younger
    # load contend with a committed store's drain (the ST_comSTB channel)
    ld_busy = ld_state.q.eq(1) | lsq_v.q | (iss_v.q & iss_is_load.q)
    sstb_room = sstb_used + zext(iss_v.q & iss_is_store.q, 2)
    st_busy = sstb_room.uge(NSTB)

    struct_stall = (
        (id_is_mul & mul_busy)
        | (id_is_div & div_busy)
        | (id_is_load & ld_busy)
        | (id_is_store & st_busy)
    )
    id_stall = id_v.q & (raw_hazard | struct_stall | scb_full)
    id_advance = id_v.q & ~id_stall & ~flush_any
    if_advance = if_v.q & (~id_v.q | id_advance) & ~flush_any
    fetch_accept = in_valid & (~if_v.q | if_advance) & ~flush_any

    # ============================================================ next state
    # fetch counter acts as the unique-IID generator; redirects do not
    # renumber the stream (the frontend is black-boxed, SS VI)
    fetch_pc.next = mux(fetch_accept, fetch_pc.q + 4, fetch_pc.q)

    if_v.next = mux(flush_any, m.const(0, 1), mux(fetch_accept, m.const(1, 1), mux(if_advance, m.const(0, 1), if_v.q)))
    if_instr.next = mux(fetch_accept, in_instr, if_instr.q)
    if_pc.next = mux(fetch_accept, fetch_pc.q, if_pc.q)

    id_v.next = mux(flush_any, m.const(0, 1), mux(if_advance, m.const(1, 1), mux(id_advance, m.const(0, 1), id_v.q)))
    id_instr.next = mux(if_advance, if_instr.q, id_instr.q)
    id_pc.next = mux(if_advance, if_pc.q, id_pc.q)

    iss_v.next = id_advance  # issue stage always drains in one cycle
    iss_pc.next = mux(id_advance, id_pc.q, iss_pc.q)
    iss_idx.next = mux(id_advance, scb_tail.q, iss_idx.q)
    iss_rs1v.next = mux(id_advance, id_rs1v, iss_rs1v.q)
    iss_rs2v.next = mux(id_advance, id_rs2v, iss_rs2v.q)
    iss_imm.next = mux(id_advance, id_rs2, iss_imm.q)
    iss_aluop.next = mux(id_advance, id_aluop, iss_aluop.q)
    iss_brtype.next = mux(id_advance, id_brtype, iss_brtype.q)
    iss_uses_imm.next = mux(id_advance, id_uses_imm, iss_uses_imm.q)
    iss_signed.next = mux(id_advance, id_signed, iss_signed.q)
    iss_is_rem.next = mux(id_advance, id_is_rem, iss_is_rem.q)
    iss_is_alu.next = mux(id_advance, id_is_alu, iss_is_alu.q)
    iss_is_mul.next = mux(id_advance, id_is_mul, iss_is_mul.q)
    iss_is_div.next = mux(id_advance, id_is_div, iss_is_div.q)
    iss_is_load.next = mux(id_advance, id_is_load, iss_is_load.q)
    iss_is_store.next = mux(id_advance, id_is_store, iss_is_store.q)
    iss_is_branch.next = mux(id_advance, id_is_branch, iss_is_branch.q)
    iss_is_jal.next = mux(id_advance, id_is_jal, iss_is_jal.q)
    iss_is_jalr.next = mux(id_advance, id_is_jalr, iss_is_jalr.q)
    iss_is_system.next = mux(id_advance, id_is_system, iss_is_system.q)

    # ---- scoreboard entries
    alloc_fire = id_advance  # allocation happens as the instruction enters issue
    head_adv = head_state_q.eq(S_FIN)  # head entry is moving to CMT/EXC

    def _younger_than_branch(e):
        # FIFO age: (e - head) mod N  >  (alu_idx - head) mod N
        e_age = (m.const(e, idxw) - scb_head.q)
        b_age = (alu_idx.q - scb_head.q)
        return b_age.ult(e_age)

    for e in range(NSCB):
        st = scb_state[e].q
        at_head = scb_head.q.eq(e)
        alloc_here = alloc_fire & scb_tail.q.eq(e)
        kill_branch = redirect_flush & _younger_than_branch(e) & st.ne(S_IDLE)

        fu_fin_here = (
            (alu_complete & alu_idx.q.eq(e))
            | (mul_complete & mul_idx.q.eq(e))
            | (div_complete & div_idx.q.eq(e))
            | (ld_complete & ld_idx.q.eq(e))
            | (disp_store & iss_idx.q.eq(e))  # stores finish on STB entry
        )
        fu_exc_here = alu_exc & alu_idx.q.eq(e)
        fu_res = m.onehot_select(
            [
                (alu_complete & alu_idx.q.eq(e), alu_result),
                (mul_complete & mul_idx.q.eq(e), mul_res.q),
                (div_complete & div_idx.q.eq(e), div_res.q),
                (ld_complete & ld_idx.q.eq(e), ld_data),
            ],
            scb_res[e].q,
        )

        next_state = st
        # head progression: FIN -> CMT or EXC; CMT/EXC -> release
        next_state = mux(
            at_head & st.eq(S_FIN),
            mux(scb_exc[e].q, m.const(S_EXC, 3), m.const(S_CMT, 3)),
            next_state,
        )
        # retiring entries release regardless of the (already advanced) head
        next_state = mux(st.eq(S_CMT) | st.eq(S_EXC), m.const(S_IDLE, 3), next_state)
        # FU completion: ISS -> FIN
        next_state = mux(st.eq(S_ISS) & fu_fin_here & scb_pc[e].q.eq(
            m.onehot_select(
                [
                    (alu_complete & alu_idx.q.eq(e), alu_pc.q),
                    (mul_complete & mul_idx.q.eq(e), mul_pc.q),
                    (div_complete & div_idx.q.eq(e), div_pc.q),
                    (ld_complete & ld_idx.q.eq(e), ld_pc.q),
                    (disp_store & iss_idx.q.eq(e), iss_pc.q),
                ],
                scb_pc[e].q,
            )
        ), m.const(S_FIN, 3), next_state)
        # flushes and allocation
        next_state = mux(kill_branch, m.const(S_IDLE, 3), next_state)
        next_state = mux(alloc_here, m.const(S_ISS, 3), next_state)
        next_state = mux(exc_flush, m.const(S_IDLE, 3), next_state)
        scb_state[e].next = next_state

        scb_pc[e].next = mux(alloc_here, id_pc.q, scb_pc[e].q)
        scb_rd[e].next = mux(alloc_here, id_rd, scb_rd[e].q)
        scb_wen[e].next = mux(alloc_here, id_writes_rd & id_rd.ne(0), scb_wen[e].q)
        scb_isst[e].next = mux(alloc_here, id_is_store, scb_isst[e].q)
        scb_res[e].next = mux(st.eq(S_ISS) & fu_fin_here, fu_res, scb_res[e].q)
        scb_exc[e].next = mux(
            alloc_here,
            id_is_system,  # ECALL/EBREAK raise environment calls at commit
            mux(st.eq(S_ISS) & fu_exc_here, m.const(1, 1), scb_exc[e].q),
        )

    scb_head.next = mux(exc_flush, m.const(0, idxw), mux(head_adv, scb_head.q + 1, scb_head.q))
    new_tail = mux(alloc_fire, scb_tail.q + 1, scb_tail.q)
    new_tail = mux(redirect_flush, alu_idx.q + 1, new_tail)
    new_tail = mux(exc_flush, m.const(0, idxw), new_tail)
    scb_tail.next = new_tail

    # ---- ALU stage
    alu_v.next = disp_alu
    alu_pc.next = mux(disp_alu, iss_pc.q, alu_pc.q)
    alu_idx.next = mux(disp_alu, iss_idx.q, alu_idx.q)
    alu_rs1v.next = mux(disp_alu, iss_rs1v.q, alu_rs1v.q)
    alu_rs2v.next = mux(disp_alu, iss_rs2v.q, alu_rs2v.q)
    alu_imm.next = mux(disp_alu, iss_imm.q, alu_imm.q)
    alu_op.next = mux(disp_alu, iss_aluop.q, alu_op.q)
    alu_brtype.next = mux(disp_alu, iss_brtype.q, alu_brtype.q)
    alu_uses_imm.next = mux(disp_alu, iss_uses_imm.q, alu_uses_imm.q)
    alu_is_branch.next = mux(disp_alu, iss_is_branch.q, alu_is_branch.q)
    alu_is_jal.next = mux(disp_alu, iss_is_jal.q, alu_is_jal.q)
    alu_is_jalr.next = mux(disp_alu, iss_is_jalr.q, alu_is_jalr.q)
    alu_exc_in.next = mux(disp_alu, iss_is_system.q, alu_exc_in.q)

    # ---- MUL unit (killed only by exception flush; always older than traps? no:
    # younger than a committing excepting head, so exc_flush clears it)
    mul_v.next = mux(exc_flush, m.const(0, 1), mux(disp_mul, m.const(1, 1), mux(mul_complete, m.const(0, 1), mul_v.q)))
    mul_pc.next = mux(disp_mul, iss_pc.q, mul_pc.q)
    mul_idx.next = mux(disp_mul, iss_idx.q, mul_idx.q)
    mul_cnt.next = mux(disp_mul, mul_lat, mux(mul_v.q & mul_cnt.q.ne(0), mul_cnt.q - 1, mul_cnt.q))
    mul_res.next = mux(disp_mul, mul_product, mul_res.q)

    # ---- DIV unit
    div_v.next = mux(exc_flush, m.const(0, 1), mux(disp_div, m.const(1, 1), mux(div_complete, m.const(0, 1), div_v.q)))
    div_pc.next = mux(disp_div, iss_pc.q, div_pc.q)
    div_idx.next = mux(disp_div, iss_idx.q, div_idx.q)
    div_cnt.next = mux(disp_div, div_lat - 1, mux(div_v.q & div_cnt.q.ne(0), div_cnt.q - 1, div_cnt.q))
    div_res.next = mux(disp_div, div_result, div_res.q)

    # ---- load unit: loads in the unit are never flushed (SS VII-A1 "All")
    ld_state.next = mux(
        ld_goes_stall,
        m.const(1, 2),
        mux(
            ld_goes_fin | ld_unstall,
            m.const(2, 2),
            mux(ld_complete, m.const(0, 2), ld_state.q),
        ),
    )
    lsq_v.next = mux(ld_goes_stall, m.const(1, 1), mux(ld_unstall | ld_complete, m.const(0, 1), lsq_v.q))
    lsq_pc.next = mux(ld_goes_stall, iss_pc.q, lsq_pc.q)
    ld_pc.next = mux(disp_load, iss_pc.q, ld_pc.q)
    ld_idx.next = mux(disp_load, iss_idx.q, ld_idx.q)
    ld_addr.next = mux(disp_load, ld_addr_new, ld_addr.q)

    # ---- speculative store buffer (cleared on exception flush)
    st_addr_new = iss_rs1v.q + zext(iss_imm.q, X)
    for e in range(NSTB):
        alloc_here = disp_store & sstb_tail.q.eq(e)
        pop_here = st_commit_fire & sstb_head.q.eq(e)
        sstb_v[e].next = mux(
            exc_flush,
            m.const(0, 1),
            mux(alloc_here, m.const(1, 1), mux(pop_here, m.const(0, 1), sstb_v[e].q)),
        )
        sstb_pc[e].next = mux(alloc_here, iss_pc.q, sstb_pc[e].q)
        sstb_addr[e].next = mux(alloc_here, st_addr_new, sstb_addr[e].q)
        sstb_data[e].next = mux(alloc_here, iss_rs2v.q, sstb_data[e].q)
        sstb_yng[e].next = ld_state.q.eq(1) & (alloc_here | sstb_yng[e].q)
    sstb_tail.next = mux(exc_flush, m.const(0, sstb_tail.width), mux(disp_store, sstb_tail.q + 1, sstb_tail.q))
    sstb_head.next = mux(exc_flush, m.const(0, sstb_head.width), mux(st_commit_fire, sstb_head.q + 1, sstb_head.q))

    # ---- committed store buffer (survives all flushes: already architectural)
    for e in range(NSTB):
        alloc_here = st_commit_fire & cstb_tail.q.eq(e)
        pop_here = drain_fire & cstb_head.q.eq(e)
        cstb_v[e].next = mux(alloc_here, m.const(1, 1), mux(pop_here, m.const(0, 1), cstb_v[e].q))
        cstb_pc[e].next = mux(alloc_here, sstb_head_pc, cstb_pc[e].q)
        cstb_addr[e].next = mux(alloc_here, sstb_head_addr, cstb_addr[e].q)
        cstb_data[e].next = mux(alloc_here, sstb_head_data, cstb_data[e].q)
    cstb_tail.next = mux(st_commit_fire, cstb_tail.q + 1, cstb_tail.q)
    cstb_head.next = mux(drain_fire, cstb_head.q + 1, cstb_head.q)

    # ======================================================== named signals
    m.name_signal("IFR", if_instr.q)
    m.name_signal("commit_fire", commit_fire)
    m.name_signal("commit_pc", commit_pc)
    m.name_signal("fetch_ready", (~if_v.q | if_advance) & ~flush_any)
    m.name_signal("flush_fire", flush_any)
    m.name_signal("redirect_flush", redirect_flush)
    m.name_signal("exc_flush", exc_flush)
    m.name_signal("scb_used", scb_used)
    stb_empty = m.const(1, 1)
    for e in range(NSTB):
        stb_empty = stb_empty & ~sstb_v[e].q & ~cstb_v[e].q
    m.name_signal(
        "pipe_quiesce",
        ~if_v.q
        & ~id_v.q
        & ~iss_v.q
        & scb_used.eq(0)
        & ~alu_v.q
        & ~mul_v.q
        & ~div_v.q
        & ld_state.q.eq(0)
        & ~lsq_v.q
        & stb_empty
        & ~drain_v.q,
    )

    # taint-introduction conditions (SynthLC metadata): the operand
    # registers iss_rs1v / iss_rs2v latch as the instruction whose PC
    # matches taint_pc moves from ID into issue
    m.name_signal("intro_cond_rs1", id_advance & id_pc.q.eq(taint_pc) & taint_rs1)
    m.name_signal("intro_cond_rs2", id_advance & id_pc.q.eq(taint_pc) & taint_rs2)

    # ---- performing locations
    pls: Dict[str, PerformingLocation] = {}
    ufsms: List[MicroFsm] = []

    def single_pl(name, occ_expr, pc_node, ufsm_name, pcr, state_vars,
                  pcr_added=True, probe=None):
        occ_sig = "pl_%s_occ" % name
        pc_sig = "pl_%s_pc" % name
        m.name_signal(occ_sig, occ_expr)
        m.name_signal(pc_sig, pc_node)
        probe_sig = None
        if probe is not None:
            probe_sig = "pl_%s_probe" % name
            m.name_signal(probe_sig, probe)
        pls[name] = PerformingLocation(
            name=name,
            slots=(PlSlot(occ_sig, pc_sig, probe_signal=probe_sig),),
            ufsms=(ufsm_name,),
        )
        ufsms.append(MicroFsm(ufsm_name, pcr, tuple(state_vars), pcr_added=pcr_added))

    def multi_pl(name, slot_exprs, ufsm_names):
        slots = []
        for i, (occ_expr, pc_node) in enumerate(slot_exprs):
            occ_sig = "pl_%s_occ%d" % (name, i)
            pc_sig = "pl_%s_pc%d" % (name, i)
            m.name_signal(occ_sig, occ_expr)
            m.name_signal(pc_sig, pc_node)
            slots.append(PlSlot(occ_sig, pc_sig))
        pls[name] = PerformingLocation(name=name, slots=tuple(slots), ufsms=tuple(ufsm_names))

    single_pl("IF", if_v.q, if_pc.q, "ufsm_if", "if_pc", ("if_v",), pcr_added=False)
    single_pl("ID", id_v.q, id_pc.q, "ufsm_id", "id_pc", ("id_v",), pcr_added=False)
    single_pl("issue", iss_v.q, iss_pc.q, "ufsm_issue", "iss_pc", ("iss_v",), pcr_added=False)
    single_pl("aluU", alu_v.q, alu_pc.q, "ufsm_alu", "alu_pc", ("alu_v",))
    # the multiplier / divider uFSM vars include the latency counters, whose
    # taint is what marks these units' occupancy as operand-dependent
    single_pl("mulU", mul_v.q, mul_pc.q, "ufsm_mul", "mul_pc", ("mul_v", "mul_cnt"),
              probe=cat(mul_v.q, mul_cnt.q))
    single_pl("divU", div_v.q, div_pc.q, "ufsm_div", "div_pc", ("div_v", "div_cnt"),
              probe=cat(div_v.q, div_cnt.q))
    single_pl("LSQ", lsq_v.q, lsq_pc.q, "ufsm_lsq", "lsq_pc", ("lsq_v",))
    # ldStall and ldFin are two non-idle states of the same load-unit uFSM
    single_pl("ldStall", ld_state.q.eq(1), ld_pc.q, "ufsm_ldu", "ld_pc", ("ld_state",))
    single_pl("ldFin", ld_state.q.eq(2), ld_pc.q, "ufsm_ldu", "ld_pc", ("ld_state",))
    single_pl("memRq", drain_v.q, drain_pc.q, "ufsm_drain", "drain_pc", ("drain_v",))

    for scb_pl, state_code in (
        ("scbIss", S_ISS),
        ("scbFin", S_FIN),
        ("scbCmt", S_CMT),
        ("scbExcp", S_EXC),
    ):
        multi_pl(
            scb_pl,
            [(scb_state[e].q.eq(state_code), scb_pc[e].q) for e in range(NSCB)],
            tuple("ufsm_scb%d" % e for e in range(NSCB)),
        )
    for e in range(NSCB):
        ufsms.append(
            MicroFsm("ufsm_scb%d" % e, "scb%d_pc" % e, ("scb%d_state" % e,), pcr_added=False)
        )

    multi_pl(
        "specSTB",
        [(sstb_v[e].q, sstb_pc[e].q) for e in range(NSTB)],
        tuple("ufsm_sstb%d" % e for e in range(NSTB)),
    )
    for e in range(NSTB):
        ufsms.append(MicroFsm("ufsm_sstb%d" % e, "sstb%d_pc" % e, ("sstb%d_v" % e,)))
    multi_pl(
        "comSTB",
        [(cstb_v[e].q, cstb_pc[e].q) for e in range(NSTB)],
        tuple("ufsm_cstb%d" % e for e in range(NSTB)),
    )
    for e in range(NSTB):
        ufsms.append(MicroFsm("ufsm_cstb%d" % e, "cstb%d_pc" % e, ("cstb%d_v" % e,)))

    # candidate PLs: constant vars valuations that exist in the encoding
    # space but (should) never occur -- RTL2MuPATH's first step proves them
    # unreachable on the DUV and prunes them (SS V-B1)
    candidate_pls: Dict[str, PerformingLocation] = {}

    def candidate_pl(name, slot_exprs):
        slots = []
        for i, (occ_expr, pc_node) in enumerate(slot_exprs):
            occ_sig = "pl_%s_occ%d" % (name, i)
            pc_sig = "pl_%s_pc%d" % (name, i)
            m.name_signal(occ_sig, occ_expr)
            m.name_signal(pc_sig, pc_node)
            slots.append(PlSlot(occ_sig, pc_sig))
        candidate_pls[name] = PerformingLocation(name=name, slots=tuple(slots))

    candidate_pl("ldState3", [(ld_state.q.eq(3), ld_pc.q)])
    for bad_state in (5, 6, 7):
        candidate_pl(
            "scbState%d" % bad_state,
            [(scb_state[e].q.eq(bad_state), scb_pc[e].q) for e in range(NSCB)],
        )

    netlist = elaborate(m)
    unique_ufsms = list({fsm.name: fsm for fsm in ufsms}.values())
    metadata = DesignMetadata(
        design_name=netlist.name,
        pls=pls,
        ufsms=tuple(unique_ufsms),
        ifr_signal="IFR",
        commit_signal="commit_fire",
        commit_pc_signal="commit_pc",
        operand_registers=("iss_rs1v", "iss_rs2v"),
        arf_registers=tuple("arf_w%d" % i for i in range(cfg.nregs)),
        amem_registers=tuple("amem_w%d" % i for i in range(cfg.mem_words)),
        persistent_registers=(),
        intro_cond_rs1="intro_cond_rs1",
        intro_cond_rs2="intro_cond_rs2",
        pc_bits=P,
    )
    metadata.candidate_pls = candidate_pls
    return CoreDesign(netlist=netlist, metadata=metadata, config=cfg)
