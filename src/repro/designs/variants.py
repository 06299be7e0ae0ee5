"""Design variants from the paper's motivating examples.

* ``build_cva6_mul``   -- CVA6-MUL (Fig. 1): the main core with the
  zero-skip multiply optimization (1-cycle mulU occupancy when an operand
  is zero, 4 cycles otherwise).
* ``build_cva6_op``    -- CVA6-OP (SS III-A, Fig. 2): a dual-fetch front
  end whose ALU supports operand packing.  Two concurrently decoded
  instructions performing the identical ALU operation on narrow operands
  (upper halves all zero) are packed and issued together; otherwise the
  younger instruction waits an extra cycle in ID.  The packed ADD commits
  in 4 cycles, the non-packed one in 5, reproducing Figs. 2b/2c.
* ``build_fixed_core`` -- the main core with the four CVA6 bugs repaired
  (SS VII-B2), used by the bug-detection benches as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..rtl.module import Module
from ..rtl.netlist import elaborate
from ..rtl.nodes import mux, zext
from ..core.pl import DesignMetadata, MicroFsm, PerformingLocation, PlSlot
from ..mc.enumerative import Context
from . import isa
from .core import CoreConfig, CoreDesign, build_core

__all__ = [
    "build_cva6_mul",
    "build_fixed_core",
    "OpPackConfig",
    "build_cva6_op",
    "oppack_context",
]


def build_cva6_mul(xlen: int = 8) -> CoreDesign:
    """CVA6-MUL: zero-skip multiplier variant of the main core (Fig. 1)."""
    return build_core(CoreConfig(xlen=xlen, mul_variant="zero_skip"))


def build_fixed_core(xlen: int = 8) -> CoreDesign:
    """The main core with the four CVA6 bugs repaired."""
    return build_core(CoreConfig(xlen=xlen, fixed_bugs=True))


@dataclass(frozen=True)
class OpPackConfig:
    xlen: int = 8
    pc_bits: int = 8
    nregs: int = 8
    packing_enabled: bool = True  # False models baseline single-issue decode


# ALU operations eligible for packing on CVA6-OP
_PACKABLE = ("ADD", "SUB", "XOR", "OR", "AND")


def build_cva6_op(config: Optional[OpPackConfig] = None) -> CoreDesign:
    """Elaborate the CVA6-OP operand-packing pipeline (SS III-A)."""
    cfg = config or OpPackConfig()
    X = cfg.xlen
    P = cfg.pc_bits
    m = Module("cva6_op")

    in_valid0 = m.input("in_valid0", 1)
    in_instr0 = m.input("in_instr0", isa.ENCODING_BITS)
    in_valid1 = m.input("in_valid1", 1)
    in_instr1 = m.input("in_instr1", isa.ENCODING_BITS)
    taint_pc = m.input("taint_pc", P)
    taint_rs1 = m.input("taint_rs1", 1)
    taint_rs2 = m.input("taint_rs2", 1)

    fetch_pc = m.reg("fetch_pc", P, reset=4)
    if0_v = m.reg("if0_v", 1)
    if0_instr = m.reg("if0_instr", isa.ENCODING_BITS)
    if0_pc = m.reg("if0_pc", P)
    if1_v = m.reg("if1_v", 1)
    if1_instr = m.reg("if1_instr", isa.ENCODING_BITS)
    if1_pc = m.reg("if1_pc", P)

    id0_v = m.reg("id0_v", 1)
    id0_instr = m.reg("id0_instr", isa.ENCODING_BITS)
    id0_pc = m.reg("id0_pc", P)
    id1_v = m.reg("id1_v", 1)
    id1_instr = m.reg("id1_instr", isa.ENCODING_BITS)
    id1_pc = m.reg("id1_pc", P)

    # issue stage doubles as the scoreboard-allocation point (issue+scbIss)
    iss0_v = m.reg("iss0_v", 1)
    iss0_pc = m.reg("iss0_pc", P)
    iss0_rd = m.reg("iss0_rd", 3)
    iss0_res = m.reg("iss0_res", X)
    iss1_v = m.reg("iss1_v", 1)
    iss1_pc = m.reg("iss1_pc", P)
    iss1_rd = m.reg("iss1_rd", 3)
    iss1_res = m.reg("iss1_res", X)

    cmt0_v = m.reg("cmt0_v", 1)
    cmt0_pc = m.reg("cmt0_pc", P)
    cmt1_v = m.reg("cmt1_v", 1)
    cmt1_pc = m.reg("cmt1_pc", P)

    arf = m.memory("arf", X, cfg.nregs)

    def decode(instr_q):
        opcode = instr_q[9:16]
        rd = instr_q[6:9]
        rs1 = instr_q[3:6]
        rs2 = instr_q[0:3]
        return opcode, rd, rs1, rs2

    def read(reg_idx):
        return mux(reg_idx.eq(0), m.const(0, X), arf.read(reg_idx))

    op0, rd0, rs1_0, rs2_0 = decode(id0_instr.q)
    op1, rd1, rs1_1, rs2_1 = decode(id1_instr.q)
    a0, b0 = read(rs1_0), read(rs2_0)
    a1, b1 = read(rs1_1), read(rs2_1)

    def narrow(value):
        """Upper half all zero: msb(arg) < xlen/2 in the paper's notation."""
        return value[X // 2 : X].eq(0)

    same_op = op0.eq(op1)
    packable_class = m.const(0, 1)
    for name in _PACKABLE:
        packable_class = packable_class | op0.eq(isa.BY_NAME[name].opcode)
    all_narrow = narrow(a0) & narrow(b0) & narrow(a1) & narrow(b1)
    pack_ok = (
        id0_v.q
        & id1_v.q
        & same_op
        & packable_class
        & all_narrow
        & (m.const(1, 1) if cfg.packing_enabled else m.const(0, 1))
    )

    def alu(opcode, a, b):
        result = a + b
        result = mux(opcode.eq(isa.BY_NAME["SUB"].opcode), a - b, result)
        result = mux(opcode.eq(isa.BY_NAME["XOR"].opcode), a ^ b, result)
        result = mux(opcode.eq(isa.BY_NAME["OR"].opcode), a | b, result)
        result = mux(opcode.eq(isa.BY_NAME["AND"].opcode), a & b, result)
        return result

    # flow control: issue drains every cycle; ID0 (the oldest) always issues
    # when valid; ID1 issues simultaneously iff packed, else it becomes the
    # oldest next cycle (an extra ID cycle -- the paper's ID(l=2))
    issue_fire0 = id0_v.q
    issue_fire1 = id0_v.q & id1_v.q & pack_ok
    id_drained = ~id0_v.q | (issue_fire0 & (issue_fire1 | ~id1_v.q))
    if_advance = (if0_v.q | if1_v.q) & id_drained
    fetch_accept = (in_valid0 | in_valid1) & (~(if0_v.q | if1_v.q) | if_advance)

    fetch_pc.next = mux(
        fetch_accept,
        fetch_pc.q + zext(in_valid0, P) * 4 + zext(in_valid1, P) * 4,
        fetch_pc.q,
    )
    if0_v.next = mux(fetch_accept, in_valid0, mux(if_advance, m.const(0, 1), if0_v.q))
    if0_instr.next = mux(fetch_accept, in_instr0, if0_instr.q)
    if0_pc.next = mux(fetch_accept, fetch_pc.q, if0_pc.q)
    if1_v.next = mux(fetch_accept, in_valid1, mux(if_advance, m.const(0, 1), if1_v.q))
    if1_instr.next = mux(fetch_accept, in_instr1, if1_instr.q)
    if1_pc.next = mux(fetch_accept, fetch_pc.q + 4, if1_pc.q)

    # unpacked leftover: ID1 slides into the ID0 (oldest) slot
    leftover = id1_v.q & issue_fire0 & ~issue_fire1
    id0_v.next = mux(leftover, m.const(1, 1), mux(if_advance, if0_v.q, mux(issue_fire0, m.const(0, 1), id0_v.q)))
    id0_instr.next = mux(leftover, id1_instr.q, mux(if_advance, if0_instr.q, id0_instr.q))
    id0_pc.next = mux(leftover, id1_pc.q, mux(if_advance, if0_pc.q, id0_pc.q))
    id1_v.next = mux(leftover, m.const(0, 1), mux(if_advance, if1_v.q, mux(issue_fire1, m.const(0, 1), id1_v.q)))
    id1_instr.next = mux(if_advance & ~leftover, if1_instr.q, id1_instr.q)
    id1_pc.next = mux(if_advance & ~leftover, if1_pc.q, id1_pc.q)

    iss0_v.next = issue_fire0
    iss0_pc.next = mux(issue_fire0, id0_pc.q, iss0_pc.q)
    iss0_rd.next = mux(issue_fire0, rd0, iss0_rd.q)
    iss0_res.next = mux(issue_fire0, alu(op0, a0, b0), iss0_res.q)
    iss1_v.next = issue_fire1
    iss1_pc.next = mux(issue_fire1, id1_pc.q, iss1_pc.q)
    iss1_rd.next = mux(issue_fire1, rd1, iss1_rd.q)
    iss1_res.next = mux(issue_fire1, alu(op1, a1, b1), iss1_res.q)

    cmt0_v.next = iss0_v.q
    cmt0_pc.next = mux(iss0_v.q, iss0_pc.q, cmt0_pc.q)
    cmt1_v.next = iss1_v.q
    cmt1_pc.next = mux(iss1_v.q, iss1_pc.q, cmt1_pc.q)
    arf.write(iss0_v.q & iss0_rd.q.ne(0), iss0_rd.q, iss0_res.q)
    arf.write(iss1_v.q & iss1_rd.q.ne(0), iss1_rd.q, iss1_res.q)

    m.name_signal("IFR", if0_instr.q)
    m.name_signal("commit_fire", cmt0_v.q | cmt1_v.q)
    m.name_signal("commit_pc", mux(cmt0_v.q, cmt0_pc.q, cmt1_pc.q))
    m.name_signal("fetch_ready", ~(if0_v.q | if1_v.q) | if_advance)
    m.name_signal("pack_fire", issue_fire1)
    m.name_signal(
        "pipe_quiesce",
        ~if0_v.q & ~if1_v.q & ~id0_v.q & ~id1_v.q & ~iss0_v.q & ~iss1_v.q
        & ~cmt0_v.q & ~cmt1_v.q,
    )
    # taint-introduction conditions: operands latch as results compute at issue
    m.name_signal(
        "intro_cond_rs1",
        (issue_fire0 & id0_pc.q.eq(taint_pc) | issue_fire1 & id1_pc.q.eq(taint_pc))
        & taint_rs1,
    )
    m.name_signal(
        "intro_cond_rs2",
        (issue_fire0 & id0_pc.q.eq(taint_pc) | issue_fire1 & id1_pc.q.eq(taint_pc))
        & taint_rs2,
    )

    pls: Dict[str, PerformingLocation] = {}
    ufsms: List[MicroFsm] = []

    def multi_pl(name, slot_exprs, ufsm_names):
        slots = []
        for i, (occ_expr, pc_node) in enumerate(slot_exprs):
            occ_sig = "pl_%s_occ%d" % (name, i)
            pc_sig = "pl_%s_pc%d" % (name, i)
            m.name_signal(occ_sig, occ_expr)
            m.name_signal(pc_sig, pc_node)
            slots.append(PlSlot(occ_sig, pc_sig))
        pls[name] = PerformingLocation(name=name, slots=tuple(slots), ufsms=tuple(ufsm_names))

    multi_pl("IF", [(if0_v.q, if0_pc.q), (if1_v.q, if1_pc.q)], ("ufsm_if0", "ufsm_if1"))
    multi_pl("ID", [(id0_v.q, id0_pc.q), (id1_v.q, id1_pc.q)], ("ufsm_id0", "ufsm_id1"))
    multi_pl("issue", [(iss0_v.q, iss0_pc.q), (iss1_v.q, iss1_pc.q)], ("ufsm_iss0", "ufsm_iss1"))
    multi_pl("scbIss", [(iss0_v.q, iss0_pc.q), (iss1_v.q, iss1_pc.q)], ("ufsm_scb0", "ufsm_scb1"))
    multi_pl("scbCmt", [(cmt0_v.q, cmt0_pc.q), (cmt1_v.q, cmt1_pc.q)], ("ufsm_cmt0", "ufsm_cmt1"))
    for name, pcr, vars_ in (
        ("ufsm_if0", "if0_pc", ("if0_v",)),
        ("ufsm_if1", "if1_pc", ("if1_v",)),
        ("ufsm_id0", "id0_pc", ("id0_v",)),
        ("ufsm_id1", "id1_pc", ("id1_v",)),
        ("ufsm_iss0", "iss0_pc", ("iss0_v",)),
        ("ufsm_iss1", "iss1_pc", ("iss1_v",)),
        ("ufsm_cmt0", "cmt0_pc", ("cmt0_v",)),
        ("ufsm_cmt1", "cmt1_pc", ("cmt1_v",)),
    ):
        ufsms.append(MicroFsm(name, pcr, vars_))

    netlist = elaborate(m)
    metadata = DesignMetadata(
        design_name=netlist.name,
        pls=pls,
        ufsms=tuple(ufsms),
        ifr_signal="IFR",
        commit_signal="commit_fire",
        commit_pc_signal="commit_pc",
        operand_registers=("iss0_res", "iss1_res"),
        arf_registers=tuple("arf_w%d" % i for i in range(cfg.nregs)),
        amem_registers=(),
        intro_cond_rs1="intro_cond_rs1",
        intro_cond_rs2="intro_cond_rs2",
        pc_bits=P,
    )
    return CoreDesign(netlist=netlist, metadata=metadata, config=cfg)


def oppack_context(pairs, overrides: Optional[Dict[str, int]] = None, *,
                   horizon: int, label: str = "") -> Context:
    """The CVA6-OP context feeding instruction pairs from reset.

    ``pairs``: sequence of (instr0_word, instr1_word_or_None); each pair
    is driven until ``fetch_ready`` accepts it.
    """
    steps = []
    for w0, w1 in pairs:
        inputs = {"in_valid0": 1, "in_instr0": w0}
        if w1 is not None:
            inputs.update(in_valid1=1, in_instr1=w1)
        steps.append((inputs, "fetch_ready"))
    return Context.scripted(overrides or {}, steps, horizon, label=label)
