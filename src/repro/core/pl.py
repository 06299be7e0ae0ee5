"""Micro-op FSMs and performing locations (paper SS III-C).

A micro-op FSM (uFSM) is a tuple <iir, vars>: an instruction-identifying
register (for us, as for RTL2MuPATH, a program-counter register -- PCR)
plus state-variable registers.  A performing location (PL) is <ufsm,
state>: one valid, non-idle valuation of a uFSM's vars.  An instruction
*visits* a PL in a cycle when, at the start of that cycle, the uFSM's IIR
holds the instruction's PC and its vars equal the PL's state.

Designs expose each PL through two named netlist signals per *slot*:

* ``<occ>``  -- 1-bit: the uFSM's vars currently equal this PL's state;
* ``<pc>``   -- the PCR word identifying the occupying instruction.

Symmetric structures (scoreboard entries, store-buffer entries) consist of
several uFSMs that implement the same pipeline role; their PLs are grouped
into one :class:`PerformingLocation` with multiple slots.  This grouping is
how the tools obtain the row labels of the paper's uHB figures (scbIss,
comSTB, ...) while the per-entry uFSMs remain visible in the metadata for
Table II accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..props.exprs import CycleExpr, all_of, any_of, eq, sig

__all__ = ["MicroFsm", "PerformingLocation", "DesignMetadata"]


@dataclass(frozen=True)
class MicroFsm:
    """One micro-op FSM: its PCR (IIR) and state-variable registers."""

    name: str
    pcr: str  # register holding the occupying instruction's PC
    state_vars: Tuple[str, ...]  # registers encoding the FSM state
    pcr_added: bool = False  # True when the PCR exists only for verification


@dataclass(frozen=True)
class PlSlot:
    """One concrete uFSM slot of a PL: its occupancy and PCR signal names.

    ``probe_signal`` optionally names a wider signal (e.g. the concatenated
    uFSM state variables) whose taint companion SynthLC consults when
    checking whether "the uFSM of a decision destination is tainted"
    (SS V-C1); it defaults to the occupancy condition itself.
    """

    occ_signal: str
    pc_signal: str
    probe_signal: Optional[str] = None

    @property
    def taint_probe(self) -> str:
        return self.probe_signal or self.occ_signal


@dataclass(frozen=True)
class PerformingLocation:
    """A (possibly multi-slot) performing location."""

    name: str
    slots: Tuple[PlSlot, ...]
    ufsms: Tuple[str, ...] = ()  # names of the uFSMs backing each slot

    # ---------------------------------------------------------- expressions
    def occupied(self) -> CycleExpr:
        """Some instruction occupies this PL this cycle."""
        return any_of(*(sig(slot.occ_signal) for slot in self.slots))

    def visited_by(self, pc: int) -> CycleExpr:
        """Instruction with identifier ``pc`` occupies this PL this cycle."""
        return any_of(
            *(
                all_of(sig(slot.occ_signal), eq(slot.pc_signal, pc))
                for slot in self.slots
            )
        )

    def tainted_visit_by(self, pc: int) -> CycleExpr:
        """``pc`` occupies this PL and the occupancy condition is tainted.

        Relies on the IFT instrumentation exposing ``<occ>__tainted``
        companions for every named signal.
        """
        return any_of(
            *(
                all_of(
                    sig(slot.occ_signal),
                    eq(slot.pc_signal, pc),
                    sig(slot.taint_probe + "__tainted"),
                )
                for slot in self.slots
            )
        )


@dataclass
class DesignMetadata:
    """The user-supplied annotations of SS V-A, as one object.

    Mirrors Table II's inventory: the IFR, the uFSM list (with which PCRs
    were added for verification), the commit signal, operand registers, and
    the ARF / AMEM register groups for taint blocking.
    """

    design_name: str
    pls: Dict[str, PerformingLocation]
    ufsms: Tuple[MicroFsm, ...]
    ifr_signal: str  # named signal carrying fetched encodings
    commit_signal: str  # 1-bit commit strobe
    commit_pc_signal: str  # PC word of the committing instruction
    operand_registers: Tuple[str, ...]  # issue-stage operand value registers
    arf_registers: Tuple[str, ...]
    amem_registers: Tuple[str, ...]
    persistent_registers: Tuple[str, ...] = ()
    intro_cond_rs1: Optional[str] = None  # taint-introduction condition signals
    intro_cond_rs2: Optional[str] = None
    pc_bits: int = 8
    idle_note: str = "idle states are the all-zero vars valuations"
    # encodable-but-invalid vars valuations, pruned by RTL2MuPATH step 1
    candidate_pls: Dict[str, PerformingLocation] = field(default_factory=dict)

    def pl(self, name: str) -> PerformingLocation:
        return self.pls[name]

    def pl_names(self) -> List[str]:
        return list(self.pls)

    def iuv_inflight(self, pc: int) -> CycleExpr:
        """``pc`` occupies at least one PL this cycle."""
        return any_of(*(pl.visited_by(pc) for pl in self.pls.values()))

    def iuv_gone(self, pc: int) -> CycleExpr:
        """``pc`` occupies no PL this cycle (the SS V-B4 gating condition)."""
        return ~self.iuv_inflight(pc)

    def annotation_counts(self) -> Dict[str, int]:
        """Table II-style accounting of the metadata burden."""
        added_pcrs = sum(1 for fsm in self.ufsms if fsm.pcr_added)
        return {
            "ufsms": len(self.ufsms),
            "pcrs": len({fsm.pcr for fsm in self.ufsms}),
            "pcrs_added": added_pcrs,
            "state_var_registers": len(
                {var for fsm in self.ufsms for var in fsm.state_vars}
            ),
            "pls": len(self.pls),
            "pl_slots": sum(len(pl.slots) for pl in self.pls.values()),
            "operand_registers": len(self.operand_registers),
            "arf_registers": len(self.arf_registers),
            "amem_registers": len(self.amem_registers),
        }
