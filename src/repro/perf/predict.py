"""Sequence-level cycle prediction from a compiled performance model.

The predictor replays a straight-line program against the per-instruction
latency tables and hazard rules of a :class:`~repro.perf.model.PerfModel`
with a scoreboard simulation that mirrors the core's in-order frontend:
IF/ID/ISS stages, the FIFO scoreboard with one-commit-per-cycle
retirement, per-unit structural occupancy, the store-to-load page-offset
matcher, and the committed-store drain port.  It never evaluates a
datapath -- operand values come from the architectural reference
(:func:`~repro.designs.harness.golden_steps`), which is sound because
the core's RAW and offset-match stalls guarantee every producer has
committed (or drained) before a consumer samples it.

The replay is cycle-exact by construction on the case-study cores: every
stall condition is derived from the same start-of-cycle state the RTL
computes it from, with register/FIFO updates applied at cycle end.  Each
dispatch also validates the latency it used against the synthesized
μPATH run-length set; a latency outside the set is recorded as an
``out_of_model`` event -- the completeness oracle's evidence that the
μPATH synthesis missed a path even when cycle counts happen to agree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..designs.harness import GoldenStep, golden_steps
from .model import PerfModel

__all__ = ["Prediction", "PredictError", "predict_program", "STALL_CLASSES"]

#: hazard classes the predictor accounts stall cycles to
STALL_CLASSES = (
    "raw",
    "struct_mul",
    "struct_div",
    "struct_load",
    "struct_store",
    "scb_full",
    "st_ld_offset",
    "st_drain_wait",
)


class PredictError(RuntimeError):
    """The program cannot be replayed against the model."""


@dataclass
class Prediction:
    """Predicted execution of one program."""

    cycles: int
    retire: Dict[int, int]  # pc -> predicted commit cycle
    dispatch: Dict[int, int]  # slot -> predicted dispatch cycle
    stalls: Dict[str, int]
    out_of_model: List[dict]
    arf: List[int]  # architectural results (golden reference)
    mem: List[int]
    steps: List[GoldenStep]  # the golden model's per-instruction steps

    @property
    def stall_cycles(self) -> int:
        return sum(self.stalls.values())


class _Entry:
    """One scoreboard entry: allocated at id-advance, released after CMT."""

    __slots__ = ("slot", "pc", "wen", "rd", "isst", "fin_from")

    def __init__(self, slot, pc, wen, rd, isst):
        self.slot = slot
        self.pc = pc
        self.wen = wen
        self.rd = rd
        self.isst = isst
        self.fin_from = None  # first cycle the entry is FIN (set at dispatch)

    def is_fin(self, t):
        return self.fin_from is not None and t >= self.fin_from


def predict_program(
    model: PerfModel,
    program: Sequence[int],
    arf_init: Optional[Sequence[int]] = None,
    *,
    max_cycles: Optional[int] = None,
) -> Prediction:
    """Replay ``program`` against ``model``; returns the :class:`Prediction`.

    ``cycles`` matches :func:`repro.designs.harness.run_program`'s
    definition: the cycle index of the first quiescent observation after
    the last fetch accept.  ``retire`` maps committed PCs to commit-
    observation cycles, exactly like ``ProgramRun.retire``.
    """
    xlen = model.xlen
    pc_mask = (1 << model.pc_bits) - 1
    off_mask = (1 << model.offset_bits) - 1
    arf_init = list(arf_init) if arf_init is not None else [0] * model.nregs
    steps, arf, mem = golden_steps(
        program,
        arf_init,
        xlen=xlen,
        mem_words=model.mem_words,
        pc_bits=model.pc_bits,
    )
    for step in steps:
        if step.name not in model.instrs:
            raise PredictError("no timing model for %s" % step.name)
    n = len(steps)
    if max_cycles is None:
        max_cycles = 200 + (xlen + 10) * max(1, n)

    # Per-slot timing is operand-determined, so latencies (and any
    # out-of-model evidence) are precomputable; the per-cycle loop then
    # only replays hazards.  Event dicts get their dispatch cycle filled
    # in when the slot actually issues.
    pre: List[Tuple[object, int, List[dict]]] = []
    for slot, step in enumerate(steps):
        timing = model.instrs[step.name]
        events: List[dict] = []
        try:
            lat = timing.latency(step.a, step.b, xlen)
        except KeyError:
            lat = timing.max_latency
            events.append({
                "kind": "operands-outside-model",
                "slot": slot, "pc": step.pc, "name": step.name,
                "latency": lat,
            })
        if lat not in timing.observed_latencies:
            events.append({
                "kind": "latency-not-in-upath-set",
                "slot": slot, "pc": step.pc, "name": step.name,
                "latency": lat,
                "observed": sorted(timing.observed_latencies),
            })
        pre.append((timing, lat, events))

    # ---- machine state (start-of-cycle view; updates applied at cycle end)
    if_slot: Optional[int] = None
    id_slot: Optional[int] = None
    iss_slot: Optional[int] = None
    entries: List[_Entry] = []  # allocated, not yet committing (FIFO)
    by_slot: Dict[int, _Entry] = {}
    cmt: Optional[_Entry] = None  # the entry committing this cycle
    mul_until = -1  # last cycle the multiplier is occupied
    div_until = -1
    ld_state = 0  # 0 idle | 1 stalled (ldStall) | 2 finishing (ldFin)
    ld_off = 0  # page offset of the load in the unit
    ld_entry: Optional[_Entry] = None
    lsq = False
    sstb: deque = deque()  # (pc, off) speculative stores, FIFO
    sstb_young = 0  # how many at its tail dispatched after the stalled load
    cstb: deque = deque()  # (pc, off) committed stores awaiting drain
    drain: Optional[Tuple[int, int]] = None  # store draining this cycle

    ptr = 0
    last_accept = -1
    cycles = None
    retire: Dict[int, int] = {}
    dispatch: Dict[int, int] = {}
    stalls = {cls: 0 for cls in STALL_CLASSES}
    out_of_model: List[dict] = []

    def _match(off, older_only=False):
        older = len(sstb) - sstb_young if older_only else len(sstb)
        for i, (_, o) in enumerate(sstb):
            if i < older and o == off:
                return True
        for _, o in cstb:
            if o == off:
                return True
        return drain is not None and drain[1] == off

    for t in range(max_cycles):
        # ------------------------------------------------ compute phase
        if (
            ptr >= n
            and t > last_accept
            and if_slot is None
            and id_slot is None
            and iss_slot is None
            and not entries
            and cmt is None
            and t > mul_until
            and t > div_until
            and ld_state == 0
            and not lsq
            and not sstb
            and not cstb
            and drain is None
        ):
            cycles = t
            break

        st_commit = False
        if cmt is not None:
            retire.setdefault(cmt.pc, t)
            st_commit = cmt.isst

        # load unit: a stalled load re-checks the offset matcher each
        # cycle, against the stores older than it
        ld_stalled = ld_state == 1
        ld_mem_now = ld_state == 2
        ld_unstall = ld_stalled and not _match(ld_off, older_only=True)
        ld_will_access = ld_unstall
        if ld_state == 1:
            stalls["st_ld_offset"] += 1

        # dispatch (the issue-stage occupant always advances)
        goes_stall = goes_fin = False
        disp_load = disp_store = False
        if iss_slot is not None:
            step = steps[iss_slot]
            timing, lat, events = pre[iss_slot]
            dispatch[iss_slot] = t
            entry = by_slot[iss_slot]
            for event in events:
                out_of_model.append(dict(event, cycle=t))
            if timing.unit == "mul":
                mul_until = t + lat
                entry.fin_from = t + lat + 1
            elif timing.unit == "div":
                div_until = t + lat
                entry.fin_from = t + lat + 1
            elif timing.unit == "store":
                disp_store = True
                entry.fin_from = t + 1
            elif timing.unit == "load":
                disp_load = True
                if _match(step.addr & off_mask):
                    goes_stall = True
                else:
                    goes_fin = True
                    ld_will_access = True
                    entry.fin_from = t + lat + 1
            else:  # alu
                entry.fin_from = t + lat + 1

        # the committed-store drain yields the memory port to loads
        drain_fire = bool(cstb) and not ld_will_access and not ld_mem_now
        if cstb and not drain_fire:
            stalls["st_drain_wait"] += 1

        # ID-stage hazards (start-of-cycle scoreboard/unit/buffer state)
        id_adv = False
        if id_slot is not None:
            step = steps[id_slot]
            timing = pre[id_slot][0]
            active = entries if cmt is None else entries + [cmt]
            raw = False
            for e in active:
                if e.wen and (
                    (timing.reads_rs1 and e.rd == step.rs1)
                    or (timing.reads_rs2 and e.rd == step.rs2)
                ):
                    raw = True
                    break
            iss_unit = pre[iss_slot][0].unit if iss_slot is not None else None
            struct = None
            if timing.unit == "mul" and (t <= mul_until or iss_unit == "mul"):
                struct = "struct_mul"
            elif timing.unit == "div" and (t <= div_until or iss_unit == "div"):
                struct = "struct_div"
            elif timing.unit == "load" and (
                ld_state == 1 or lsq or iss_unit == "load"
            ):
                struct = "struct_load"
            elif timing.unit == "store" and (
                len(sstb) + (1 if iss_unit == "store" else 0)
                >= model.stb_entries
            ):
                struct = "struct_store"
            scb_full = len(active) >= model.scb_limit
            id_adv = not raw and struct is None and not scb_full
            if not id_adv:
                if raw:
                    stalls["raw"] += 1
                if struct is not None:
                    stalls[struct] += 1
                if scb_full:
                    stalls["scb_full"] += 1

        if_adv = if_slot is not None and (id_slot is None or id_adv)
        accept = ptr < n and (if_slot is None or if_adv)

        # ------------------------------------------------- update phase
        # commit: head FIN -> CMT next cycle; CMT entry releases
        cmt = None
        if entries and entries[0].is_fin(t):
            cmt = entries.pop(0)
        # store commit moves the specSTB head to the comSTB tail; pop the
        # drain BEFORE the push so the new entry is invisible this cycle
        drain = cstb.popleft() if drain_fire else None
        if st_commit:
            cstb.append(sstb.popleft())

        # load unit
        if goes_stall:
            ld_state = 1
            lsq = True
            ld_off = steps[iss_slot].addr & off_mask
            ld_entry = by_slot[iss_slot]
        elif goes_fin or ld_unstall:
            if ld_unstall:
                ld_entry.fin_from = t + 2
                lsq = False
            if goes_fin:
                ld_entry = by_slot[iss_slot]
                ld_off = steps[iss_slot].addr & off_mask
            ld_state = 2
        elif ld_mem_now:
            ld_state = 0

        if disp_store:
            step = steps[iss_slot]
            sstb.append((step.pc, step.addr & off_mask))
        sstb_young = sstb_young + disp_store if ld_stalled else 0

        # frontend
        iss_slot = id_slot if id_adv else None
        if id_adv:
            step = steps[id_slot]
            timing = pre[id_slot][0]
            entry = _Entry(
                slot=step.slot,
                pc=step.pc,
                wen=timing.writes_rd and step.rd != 0,
                rd=step.rd,
                isst=timing.unit == "store",
            )
            entries.append(entry)
            by_slot[step.slot] = entry
        if if_adv:
            id_slot = if_slot
            if_slot = None
        elif id_adv:
            id_slot = None
        if accept:
            if_slot = ptr
            ptr += 1
            last_accept = t

    if cycles is None:
        raise PredictError(
            "prediction did not quiesce within %d cycles" % max_cycles
        )
    return Prediction(
        cycles=cycles,
        retire=retire,
        dispatch=dispatch,
        stalls=stalls,
        out_of_model=out_of_model,
        arf=arf,
        mem=mem,
        steps=steps,
    )
