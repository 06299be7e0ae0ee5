"""SynthLC: leakage-signature synthesis (paper SS IV-D, SS V-C).

Pipeline:

1. RTL2MuPATH supplies each instruction's complete uPATH set and decisions;
   instructions with more than one uPATH are *candidate transponders*.
2. The DUV is augmented with CellIFT-style taint logic
   (:mod:`repro.ift.cellift`): one taint bit per data bit, introduction at
   the operand register of the transmitter instance iT while it passes
   issue, architectural blocking at ARF/AMEM, and a flush strobe realizing
   Assumption 3's sticky-taint clearing.
3. For every candidate transponder P, every decision (src, dst), every
   transmitter/operand pair (T, op), and every typing assumption of Fig. 7
   (intrinsic / older dynamic / younger dynamic / static), a decision-taint
   cover asks: does P visit src one cycle before visiting *exactly* the
   PLs in dst with a tainted destination uFSM?  Reachable covers tag the
   decision as dependent on T's unsafe operand op.
4. Decision sources with at least two transmitter-operand-dependent
   decisions yield leakage signatures (footnote 3's two-decision rule).

Beyond the paper's flow, :class:`SynthLC` optionally runs a *differential
cross-check*: it replays the taint contexts grouped by everything except
T's swept operand and asks whether P's decision actually varies, labelling
taint-only tags as possible IFT false positives (the paper's SS VII-B1
analysis, which there required manual inspection).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..designs import isa
from ..ift.cellift import IftConfig, IftDesign, instrument_ift
from ..mc.enumerative import TraceDB
from ..mc.outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult
from ..mc.stats import PropertyStats
from ..sim.simulator import simulation_key
from .decisions import Decision
from .pl import DesignMetadata
from .rtl2mupath import MuPathResult

__all__ = [
    "TransmitterTag",
    "LeakageSignature",
    "SynthLCConfig",
    "SynthLCResult",
    "SynthLC",
    "instrument_design",
]

ASSUMPTIONS = ("intrinsic", "dynamic_older", "dynamic_younger", "static")

_TYPE_MARK = {
    "intrinsic": "N",
    "dynamic_older": "D_O",
    "dynamic_younger": "D_Y",
    "static": "S",
}


@dataclass(frozen=True)
class TransmitterTag:
    """A typed transmitter input to a leakage function."""

    transmitter: str
    ttype: str  # one of ASSUMPTIONS
    operand: str  # "rs1" | "rs2"
    false_positive: bool = False  # set by the differential cross-check

    def render(self) -> str:
        return "%s^%s.%s" % (self.transmitter, _TYPE_MARK[self.ttype], self.operand)


@dataclass
class LeakageSignature:
    """A leakage function restricted to its signature components (SS IV-D)."""

    transponder: str
    src: str
    destinations: Tuple[FrozenSet[str], ...]
    inputs: Tuple[TransmitterTag, ...]

    @property
    def name(self) -> str:
        return "%s_%s" % (self.transponder, self.src)

    @property
    def output_range(self) -> int:
        return len(self.destinations)

    def has_false_positive_inputs(self) -> bool:
        return any(tag.false_positive for tag in self.inputs)

    def render(self) -> str:
        """Fig. 5-style textual rendering of the signature."""
        args = ", ".join(tag.render() for tag in self.inputs)
        dsts = " | ".join(
            "{%s}" % ", ".join(sorted(dst)) if dst else "{squash}"
            for dst in self.destinations
        )
        return "dst %s(%s) -> %s" % (self.name, args, dsts)


@dataclass
class SynthLCConfig:
    operands: Tuple[str, ...] = ("rs1", "rs2")
    assumptions: Tuple[str, ...] = ASSUMPTIONS
    differential_check: bool = True
    undetermined_as: str = UNREACHABLE  # SS VII-B4


@dataclass
class SynthLCResult:
    signatures: List[LeakageSignature]
    transponders: List[str]  # instructions with >1 uPATH and >=1 signature
    candidate_transponders: List[str]
    transmitters: Dict[str, Set[str]]  # ttype -> instruction names
    tags_by_decision: Dict[Tuple[str, str, FrozenSet[str]], Set[TransmitterTag]]
    stats: PropertyStats

    @property
    def intrinsic_transmitters(self) -> Set[str]:
        return set(self.transmitters.get("intrinsic", set()))

    @property
    def dynamic_transmitters(self) -> Set[str]:
        return set(self.transmitters.get("dynamic_older", set())) | set(
            self.transmitters.get("dynamic_younger", set())
        )

    @property
    def static_transmitters(self) -> Set[str]:
        return set(self.transmitters.get("static", set()))

    def signatures_for(self, transponder: str) -> List[LeakageSignature]:
        return [s for s in self.signatures if s.transponder == transponder]


# (netlist content key, IFT config) -> instrumented design, held weakly:
# while a tool holds an instrumentation, a tool rebuilt in the same process
# from a job recipe (the engine's inline SynthLC jobs) reuses it
_INSTRUMENTED: "weakref.WeakValueDictionary[tuple, IftDesign]" = (
    weakref.WeakValueDictionary()
)


def instrument_design(design, extra_persistent: Iterable[str] = ()):
    """IFT-instrument a design per its metadata (SS V-A's final two inputs).

    The instrumentation is a pure function of the netlist and the IFT
    config, so equal inputs share one live :class:`IftDesign`, keyed by
    :func:`~repro.sim.simulator.simulation_key` as the compile memo is.
    """
    md: DesignMetadata = design.metadata
    introduce_map = {}
    if md.intro_cond_rs1:
        introduce_map[md.operand_registers[0]] = md.intro_cond_rs1
    if md.intro_cond_rs2 and len(md.operand_registers) > 1:
        introduce_map[md.operand_registers[1]] = md.intro_cond_rs2
    config = IftConfig(
        introduce_map=introduce_map,
        blocked_registers=frozenset(md.arf_registers) | frozenset(md.amem_registers),
        persistent_registers=frozenset(md.persistent_registers)
        | frozenset(extra_persistent),
        add_flush=True,
    )
    # the config fields set above; the others keep their defaults
    key = (
        simulation_key(design.netlist),
        tuple(sorted(introduce_map.items())),
        config.blocked_registers,
        config.persistent_registers,
    )
    ift = _INSTRUMENTED.get(key)
    if ift is None:
        ift = _INSTRUMENTED[key] = instrument_ift(design.netlist, config)
    return ift


class _TaintIndex:
    """Per-trace profiles on the IFT-instrumented DUV.

    For transponder PC ``p_pc`` and transmitter PC ``t_pc``:
    ``visits[t]`` -- PLs visited by iP; ``tainted[t]`` -- PLs visited by iP
    whose occupancy condition carries taint; ``t_inflight[t]`` -- iT
    occupies some PL; ``flush_tainted[t]`` -- the flush strobe is tainted
    (destination evidence for squash decisions, whose destination set is
    empty and therefore has no uFSM to inspect).
    """

    def __init__(self, tracedb: TraceDB, metadata: DesignMetadata, p_pc: int, t_pc: int):
        self.complete = tracedb.complete
        self.traces = []
        pls = metadata.pls
        first = tracedb.views[0] if tracedb.views else None
        if first is None:
            return
        index = first.index
        slots = []
        for name, pl in pls.items():
            for slot in pl.slots:
                slots.append(
                    (
                        name,
                        index[slot.occ_signal],
                        index[slot.pc_signal],
                        index.get(slot.taint_probe + "__tainted"),
                    )
                )
        flush_taint_i = index.get("flush_fire__tainted")
        for view in tracedb.views:
            visits: List[FrozenSet[str]] = []
            tainted: List[FrozenSet[str]] = []
            t_inflight: List[bool] = []
            flush_tainted: List[bool] = []
            prev_row = None
            for row in view.cycles:
                # an elided cycle repeats the previous row object (DESIGN
                # SS5m), hence its profile; equal but distinct rows compute
                if row is not prev_row:
                    prev_row = row
                    vset = set()
                    tset = set()
                    t_fly = False
                    for name, occ_i, pc_i, taint_i in slots:
                        if row[occ_i]:
                            pc = row[pc_i]
                            if pc == p_pc:
                                vset.add(name)
                                if taint_i is not None and row[taint_i]:
                                    tset.add(name)
                            if pc == t_pc:
                                t_fly = True
                    vset = frozenset(vset)
                    tset = frozenset(tset)
                    f_taint = (
                        bool(row[flush_taint_i])
                        if flush_taint_i is not None
                        else False
                    )
                visits.append(vset)
                tainted.append(tset)
                t_inflight.append(t_fly)
                flush_tainted.append(f_taint)
            self.traces.append((visits, tainted, t_inflight, flush_tainted))


class SynthLC:
    """The leakage-signature synthesis tool."""

    def __init__(
        self,
        design,
        provider,  # taint-context provider (instrumented=True families)
        config: Optional[SynthLCConfig] = None,
        stats: Optional[PropertyStats] = None,
        extra_persistent: Iterable[str] = (),
    ):
        self.design = design
        self.metadata: DesignMetadata = design.metadata
        self.provider = provider
        self.config = config or SynthLCConfig()
        self.stats = stats if stats is not None else PropertyStats(label="synthlc")
        self.extra_persistent = tuple(extra_persistent)
        with obs.span("phase.ift"):
            self.ift = instrument_design(design, extra_persistent=extra_persistent)

    # ------------------------------------------------------------------ main
    def classify(
        self,
        mupath_results: Dict[str, MuPathResult],
        transmitters: Optional[Sequence[str]] = None,
        engine=None,
    ) -> SynthLCResult:
        """Synthesize leakage signatures.

        ``mupath_results`` maps instruction name -> RTL2MuPATH output;
        ``transmitters`` restricts the candidate transmitter list (default:
        every instruction with uPATH results).  Passing a
        :class:`repro.engine.JobScheduler` as ``engine`` fans the
        independent (transponder, transmitter, assumption, operand)
        classification runs across worker processes with proof-cache
        reuse; results and property accounting are identical to the
        serial path.
        """
        candidates = [
            name for name, res in mupath_results.items() if res.multi_path
        ]
        tags_by_decision: Dict[Tuple[str, str, FrozenSet[str]], Set[TransmitterTag]] = {}
        found_types: Dict[str, Set[str]] = {a: set() for a in ASSUMPTIONS}
        items = self._work_items(
            mupath_results, list(transmitters or mupath_results), candidates
        )

        if engine is None:
            for p_name, t_name, assumption, operand, decision_list in items:
                self._classify_one(
                    p_name,
                    t_name,
                    assumption,
                    operand,
                    decision_list,
                    tags_by_decision,
                    found_types,
                )
        else:
            from ..engine.specs import synthlc_jobs_for

            jobs = synthlc_jobs_for(self, items)
            outcome = engine.run(jobs, stats=self.stats)
            for job in jobs:
                for src, dst, t_name, ttype, operand, fp in (
                    outcome.results[job.job_id] or ()
                ):
                    tag = TransmitterTag(
                        transmitter=t_name,
                        ttype=ttype,
                        operand=operand,
                        false_positive=bool(fp),
                    )
                    key = (job.transponder, src, frozenset(dst))
                    tags_by_decision.setdefault(key, set()).add(tag)
                    if not tag.false_positive:
                        found_types[ttype].add(t_name)

        signatures = self._build_signatures(mupath_results, candidates, tags_by_decision)
        transponders = sorted({s.transponder for s in signatures})
        return SynthLCResult(
            signatures=signatures,
            transponders=transponders,
            candidate_transponders=sorted(candidates),
            transmitters={k: v for k, v in found_types.items()},
            tags_by_decision=tags_by_decision,
            stats=self.stats,
        )

    # ------------------------------------------------------------ internals
    def _work_items(self, mupath_results, transmitter_list, candidates):
        """Enumerate the independent classification runs.

        Each yielded (transponder, transmitter, assumption, operand,
        decision_list) tuple is one unit of schedulable work; the list is
        the engine's job granularity and the serial path's loop nest.
        """
        cfg = self.config
        items = []
        for p_name in candidates:
            decision_list = mupath_results[p_name].decisions.decisions()
            if not decision_list:
                continue
            for t_name in transmitter_list:
                spec = isa.BY_NAME.get(t_name)
                for assumption in cfg.assumptions:
                    if assumption == "intrinsic" and t_name != p_name:
                        continue
                    for operand in cfg.operands:
                        if spec is not None:
                            if operand == "rs1" and not spec.reads_rs1:
                                continue
                            if operand == "rs2" and not spec.reads_rs2:
                                continue
                        items.append(
                            (p_name, t_name, assumption, operand, decision_list)
                        )
        return items

    def _classify_one(
        self,
        p_name: str,
        t_name: str,
        assumption: str,
        operand: str,
        decision_list: List[Decision],
        tags_by_decision,
        found_types,
    ):
        with obs.span(
            "synthlc.classify_one",
            transponder=p_name,
            transmitter=t_name,
            assumption=assumption,
            operand=operand,
        ):
            self._classify_one_inner(
                p_name, t_name, assumption, operand, decision_list,
                tags_by_decision, found_types,
            )

    def _classify_one_inner(
        self,
        p_name: str,
        t_name: str,
        assumption: str,
        operand: str,
        decision_list: List[Decision],
        tags_by_decision,
        found_types,
    ):
        groups = self.provider.taint_groups(p_name, t_name, assumption, operand)
        for group in groups:
            with obs.span("phase.elaborate"):
                db = TraceDB(self.ift.netlist, group.contexts, group.complete)
                # one transmitter PC per group: encoded in the driver's
                # TaintSpec; recovering it from the first context's label-free
                # structure is brittle, so providers put it in group via slot
                # convention:
                t_pc = getattr(group, "taint_pc", None)
                if t_pc is None:
                    # transmitter occupies the non-IUV slot in two-slot programs
                    t_pc = group.iuv_pc - 4 if assumption != "dynamic_younger" else group.iuv_pc + 4
                    if assumption == "intrinsic":
                        t_pc = group.iuv_pc
                tindex = _TaintIndex(db, self.metadata, group.iuv_pc, t_pc)
            dynamic = assumption in ("dynamic_older", "dynamic_younger")
            with obs.span("phase.cover.taint"):
                for decision in decision_list:
                    started = time.perf_counter()
                    hit = self._decision_taint_cover(tindex, decision, dynamic)
                    outcome = (
                        REACHABLE
                        if hit
                        else (UNREACHABLE if tindex.complete else UNDETERMINED)
                    )
                    self._record(
                        "taint_%s_%s_%s_%s_%s"
                        % (p_name, t_name, assumption, operand, decision.src),
                        outcome,
                        started,
                    )
                    if outcome == UNDETERMINED:
                        outcome = self.config.undetermined_as
                    if outcome != REACHABLE:
                        continue
                    false_positive = False
                    if self.config.differential_check:
                        false_positive = not self._differential_varies(
                            db, tindex, decision, assumption
                        )
                    tag = TransmitterTag(
                        transmitter=t_name,
                        ttype=assumption,
                        operand=operand,
                        false_positive=false_positive,
                    )
                    key = (p_name, decision.src, decision.dst)
                    tags_by_decision.setdefault(key, set()).add(tag)
                    if not false_positive:
                        found_types[assumption].add(t_name)

    @staticmethod
    def _decision_taint_cover(tindex: _TaintIndex, decision: Decision, dynamic: bool) -> bool:
        """The SS V-C1 cover: src ##1 (exact dst & tainted destination)."""
        src, dst = decision.src, decision.dst
        for visits, tainted, t_inflight, flush_tainted in tindex.traces:
            horizon = len(visits)
            for t in range(horizon - 1):
                if src not in visits[t]:
                    continue
                if visits[t + 1] != dst:
                    continue
                if dynamic and not t_inflight[t]:
                    continue
                if dst:
                    if tainted[t + 1] & dst:
                        return True
                else:
                    # squash arm: the flush control carries the taint
                    if flush_tainted[t]:
                        return True
        return False

    def _differential_varies(self, db: TraceDB, tindex: _TaintIndex, decision: Decision,
                             assumption: str) -> bool:
        """Ground-truth check: does P's decision at src actually vary with
        the transmitter's swept operand values?

        Contexts carry machine-parsable labels ``prefix|v1,v2|w...``; the
        grouping key holds everything fixed except the transmitter's
        operands (the IUV's own values for intrinsic runs, the neighbour's
        otherwise).  Taint-positive tags with no observed variation in any
        group are flagged as possible IFT over-taint (SS VII-B1)."""
        by_key: Dict[Tuple[str, str], Set[FrozenSet[str]]] = {}
        for context, (visits, _, _, _) in zip(db.contexts, tindex.traces):
            label = getattr(context, "label", "")
            parts = label.split("|")
            if len(parts) != 3:
                key = (label, "")
            elif assumption == "intrinsic":
                key = (parts[0], parts[2])  # vary the IUV's own operands
            else:
                key = (parts[0], parts[1])  # vary the neighbour's operands
            dsts = set()
            for t in range(len(visits) - 1):
                if decision.src in visits[t]:
                    dsts.add(visits[t + 1])
            if dsts:
                by_key.setdefault(key, set()).update(dsts)
        return any(len(dsts) > 1 for dsts in by_key.values())

    def _build_signatures(self, mupath_results, candidates, tags_by_decision):
        signatures: List[LeakageSignature] = []
        for p_name in sorted(candidates):
            decisions = mupath_results[p_name].decisions
            for src in decisions.sources:
                dsts = decisions.destinations(src)
                tagged = [
                    dst
                    for dst in dsts
                    if tags_by_decision.get((p_name, src, dst))
                ]
                # footnote 3: at least two operand-dependent decisions are
                # needed to yield >1 receiver observations
                if len(tagged) < 2:
                    continue
                inputs: Set[TransmitterTag] = set()
                for dst in tagged:
                    inputs |= tags_by_decision.get((p_name, src, dst), set())
                # a (T, type, operand) confirmed true in any context group
                # supersedes the false-positive verdict from another group
                confirmed = {
                    (t.transmitter, t.ttype, t.operand)
                    for t in inputs
                    if not t.false_positive
                }
                inputs = {
                    t
                    for t in inputs
                    if not (
                        t.false_positive
                        and (t.transmitter, t.ttype, t.operand) in confirmed
                    )
                }
                signatures.append(
                    LeakageSignature(
                        transponder=p_name,
                        src=src,
                        destinations=tuple(sorted(dsts, key=sorted)),
                        inputs=tuple(
                            sorted(inputs, key=lambda x: (x.transmitter, x.ttype, x.operand))
                        ),
                    )
                )
        return signatures

    def _record(self, name, outcome, started):
        from ..faults import injection_point

        injection_point("solver.check", query=name)
        elapsed = time.perf_counter() - started
        self.stats.record(
            CheckResult(
                query_name=name,
                outcome=outcome,
                engine="enumerative-indexed",
                time_seconds=elapsed,
            )
        )
        obs.note_property(outcome, elapsed)
