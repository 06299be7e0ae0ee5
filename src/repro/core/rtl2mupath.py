"""RTL2MuPATH: multi-uPATH synthesis (paper SS V-B).

Given a design (netlist + metadata), instruction encodings, and a context
provider, the pipeline runs the paper's six steps per instruction under
verification (IUV):

1. **PL reachability for the DUV** -- enumerate candidate PLs (all non-idle
   vars valuations, including invalid encodings) and prune those proven
   unreachable by any instruction.  Invalid encodings are discharged with
   unbounded k-induction proofs; valid PLs are witnessed by covers.
2. **PL reachability for the IUV** -- prune PLs the IUV can never visit.
3. **Fine-grained pruning** -- derive ``dominates`` and ``exclusive``
   relations between IUV PLs from cover properties, pruning the power set
   of candidate Reachable PL Sets.
4. **PL-set reachability** -- for each surviving candidate set, cover "the
   IUV visited exactly these PLs and has disappeared"; then classify each
   PL of each reachable set as consecutively / non-consecutively revisited.
5. **Happens-before edges** -- candidate edges are PL pairs connected via
   pure combinational logic (static netlist analysis); each is proven per
   reachable set with an ``a ##1 b`` cover.
6. **Cycle-accurate uPATHs** -- revisit cycle counts per PL (for SDO's
   data-oblivious variants) and fully concrete uPATHs.

Engine note: cover evaluation over an enumerated context family reduces to
scanning the recorded traces.  The pipeline therefore builds one
*visit-profile index* per (context group, IUV), holding one concrete path
per context, and answers each template query from it.  Every template is
a function of a path's visits, and a family's paths collapse to few
distinct values, so each cover scans the *distinct* paths in order of
first occurrence: the IUV-PL, dominates, exclusive and PL-set covers are
set algebra over the distinct PL sets, and the revisit, run-length and
happens-before covers are answered once per distinct visit sequence.
The first matching distinct path is the first matching path, so every
witness and certificate is the one a per-path scan gives (DESIGN SS5n).
Every answered template is still recorded individually in
:class:`~repro.mc.stats.PropertyStats`, reproducing the paper's property
accounting (SS VII-B3).  The test suite cross-checks indexed answers
against direct :class:`~repro.props.query.Query` evaluation, against the
per-path loops, and against the SAT-based BMC engine on the same
templates.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..mc.enumerative import TraceDB
from ..mc.kinduction import prove_unreachable_kinduction
from ..mc.outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult
from ..mc.stats import PropertyStats
from ..rtl.analysis import connectivity_matrix
from ..rtl.netlist import Netlist
from ..solver.bitblast import paused_gc
from .decisions import DecisionSet, extract_decisions
from .mhb import CycleAccuratePath, build_slot_index, extract_path
from .pl import DesignMetadata

__all__ = ["Rtl2MuPathConfig", "UPathSummary", "MuPathResult", "Rtl2MuPath", "VisitIndex"]


# cap on the candidate Reachable PL Sets step 4 enumerates per IUV
MAX_CANDIDATE_SETS = 4096
# SAT conflict budget of each DUV-level k-induction proof (step 1)
INDUCTION_CONFLICT_BUDGET = 400000


@dataclass
class Rtl2MuPathConfig:
    undetermined_as: str = UNREACHABLE  # SS VII-B4 interpretation
    induction_k: int = 1
    incremental: bool = True  # shared growing proof context per design
    # verdict certification (repro.cert): "off" | "full".  The mode is
    # excluded from proof-cache keys -- certification changes whether a
    # verdict is *checked*, never what the verdict is
    certify: str = "off"

    @property
    def certified(self) -> bool:
        """The engines' ``certify`` flag; raises on an unknown mode."""
        from ..cert import certify_flag

        return certify_flag(self.certify)


@dataclass
class UPathSummary:
    """One formally verified Reachable PL Set with its structure."""

    pl_set: FrozenSet[str]
    revisit: Dict[str, str]  # pl -> none|consecutive|nonconsecutive|both
    hb_edges: FrozenSet[Tuple[str, str]]
    run_lengths: Dict[str, FrozenSet[int]]
    example: Optional[CycleAccuratePath] = None

    def __repr__(self):
        return "UPathSummary({%s})" % ", ".join(sorted(self.pl_set))


@dataclass
class MuPathResult:
    """Complete RTL2MuPATH output for one IUV."""

    iuv: str
    iuv_pls: FrozenSet[str]
    dominates: FrozenSet[Tuple[str, str]]
    exclusive: FrozenSet[FrozenSet[str]]
    candidate_sets_considered: int
    naive_power_set_size: int
    upaths: List[UPathSummary]
    concrete_paths: List[CycleAccuratePath]
    decisions: DecisionSet
    run_lengths: Dict[str, FrozenSet[int]]
    truncated: bool  # any context family truncated -> completeness caveat

    @property
    def num_upaths(self) -> int:
        return len(self.upaths)

    @property
    def multi_path(self) -> bool:
        """More than one uPATH: the RTL2uSPEC single-path assumption fails."""
        return len(self.concrete_paths) > 1


class VisitIndex:
    """Per-(context group, IUV) aggregation of concrete visit profiles."""

    def __init__(self, tracedb: TraceDB, metadata: DesignMetadata, iuv_pc: int):
        self.iuv_pc = iuv_pc
        self.complete = tracedb.complete
        self.paths: List[CycleAccuratePath] = []
        pls = metadata.pls
        slot_index = None
        # views of equal contexts share one rows list, hence one path
        by_rows: Dict[int, CycleAccuratePath] = {}
        for view in tracedb.views:
            if slot_index is None:
                slot_index = build_slot_index(pls, view.index)
            path = by_rows.get(id(view.cycles))
            if path is None:
                path = extract_path(view, pls, iuv_pc, slot_index=slot_index)
                by_rows[id(view.cycles)] = path
            self.paths.append(path)


def _first_occurrences(paths: Sequence[CycleAccuratePath]) -> List[CycleAccuratePath]:
    """The distinct values of ``paths``, in order of first occurrence."""
    return list(dict.fromkeys(paths))


class _CoverCertifier:
    """Replay-checks enumerative cover witnesses (DESIGN SS5j).

    A REACHABLE cover verdict from the synthesis phase is witnessed by
    one concrete simulated uPATH.  The check re-drives the witnessing
    context through a *fresh* simulator, re-extracts the path, and
    re-evaluates the cover predicate on the replayed path -- independent
    of the TraceDB rows and VisitIndex the verdict was read from, so a
    corrupted index cannot vouch for itself.  Replays are memoized per
    (tracedb, context): witnesses are always the *first* matching path,
    so they concentrate on the family's early contexts and even
    ``--certify full`` re-simulates only a handful of contexts per IUV.
    """

    def __init__(self, netlist, pls, enabled: bool):
        self.netlist = netlist
        self.pls = pls
        self.enabled = enabled
        # witness path -> (tracedb, context index, iuv pc); equal paths
        # share an entry -- any context reproducing those visits serves
        self._src: Dict[CycleAccuratePath, Tuple] = {}
        self._replays: Dict[Tuple, CycleAccuratePath] = {}

    def add_index(self, tracedb: TraceDB, index: "VisitIndex") -> None:
        for idx, path in enumerate(index.paths):
            self._src.setdefault(path, (tracedb, idx, index.iuv_pc))

    def _replayed(self, db: TraceDB, idx: int, iuv_pc: int) -> CycleAccuratePath:
        key = (id(db), idx, iuv_pc)
        replayed = self._replays.get(key)
        if replayed is None:
            from ..mc.enumerative import simulate_context
            from ..props.views import ConcreteTraceView
            from ..sim.simulator import Simulator

            sim = Simulator(self.netlist)
            rows = simulate_context(sim, db.contexts[idx])
            view = ConcreteTraceView(rows, names=sim.observable_names)
            replayed = extract_path(view, self.pls, iuv_pc)
            self._replays[key] = replayed
        return replayed

    def certify(self, name, witness, pred) -> Optional[dict]:
        """Certificate for the cover named ``name``, or None when skipped.

        ``witness`` is the first path satisfying the cover (None for
        UNREACHABLE/UNDETERMINED verdicts, which have no finite witness
        to replay).
        """
        if witness is None or not self.enabled:
            return None
        src = self._src.get(witness)
        if src is None:
            return None
        db, idx, iuv_pc = src
        from ..cert import cover_witness_certificate

        payload = {
            "iuv": witness.iuv,
            "context_index": idx,
            "context": getattr(db.contexts[idx], "label", ""),
            "visits": [sorted(cycle) for cycle in witness.visits],
        }

        def replay() -> bool:
            replayed = self._replayed(db, idx, iuv_pc)
            return replayed.visits == witness.visits and bool(pred(replayed))

        return cover_witness_certificate(name, payload, replay)


class Rtl2MuPath:
    """The synthesis tool.

    Parameters:
        design: object with ``netlist`` and ``metadata`` attributes.
        provider: context provider with ``mupath_groups(iuv_name)``.
        config: pipeline options.
        stats: optional shared property-statistics accumulator.
    """

    def __init__(self, design, provider, config: Optional[Rtl2MuPathConfig] = None,
                 stats: Optional[PropertyStats] = None):
        self.design = design
        self.netlist = design.netlist
        self.metadata: DesignMetadata = design.metadata
        self.provider = provider
        self.config = config or Rtl2MuPathConfig()
        self.stats = stats if stats is not None else PropertyStats(label="rtl2mupath")
        self._duv_pls: Optional[FrozenSet[str]] = None
        # DUV-pruning families, held so that synthesis finds them through
        # TraceDB.shared until synthesize_all returns
        self._duv_tracedbs: List[TraceDB] = []
        self._induction_pool = None

    def _pool(self):
        """Shared incremental induction pool (None when disabled)."""
        if not self.config.incremental:
            return None
        if self._induction_pool is None:
            from ..mc.incremental import InductionPool

            self._induction_pool = InductionPool()
        return self._induction_pool

    # ------------------------------------------------------------ accounting
    def _record(self, name: str, outcome: str, started: float, detail: str = "",
                engine="enumerative-indexed", depth=None, solver=None,
                certificate=None):
        elapsed = time.perf_counter() - started
        self.stats.record(
            CheckResult(
                query_name=name,
                outcome=outcome,
                engine=engine,
                time_seconds=elapsed,
                detail=detail,
                depth=depth,
                solver=solver,
                certificate=certificate,
            )
        )
        obs.note_property(outcome, elapsed)

    def _cover_outcome(self, hit: bool, complete: bool) -> str:
        if hit:
            return REACHABLE
        return UNREACHABLE if complete else UNDETERMINED

    def _resolve(self, outcome: str) -> str:
        """Apply the configured undetermined-outcome interpretation."""
        if outcome == UNDETERMINED:
            return self.config.undetermined_as
        return outcome

    # ------------------------------------------------- step 1: DUV PL pruning
    def duv_pl_reachability(self, representative_iuvs: Sequence[str]) -> FrozenSet[str]:
        """Prune PLs unreachable by any instruction (run once per DUV)."""
        if self._duv_pls is not None:
            return self._duv_pls
        with obs.span("rtl2mupath.duv_pl_reachability"):
            reachable: Set[str] = set()
            with obs.span("phase.elaborate"):
                groups = []
                for name in representative_iuvs:
                    groups.extend(self.provider.mupath_groups(name))
                tracedbs = [
                    TraceDB.shared(self.netlist, g.contexts, g.complete)
                    for g in groups
                ]
                self._duv_tracedbs = tracedbs

            with obs.span("phase.cover.duv_pls"):
                occupied = self._occupied_slots(
                    tracedbs, self.metadata.pls.values()
                )
                for pl_name, pl in self.metadata.pls.items():
                    started = time.perf_counter()
                    hit = any(slot.occ_signal in occupied for slot in pl.slots)
                    outcome = self._cover_outcome(
                        hit, all(db.complete for db in tracedbs)
                    )
                    self._record("duvpl_reach_%s" % pl_name, outcome, started)
                    if self._resolve(outcome) == REACHABLE or hit:
                        reachable.add(pl_name)

            # invalid vars valuations: discharge with unbounded induction
            # proofs.  The whole phase runs with the cyclic collector
            # paused: its allocations (one pool context plus per-property
            # gates) are acyclic and stay reachable, so mid-phase
            # collections only scan the growing clause database -- any
            # deferred collection fires at the phase boundary instead of
            # inside a timed proof
            with obs.span("phase.induction"), paused_gc():
                for pl_name, pl in self.metadata.candidate_pls.items():
                    started = time.perf_counter()
                    result = prove_unreachable_kinduction(
                        self.netlist,
                        pl.occupied(),
                        k=self.config.induction_k,
                        conflict_budget=INDUCTION_CONFLICT_BUDGET,
                        pool=self._pool(),
                        certify=self.config.certified,
                    )
                    self._record(
                        "duvpl_reach_%s" % pl_name,
                        result.outcome,
                        started,
                        detail=result.detail,
                        engine="k-induction",
                        depth=result.depth,
                        solver=result.solver,
                        certificate=result.certificate,
                    )
                    if result.outcome == REACHABLE:
                        reachable.add(pl_name)
            self._duv_pls = frozenset(reachable)
            return self._duv_pls

    @staticmethod
    def _occupied_slots(tracedbs: Sequence[TraceDB], pls) -> Set[str]:
        """The slot occupancy signals of ``pls`` high in some traced cycle.

        The DUV-level covers ask whether *any* instruction occupies a PL,
        so one pass per distinct rows list over the slot columns decides
        every such cover; a column leaves the scan once it is seen high.
        """
        signals = {slot.occ_signal for pl in pls for slot in pl.slots}
        occupied: Set[str] = set()
        for db in tracedbs:
            if not db.views:
                continue
            index = db.views[0].index
            pending = {index[s]: s for s in signals - occupied}
            for rows in db.rows_by_context.values():
                for column in [c for c in pending if any(map(itemgetter(c), rows))]:
                    occupied.add(pending.pop(column))
                if not pending:
                    break
        return occupied

    # --------------------------------------------------------- main synthesis
    def synthesize(self, iuv_name: str) -> MuPathResult:
        with obs.span("rtl2mupath.synthesize", iuv=iuv_name):
            return self._synthesize(iuv_name)

    def _synthesize(self, iuv_name: str) -> MuPathResult:
        cfg = self.config
        with obs.span("phase.elaborate"):
            groups = self.provider.mupath_groups(iuv_name)
            certifier = _CoverCertifier(
                self.netlist, self.metadata.pls, cfg.certified
            )
            indexes: List[VisitIndex] = []
            truncated = False
            for group in groups:
                # a family DUV pruning simulated is reused, not re-simulated
                db = TraceDB.shared(self.netlist, group.contexts, group.complete)
                index = VisitIndex(db, self.metadata, group.iuv_pc)
                indexes.append(index)
                certifier.add_index(db, index)
                truncated = truncated or not group.complete
            all_paths = [path for index in indexes for path in index.paths]
        complete = not truncated

        # Every cover below is a function of a path's visits, so each is
        # answered over the distinct paths in order of first occurrence:
        # the first matching distinct path is the first matching path, so
        # witnesses and certificates are a per-path scan's (DESIGN SS5n).
        distinct = _first_occurrences(all_paths)
        pl_sets = [path.pl_set for path in distinct]
        # distinct PL set -> its first path, in first-occurrence order
        first_by_set: Dict[FrozenSet[str], CycleAccuratePath] = {}
        for path, pl_set in zip(distinct, pl_sets):
            first_by_set.setdefault(pl_set, path)
        set_order = list(first_by_set)
        # PL -> bit mask of the distinct PL sets (bit i: set_order[i]) holding it
        holding: Dict[str, int] = {}
        for bit, pl_set in enumerate(set_order):
            for pl in pl_set:
                holding[pl] = holding.get(pl, 0) | 1 << bit

        def first_path(mask: int) -> Optional[CycleAccuratePath]:
            """The first path of the first PL set in ``mask``, or None."""
            if not mask:
                return None
            return first_by_set[set_order[(mask & -mask).bit_length() - 1]]

        # ---- step 2: IUV PL reachability
        with obs.span("phase.cover.iuv_pls"):
            duv_pls = self._duv_pls or frozenset(self.metadata.pls)
            iuv_pls: Set[str] = set()
            for pl_name in sorted(duv_pls & set(self.metadata.pls)):
                started = time.perf_counter()
                pred = lambda p, pl=pl_name: pl in p.pl_set
                witness = first_path(holding.get(pl_name, 0))
                outcome = self._cover_outcome(witness is not None, complete)
                name = "iuvpl_%s_%s" % (iuv_name, pl_name)
                self._record(
                    name, outcome, started,
                    certificate=certifier.certify(name, witness, pred),
                )
                if witness is not None:
                    iuv_pls.add(pl_name)
            iuv_pl_list = sorted(iuv_pls)

        # ---- step 3: dominates / exclusive pruning
        with obs.span("phase.cover.pruning"):
            dominates: Set[Tuple[str, str]] = set()
            for pl0 in iuv_pl_list:
                for pl1 in iuv_pl_list:
                    if pl0 == pl1:
                        continue
                    started = time.perf_counter()
                    # cover(!pl0_visited & pl1_visited): unreachable => dominates
                    pred = lambda p, a=pl0, b=pl1: (
                        b in p.pl_set and a not in p.pl_set
                    )
                    witness = first_path(holding[pl1] & ~holding[pl0])
                    outcome = self._cover_outcome(witness is not None, complete)
                    name = "dom_%s_%s_%s" % (iuv_name, pl0, pl1)
                    self._record(
                        name, outcome, started,
                        certificate=certifier.certify(name, witness, pred),
                    )
                    if self._resolve(outcome) == UNREACHABLE:
                        dominates.add((pl0, pl1))
            exclusive: Set[FrozenSet[str]] = set()
            for i, pl0 in enumerate(iuv_pl_list):
                for pl1 in iuv_pl_list[i + 1 :]:
                    started = time.perf_counter()
                    pred = lambda p, a=pl0, b=pl1: (
                        a in p.pl_set and b in p.pl_set
                    )
                    witness = first_path(holding[pl0] & holding[pl1])
                    outcome = self._cover_outcome(witness is not None, complete)
                    name = "excl_%s_%s_%s" % (iuv_name, pl0, pl1)
                    self._record(
                        name, outcome, started,
                        certificate=certifier.certify(name, witness, pred),
                    )
                    if self._resolve(outcome) == UNREACHABLE:
                        exclusive.add(frozenset((pl0, pl1)))

        # ---- step 4: candidate enumeration + PL-set reachability
        with obs.span("phase.cover.plsets"):
            candidates = self._enumerate_candidates(iuv_pl_list, dominates, exclusive)
            reachable_sets: List[FrozenSet[str]] = []
            for cand in candidates:
                started = time.perf_counter()
                witness = first_by_set.get(cand)
                outcome = self._cover_outcome(witness is not None, complete)
                name = "plset_%s_{%s}" % (iuv_name, ",".join(sorted(cand)))
                self._record(
                    name, outcome, started,
                    certificate=certifier.certify(
                        name, witness, lambda p, c=cand: p.pl_set == c
                    ),
                )
                if witness is not None:
                    reachable_sets.append(cand)
            # any observed set must have survived pruning (sanity of the relations)
            for seen in set_order:
                if seen and seen not in candidates:
                    reachable_sets.append(seen)

        # ---- steps 4b/5/6 per reachable set
        with obs.span("phase.cover.structure"):
            conn = self._pl_connectivity()
            upaths: List[UPathSummary] = []
            global_run_lengths: Dict[str, Set[int]] = {}
            # distinct paths per PL set, in first-occurrence order
            paths_by_set: Dict[FrozenSet[str], List[CycleAccuratePath]] = {}
            for path, pl_set in zip(distinct, pl_sets):
                if pl_set:
                    paths_by_set.setdefault(pl_set, []).append(path)
            for pl_set in sorted(reachable_sets, key=sorted):
                set_paths = paths_by_set.get(pl_set, [])
                revisit: Dict[str, str] = {}
                run_lengths: Dict[str, FrozenSet[int]] = {}
                for pl in sorted(pl_set):
                    runs = [(p, p.run_lengths(pl)) for p in set_paths]
                    started = time.perf_counter()
                    pred_c = lambda p, pl=pl: p.revisit_kind(pl) in (
                        "consecutive", "both"
                    )
                    consec_w = next(
                        (p for p, r in runs if any(n > 1 for n in r)), None
                    )
                    consec = consec_w is not None
                    name = "revisit_c_%s_%s" % (iuv_name, pl)
                    self._record(
                        name,
                        self._cover_outcome(consec, complete),
                        started,
                        certificate=certifier.certify(name, consec_w, pred_c),
                    )
                    started = time.perf_counter()
                    pred_n = lambda p, pl=pl: p.revisit_kind(pl) in (
                        "nonconsecutive", "both"
                    )
                    nonconsec_w = next((p for p, r in runs if len(r) > 1), None)
                    nonconsec = nonconsec_w is not None
                    name = "revisit_n_%s_%s" % (iuv_name, pl)
                    self._record(
                        name,
                        self._cover_outcome(nonconsec, complete),
                        started,
                        certificate=certifier.certify(name, nonconsec_w, pred_n),
                    )
                    if consec and nonconsec:
                        revisit[pl] = "both"
                    elif consec:
                        revisit[pl] = "consecutive"
                    elif nonconsec:
                        revisit[pl] = "nonconsecutive"
                    else:
                        revisit[pl] = "none"
                    # SS V-B6 configuration (i), for SDO: run length ->
                    # first path with a run that long
                    length_w: Dict[int, CycleAccuratePath] = {}
                    for p, r in runs:
                        for length in r:
                            length_w.setdefault(length, p)
                    for length in sorted(length_w):
                        started = time.perf_counter()
                        pred_l = lambda p, pl=pl, n=length: (
                            n in p.run_lengths(pl)
                        )
                        name = "runlen_%s_%s_%d" % (iuv_name, pl, length)
                        self._record(
                            name,
                            REACHABLE,
                            started,
                            certificate=certifier.certify(
                                name, length_w[length], pred_l
                            ),
                        )
                    run_lengths[pl] = frozenset(length_w)
                    global_run_lengths.setdefault(pl, set()).update(length_w)

                # happens-before edge -> first path taking it
                edge_w: Dict[Tuple[str, str], CycleAccuratePath] = {}
                for p in set_paths:
                    for now, nxt in zip(p.visits, p.visits[1:]):
                        for pl0 in now:
                            for pl1 in nxt:
                                edge_w.setdefault((pl0, pl1), p)
                hb_edges: Set[Tuple[str, str]] = set()
                for pl0 in sorted(pl_set):
                    for pl1 in sorted(pl_set):
                        if pl1 not in conn.get(pl0, ()):
                            continue  # not combinationally connected: no candidate
                        started = time.perf_counter()
                        pred_e = lambda p, a=pl0, b=pl1: self._has_edge(
                            p, a, b
                        )
                        witness = edge_w.get((pl0, pl1))
                        outcome = self._cover_outcome(
                            witness is not None, complete
                        )
                        name = "hbedge_%s_%s_%s" % (iuv_name, pl0, pl1)
                        self._record(
                            name, outcome, started,
                            certificate=certifier.certify(name, witness, pred_e),
                        )
                        if witness is not None:
                            hb_edges.add((pl0, pl1))

                upaths.append(
                    UPathSummary(
                        pl_set=pl_set,
                        revisit=revisit,
                        hb_edges=frozenset(hb_edges),
                        run_lengths=run_lengths,
                        example=set_paths[0] if set_paths else None,
                    )
                )

        # concrete cycle-accurate uPATHs (deduplicated)
        with obs.span("phase.decisions"):
            unique_paths: Dict[Tuple, CycleAccuratePath] = {}
            for path, pl_set in zip(distinct, pl_sets):
                if pl_set:
                    unique_paths.setdefault(path.visits, path)
            concrete = sorted(unique_paths.values(), key=lambda p: (p.latency, sorted(p.pl_set)))

            decisions = extract_decisions(iuv_name, concrete)
        return MuPathResult(
            iuv=iuv_name,
            iuv_pls=frozenset(iuv_pls),
            dominates=frozenset(dominates),
            exclusive=frozenset(exclusive),
            candidate_sets_considered=len(candidates),
            naive_power_set_size=2 ** len(iuv_pl_list),
            upaths=upaths,
            concrete_paths=concrete,
            decisions=decisions,
            run_lengths={pl: frozenset(v) for pl, v in global_run_lengths.items()},
            truncated=truncated,
        )

    # ------------------------------------------------------- batch synthesis
    def synthesize_all(
        self, iuv_names: Sequence[str], engine=None
    ) -> Dict[str, MuPathResult]:
        """Synthesize every IUV in ``iuv_names``.

        With ``engine=None`` this is the serial reference path.  Passing a
        :class:`repro.engine.JobScheduler` fans the per-IUV jobs (which are
        independent; the paper runs 72 of them per DUV) across worker
        processes, replays proof-cache hits, and folds every per-property
        result -- fresh or replayed -- back into ``self.stats``, so the
        SS VII-B3 accounting is identical to a serial run's.

        Either way, the families :meth:`duv_pl_reachability` simulated
        serve every in-process synthesis (inline engine jobs included)
        and are released when this returns.
        """
        try:
            if engine is None:
                return {name: self.synthesize(name) for name in iuv_names}
            from ..engine.specs import synthesis_jobs_for

            jobs = synthesis_jobs_for(self, iuv_names)
            outcome = engine.run(jobs, stats=self.stats)
            return {job.iuv: outcome.results[job.job_id] for job in jobs}
        finally:
            self._duv_tracedbs = []

    # ------------------------------------------------------------- internals
    @staticmethod
    def _has_edge(path: CycleAccuratePath, pl0: str, pl1: str) -> bool:
        for t in range(len(path.visits) - 1):
            if pl0 in path.visits[t] and pl1 in path.visits[t + 1]:
                return True
        return False

    def _enumerate_candidates(
        self,
        iuv_pls: List[str],
        dominates: Set[Tuple[str, str]],
        exclusive: Set[FrozenSet[str]],
    ) -> List[FrozenSet[str]]:
        """DFS over the power set, pruning dominates/exclusive violations."""
        cap = MAX_CANDIDATE_SETS
        dominators: Dict[str, List[str]] = {}
        for pl0, pl1 in dominates:
            dominators.setdefault(pl1, []).append(pl0)
        out: List[FrozenSet[str]] = []

        def consistent(selection: Set[str]) -> bool:
            for pl in selection:
                for dom in dominators.get(pl, ()):
                    if dom not in selection and dom in iuv_pls:
                        return False
            for pair in exclusive:
                if pair <= selection:
                    return False
            return True

        def dfs(i: int, selection: Set[str]):
            if len(out) >= cap:
                return
            if i == len(iuv_pls):
                if selection and consistent(selection):
                    out.append(frozenset(selection))
                return
            pl = iuv_pls[i]
            # include (check exclusivity incrementally for early pruning)
            ok = all(
                frozenset((pl, other)) not in exclusive for other in selection
            )
            if ok:
                selection.add(pl)
                dfs(i + 1, selection)
                selection.remove(pl)
            # exclude: only if nothing already selected requires pl
            dfs(i + 1, selection)

        dfs(0, set())
        return out

    def _pl_connectivity(self) -> Dict[str, Set[str]]:
        """Class-level combinational connectivity between PLs (SS V-B5).

        Computed once per netlist and PL slot map: the engine's inline
        jobs build one tool per IUV over the same memoized design.
        """
        slot_owner = {
            slot.occ_signal: name
            for name, pl in self.metadata.pls.items()
            for slot in pl.slots
        }
        by_slots = _CONNECTIVITY.setdefault(self.netlist, {})
        key = tuple(slot_owner.items())
        lifted = by_slots.get(key)
        if lifted is None:
            lifted = {}
            matrix = connectivity_matrix(self.netlist, list(slot_owner))
            for src_sig, dsts in matrix.items():
                src = slot_owner[src_sig]
                for dst_sig in dsts:
                    lifted.setdefault(src, set()).add(slot_owner[dst_sig])
            by_slots[key] = lifted
        return lifted


# netlist -> {PL slot map -> lifted PL connectivity}, freed with the netlist
_CONNECTIVITY: "weakref.WeakKeyDictionary[Netlist, Dict[tuple, dict]]" = (
    weakref.WeakKeyDictionary()
)
