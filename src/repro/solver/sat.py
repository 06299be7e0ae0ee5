"""A CDCL SAT solver.

This is the decision procedure underneath the bounded model checker -- the
role JasperGold's engines play in the paper.  It is a conventional
conflict-driven clause-learning solver:

* two-watched-literal propagation over *flat* watch lists with blocker
  literals (MiniSat's representation: one list per literal holding
  alternating ``clause, blocker`` entries, so most watch visits are a
  single list read and an integer compare),
* first-UIP conflict analysis with clause minimization by self-subsumption
  against the reason graph,
* VSIDS-style exponential variable activities with phase saving,
* Luby-sequence restarts,
* learned-clause database reduction by activity,
* a conflict budget so callers can obtain honest ``UNKNOWN`` outcomes
  (the paper's "undetermined" model-checker verdict, SS V-B).

Internally literals are *encoded*: variable ``v`` becomes the literal
pair ``2*v`` (positive) and ``2*v + 1`` (negative), so negation is
``lit ^ 1``, the variable is ``lit >> 1``, and assignments live in one
flat list indexed by encoded literal.  The public API keeps DIMACS
conventions (nonzero ints, ``-v`` negates ``v``); conversion happens at
the boundary only.

The solver is *incremental*: learned clauses survive across
:meth:`~SatSolver.solve` calls (assumptions are handled as the first
decisions of the search, so every learned clause is implied by the clause
database alone and remains valid for later calls), and per-property
constraints can be installed behind an *activation literal*
(:meth:`~SatSolver.new_activation` + ``add_clause(..., activation=a)``):
the guarded clauses only bite while ``a`` is assumed, and
:meth:`~SatSolver.retract` permanently disables them with a root-level
unit so the next property starts from a clean slate without discarding
anything the search learned.  When a call returns UNSAT because the
assumptions conflict, :attr:`~SatSolver.last_core` holds the subset of
assumption literals actually used in the refutation (MiniSat's
``analyzeFinal``); it is reset on every call so verdicts never inherit a
stale core from an earlier property.

Literals use DIMACS conventions: nonzero ints, ``-v`` is the negation of
``v``.  Variables are allocated densely from 1.
"""

from __future__ import annotations

import gc
import heapq
import time
from array import array as _array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs.metrics import REGISTRY

__all__ = ["SatSolver", "SAT", "UNSAT", "UNKNOWN"]

# process-wide solver instrumentation (cheap: one update per solve call)
_SOLVES = REGISTRY.counter(
    "repro_sat_solves_total", "SAT solve() calls, by verdict"
)
_CONFLICTS = REGISTRY.counter(
    "repro_sat_conflicts_total", "CDCL conflicts across all solvers"
)
_DECISIONS = REGISTRY.counter(
    "repro_sat_decisions_total", "CDCL branching decisions across all solvers"
)
_PROPAGATIONS = REGISTRY.counter(
    "repro_sat_propagations_total", "unit propagations across all solvers"
)
_RESTARTS = REGISTRY.counter(
    "repro_sat_restarts_total", "Luby restarts across all solvers"
)
_LEARNED = REGISTRY.counter(
    "repro_sat_learned_total", "learned clauses across all solvers"
)
_SOLVE_SECONDS = REGISTRY.histogram(
    "repro_sat_solve_seconds", "wall-clock seconds per solve() call"
)
_INCREMENTAL_REUSE = REGISTRY.counter(
    "repro_solver_incremental_reuse_total",
    "solve() calls answered on a reused solver (learned clauses retained)",
)

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

# hard ceiling on retained proof entries (DRAT logging, see repro.cert):
# a run that blows past it keeps its prefix and flags the overflow, so
# certificates degrade to "skipped" instead of exhausting memory
_PROOF_CAP = 2_000_000


def _luby(i):
    """The i-th element (1-based) of the Luby restart sequence."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while (1 << k) - 1 != i:
        # recurse into the tail: positions past a completed block of
        # length 2^k - 1 repeat the sequence from the start.  Subtracting
        # anything less (e.g. 2^(k-1) - 1) leaves i unchanged when k == 1
        # and the loop never terminates -- the fuzzer caught exactly that
        # on the first solve to reach 64 conflicts (restart index 2).
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)


def _enc(lit: int) -> int:
    """DIMACS literal -> encoded literal (2v for v, 2v+1 for -v)."""
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def _dec(enc: int) -> int:
    """Encoded literal -> DIMACS literal."""
    return -(enc >> 1) if enc & 1 else (enc >> 1)


class SatSolver:
    """CDCL solver with incremental clause addition and assumptions."""

    def __init__(self, proof: bool = False):
        self.num_vars = 0
        # truth value per *encoded* literal: 0 unassigned, 1 true, -1
        # false; both polarities are kept in sync on (un)assignment so the
        # propagation loop never branches on literal sign
        self._lit_val: List[int] = [0, 0]
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[int] = [0]
        # flat watch lists indexed by encoded literal: _watches[p] holds
        # alternating (clause, blocker) entries for clauses to examine
        # when p is enqueued true (i.e. clauses watching p^1).  Binary
        # clauses live in _bin_watches instead, as alternating
        # (other_literal, clause) entries: their watches never move, so
        # propagation reads the implied literal straight from the entry
        # without dereferencing the clause
        self._watches: List[List] = [[], []]
        self._bin_watches: List[List] = [[], []]
        self._clauses: List[List[int]] = []
        self._learned: List[List[int]] = []
        self._trail: List[int] = []  # encoded literals
        self._trail_lim: List[int] = []
        # VSIDS order heap with lazy (stale) entries: (-activity, var)
        # tuples, so pops yield the highest-activity unassigned variable
        # with lowest-var tie-breaking -- the same choice the previous
        # linear scan made, at O(log n) instead of O(n) per decision.
        # Freshly allocated variables are *not* pushed here; _search bulk
        # enrolls vars in (_heap_limit, num_vars] before every search, so
        # circuit construction skips one heappush per gate
        self._order_heap: List = []
        self._heap_limit = 0
        # variable slots are pre-allocated in chunks (all per-variable
        # defaults are constants), so allocating a variable is just a
        # counter bump; _var_cap counts the slots the arrays can hold
        self._var_cap = 0
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_total = 0
        self.solves = 0
        # persistent scratch for conflict analysis (avoids an O(num_vars)
        # allocation per conflict)
        self._seen = bytearray(1)
        # per-solve() counter deltas, refreshed by every solve() call; the
        # model-checking engines attach this to their CheckResults
        self.last_solve: Dict[str, int] = {}
        # assumption literals used by the most recent UNSAT verdict (None
        # after SAT/UNKNOWN); see analyze-final in _search
        self.last_core: Optional[List[int]] = None
        self._retired_activations: set = set()
        # ---- DRAT proof log (see repro.cert): logical entries are
        # (tag, dimacs_lits) with tag "i" (input), "a" (derived, must be
        # RUP against the preceding entries) or "d" (advisory deletion).
        # Stored flat -- one tag byte per entry in a bytearray plus a
        # zero-terminated literal stream in an array('q') (the DRAT text
        # layout) -- so the multi-hundred-thousand-entry log adds zero
        # GC-tracked objects: per-entry tuples would make the
        # collector's first post-build scan the dominant logging cost.
        # proof_entries() reconstructs tuples on demand (once per
        # certificate).  None = logging off; the log is append-only so
        # incremental contexts can snapshot [0:n) slices per certificate.
        self._proof_tags: Optional[bytearray] = bytearray() if proof else None
        self._proof_lits = _array("q") if proof else None
        self._proof_overflow = False

    # ------------------------------------------------------------------ setup
    def _grow(self):
        """Extend the var-indexed arrays to cover ``num_vars`` (chunked)."""
        cap = self._var_cap
        new_cap = max(self.num_vars, 2 * cap, 16)
        delta = new_cap - cap
        self._lit_val += [0] * (2 * delta)
        self._level += [0] * delta
        self._reason += [None] * delta
        self._activity += [0.0] * delta
        self._phase += [-1] * delta
        self._seen += bytes(delta)
        watches = self._watches
        bin_watches = self._bin_watches
        for _ in range(2 * delta):
            watches.append([])
            bin_watches.append([])
        self._var_cap = new_cap

    def new_var(self) -> int:
        out = self.num_vars + 1
        self.num_vars = out
        if out > self._var_cap:
            self._grow()
        return out

    def new_activation(self) -> int:
        """A fresh *activation literal* for retractable constraints.

        Clauses added with ``add_clause(lits, activation=a)`` only
        constrain the search while ``a`` is passed in ``assumptions``;
        :meth:`retract` disables them for good.  The variable's saved
        phase starts negative, so an unassumed activation literal defaults
        to "inactive" and foreign properties' guards never burden an
        unrelated check.
        """
        return self.new_var()

    def retract(self, activation: int) -> bool:
        """Permanently disable every clause guarded by ``activation``.

        Implemented as a root-level unit ``-activation``: the guarded
        clauses become top-level satisfied (propagation skips them), while
        everything learned from them stays valid -- any learned clause
        whose derivation used a guarded clause contains ``-activation``
        and is likewise satisfied.
        """
        if activation in self._retired_activations:
            return self._ok
        self._retired_activations.add(activation)
        return self.add_clause([-activation])

    def add_clause(self, lits: Iterable[int], activation: Optional[int] = None) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        With ``activation`` (from :meth:`new_activation`) the clause is
        guarded as ``lits or -activation``: inert unless the activation
        literal is assumed, removable via :meth:`retract`.
        """
        if not self._ok:
            return False
        lits = list(lits)
        if activation is not None:
            lits.append(-activation)
        if self._proof_tags is not None:
            # log the clause *as installed* (guard included), before the
            # root simplification below: stripped/falsified literals are
            # recovered by unit propagation, so the checker sees the same
            # formula the solver reasons over
            self._proof_log("i", lits)
        # Adding a clause invalidates any model from a previous solve().
        # Return to the root level first: the satisfied/falsified checks
        # below must only consult root facts, and a unit clause enqueued
        # here must land at level 0 -- enqueued at a stale decision level
        # it would be silently erased by the next search's backtrack,
        # losing the constraint (found by the differential fuzzer).
        if self._trail_lim:
            self._backtrack(0)
        lit_val = self._lit_val
        seen = set()
        clause = []
        for lit in lits:
            enc = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            if enc ^ 1 in seen:
                return True  # tautology
            if enc in seen:
                continue
            seen.add(enc)
            # at level 0 every current assignment is a root fact
            value = lit_val[enc]
            if value == 1:
                return True  # already satisfied at top level
            if value == -1:
                continue  # falsified at top level: drop literal
            clause.append(enc)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        self._clauses.append(clause)
        self._watch(clause)
        return True

    def new_and_gate(self, a: int, b: int) -> int:
        """Allocate a fresh variable and constrain it to ``a AND b``.

        The hottest call in circuit construction (hundreds of thousands
        of gates per unrolled core).  With ``a`` and ``b`` unassigned at
        the root, over distinct variables, and no decision level open,
        none of the three Tseitin clauses over the fresh output can be
        satisfied, unit, tautological or duplicated, so they skip
        :meth:`add_clause`'s simplification: they are appended and
        watched directly, and the fresh variable's two watch lists are
        born pre-populated with their entries.  Any other case goes
        through :meth:`add_clause`, which handles every case.
        """
        lit_val = self._lit_val
        ea = (a << 1) if a > 0 else ((-a) << 1) | 1
        eb = (b << 1) if b > 0 else ((-b) << 1) | 1
        if (
            self._trail_lim
            or lit_val[ea]
            or lit_val[eb]
            or ea >> 1 == eb >> 1
            or not self._ok
        ):
            out = self.new_var()
            self.add_clause([-out, a])
            self.add_clause([-out, b])
            self.add_clause([out, -a, -b])
            return out
        out = self.num_vars + 1
        self.num_vars = out
        if out > self._var_cap:
            self._grow()
        po = out << 1
        no = po | 1
        c1 = [no, ea]
        c2 = [no, eb]
        c3 = [po, ea ^ 1, eb ^ 1]
        self._clauses += (c1, c2, c3)
        tags = self._proof_tags
        if tags is not None:
            # inlined _proof_log: gate definitions dominate the log, and
            # the per-entry call/alloc overhead is the whole logging cost
            if len(tags) + 3 <= _PROOF_CAP:
                tags += b"iii"
                self._proof_lits.extend(
                    (-out, a, 0, -out, b, 0, out, -a, -b, 0)
                )
            else:
                self._proof_overflow = True
        bin_watches = self._bin_watches
        bin_watches[po] = [ea, c1, eb, c2]  # slot po: entries watching no
        bin_watches[ea ^ 1] += (no, c1)
        bin_watches[eb ^ 1] += (no, c2)
        watches = self._watches
        watches[no] = [c3, ea ^ 1]  # slot no: entries watching po
        watches[ea] += (c3, po)
        return out

    def new_xor_gate(self, a: int, b: int) -> int:
        """Allocate a fresh variable and constrain it to ``a XOR b``.

        Same fast path and fallback as :meth:`new_and_gate`.
        """
        lit_val = self._lit_val
        ea = (a << 1) if a > 0 else ((-a) << 1) | 1
        eb = (b << 1) if b > 0 else ((-b) << 1) | 1
        if (
            self._trail_lim
            or lit_val[ea]
            or lit_val[eb]
            or ea >> 1 == eb >> 1
            or not self._ok
        ):
            out = self.new_var()
            self.add_clause([-out, a, b])
            self.add_clause([-out, -a, -b])
            self.add_clause([out, -a, b])
            self.add_clause([out, a, -b])
            return out
        out = self.num_vars + 1
        self.num_vars = out
        if out > self._var_cap:
            self._grow()
        po = out << 1
        no = po | 1
        c1 = [no, ea, eb]
        c2 = [no, ea ^ 1, eb ^ 1]
        c3 = [po, ea ^ 1, eb]
        c4 = [po, ea, eb ^ 1]
        self._clauses += (c1, c2, c3, c4)
        tags = self._proof_tags
        if tags is not None:
            if len(tags) + 4 <= _PROOF_CAP:
                tags += b"iiii"
                self._proof_lits.extend(
                    (-out, a, b, 0, -out, -a, -b, 0,
                     out, -a, b, 0, out, a, -b, 0)
                )
            else:
                self._proof_overflow = True
        watches = self._watches
        watches[po] = [c1, ea, c2, ea ^ 1]  # slot po: entries watching no
        watches[no] = [c3, ea ^ 1, c4, ea]  # slot no: entries watching po
        watches[ea] += (c2, no, c3, po)
        watches[ea ^ 1] += (c1, no, c4, po)
        return out

    def _watch(self, clause):
        # watching clause[0] and clause[1]: the entry for a watched
        # literal w lives in _watches[w ^ 1] (examined when w turns
        # false), carrying the *other* watched literal as blocker.
        # Binary clauses go to the dedicated (other, clause) lists
        if len(clause) == 2:
            self._bin_watches[clause[0] ^ 1].extend((clause[1], clause))
            self._bin_watches[clause[1] ^ 1].extend((clause[0], clause))
            return
        self._watches[clause[0] ^ 1].extend((clause, clause[1]))
        self._watches[clause[1] ^ 1].extend((clause, clause[0]))

    # --------------------------------------------------------------- interface
    def counters(self) -> Dict[str, int]:
        """Cumulative search-effort counters for this solver instance."""
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned": self.learned_total,
        }

    def solve(self, assumptions: Sequence[int] = (), max_conflicts: Optional[int] = None) -> str:
        """Solve under ``assumptions``; returns SAT / UNSAT / UNKNOWN.

        Besides the verdict, each call refreshes :attr:`last_solve` with
        the search-effort *delta* of this call (conflicts, decisions,
        propagations, restarts, learned clauses) plus the formula size
        (clauses, learned-database size, variables) -- the per-query
        accounting the paper reads off JasperGold's proof profiling.
        """
        before = self.counters()
        started = time.perf_counter()
        if self.solves:
            _INCREMENTAL_REUSE.inc(context="solver")
        verdict = UNSAT
        # search allocates only acyclic objects (learned-clause lists, heap
        # tuples); gen-0/gen-2 scans over a clause database this size cost
        # more than the search itself, so pause collection for the call
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            verdict = self._search(assumptions, max_conflicts)
            return verdict
        finally:
            if gc_was_enabled:
                gc.enable()
            elapsed = time.perf_counter() - started
            after = self.counters()
            delta = {key: after[key] - before[key] for key in after}
            delta["clauses"] = len(self._clauses)
            delta["learned_db"] = len(self._learned)
            delta["vars"] = self.num_vars
            self.last_solve = delta
            self.solves += 1
            _SOLVES.inc(verdict=verdict)
            _CONFLICTS.inc(delta["conflicts"])
            _DECISIONS.inc(delta["decisions"])
            _PROPAGATIONS.inc(delta["propagations"])
            _RESTARTS.inc(delta["restarts"])
            _LEARNED.inc(delta["learned"])
            _SOLVE_SECONDS.observe(elapsed)

    def _search(self, assumptions: Sequence[int] = (), max_conflicts: Optional[int] = None) -> str:
        # a fresh call must never report a previous call's core (activation
        # literals from an earlier property would otherwise leak into this
        # verdict's unsat core after an intervening SAT answer)
        self.last_core = None
        if not self._ok:
            self.last_core = []
            return UNSAT
        self._backtrack(0)
        if self._heap_limit < self.num_vars:
            # bulk-enroll variables allocated since the last search (gate
            # emission skips the per-variable heappush; see _order_heap):
            # one heapify after a big build, individual pushes for the
            # few fresh variables a follow-up property contributes
            heap = self._order_heap
            activity = self._activity
            missing = self.num_vars - self._heap_limit
            if missing > len(heap) // 8:
                heap.extend(
                    (-activity[v], v)
                    for v in range(self._heap_limit + 1, self.num_vars + 1)
                )
                heapq.heapify(heap)
            else:
                for v in range(self._heap_limit + 1, self.num_vars + 1):
                    heapq.heappush(heap, (-activity[v], v))
            self._heap_limit = self.num_vars
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            self.last_core = []
            return UNSAT
        budget_start = self.conflicts
        restart_index = 1
        restart_limit = 64 * _luby(restart_index)
        restart_base = self.conflicts
        lit_val = self._lit_val

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if not self._trail_lim:
                    self._ok = False
                    self.last_core = []
                    return UNSAT
                learned, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self._record_learned(learned)
                self._var_inc /= self._var_decay
                if max_conflicts is not None and self.conflicts - budget_start >= max_conflicts:
                    self._backtrack(0)
                    return UNKNOWN
                if self.conflicts - restart_base >= restart_limit:
                    self.restarts += 1
                    restart_index += 1
                    restart_limit = 64 * _luby(restart_index)
                    restart_base = self.conflicts
                    self._backtrack(0)
                    if len(self._learned) > 4000 + 8 * self.num_vars:
                        self._reduce_learned()
                continue

            # satisfy assumptions first, in order; heuristic decisions only
            # start once every assumption holds, so a falsified assumption
            # here is a consequence of level-0 facts and earlier assumptions
            # alone -> UNSAT under the assumption set
            next_assumption = None
            for lit in assumptions:
                enc = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
                value = lit_val[enc]
                if value == -1:
                    self.last_core = self._analyze_final(lit)
                    return UNSAT
                if value == 0:
                    next_assumption = enc
                    break
            if next_assumption is not None:
                self.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(next_assumption, None)
                continue

            enc = self._pick_branch()
            if enc is None:
                return SAT
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(enc, None)

    def model_value(self, var: int) -> bool:
        return self._lit_val[var << 1] == 1

    # ------------------------------------------------------------- internals
    def _enqueue(self, enc: int, reason) -> bool:
        lit_val = self._lit_val
        value = lit_val[enc]
        if value:
            return value == 1
        var = enc >> 1
        lit_val[enc] = 1
        lit_val[enc ^ 1] = -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(enc)
        return True

    def _propagate(self):
        """Unit propagation; returns the conflicting clause or None."""
        lit_val = self._lit_val
        watches = self._watches
        trail = self._trail
        level = len(self._trail_lim)
        levels = self._level
        reasons = self._reason
        bin_watches = self._bin_watches
        qhead = self._qhead
        props = 0
        conflict = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            props += 1
            bl = bin_watches[p]
            if bl:
                # binary clauses first: the implied literal sits in the
                # entry itself, no clause dereference or watch movement
                for bi in range(0, len(bl), 2):
                    other = bl[bi]
                    value = lit_val[other]
                    if value == 1:
                        continue
                    if value == -1:
                        conflict = bl[bi + 1]
                        break
                    var = other >> 1
                    lit_val[other] = 1
                    lit_val[other ^ 1] = -1
                    levels[var] = level
                    reasons[var] = bl[bi + 1]
                    trail.append(other)
                if conflict is not None:
                    break
            wl = watches[p]
            if not wl:
                continue
            false_lit = p ^ 1
            i = j = 0
            n = len(wl)
            while i < n:
                blocker = wl[i + 1]
                if lit_val[blocker] == 1:
                    wl[j] = wl[i]
                    wl[j + 1] = blocker
                    j += 2
                    i += 2
                    continue
                clause = wl[i]
                i += 2
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                if lit_val[first] == 1:
                    wl[j] = clause
                    wl[j + 1] = first
                    j += 2
                    continue
                moved = False
                for k in range(2, len(clause)):
                    ck = clause[k]
                    if lit_val[ck] != -1:
                        clause[1] = ck
                        clause[k] = false_lit
                        other = watches[ck ^ 1]
                        other.append(clause)
                        other.append(first)
                        moved = True
                        break
                if moved:
                    continue
                wl[j] = clause
                wl[j + 1] = first
                j += 2
                if lit_val[first] == -1:
                    conflict = clause
                    while i < n:
                        wl[j] = wl[i]
                        wl[j + 1] = wl[i + 1]
                        j += 2
                        i += 2
                    break
                var = first >> 1
                lit_val[first] = 1
                lit_val[first ^ 1] = -1
                levels[var] = level
                reasons[var] = clause
                trail.append(first)
            del wl[j:]
            if conflict is not None:
                break
        self._qhead = qhead
        self.propagations += props
        return conflict

    def _analyze(self, conflict):
        """First-UIP learning; returns (learned_clause, backtrack_level)."""
        learned = [0]  # placeholder for the asserting literal
        seen = self._seen
        to_clear = []
        counter = 0
        lit = None
        clause = conflict
        trail = self._trail
        levels = self._level
        index = len(trail) - 1
        current_level = len(self._trail_lim)

        while True:
            for q in clause:
                if q == lit:
                    continue
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    self._bump(var)
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            var = lit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learned[0] = lit ^ 1
                break
            clause = self._reason[var]
            index -= 1

        # clause minimization: drop literals implied by the rest
        marked = set(q >> 1 for q in learned[1:])
        reasons = self._reason
        kept = [learned[0]]
        for q in learned[1:]:
            reason = reasons[q >> 1]
            redundant = reason is not None
            if redundant:
                qv = q >> 1
                for r in reason:
                    rv = r >> 1
                    if rv != qv and rv not in marked and levels[rv] > 0:
                        redundant = False
                        break
            if not redundant:
                kept.append(q)
        learned = kept
        for var in to_clear:
            seen[var] = 0

        if len(learned) == 1:
            return learned, 0
        # find backtrack level: max level among learned[1:]
        back_level = 0
        swap_index = 1
        for i in range(1, len(learned)):
            lvl = levels[learned[i] >> 1]
            if lvl > back_level:
                back_level = lvl
                swap_index = i
        learned[1], learned[swap_index] = learned[swap_index], learned[1]
        return learned, back_level

    def _analyze_final(self, false_lit):
        """Assumption literals responsible for falsifying ``false_lit``.

        MiniSat's ``analyzeFinal``: walk the implication graph backwards
        from the falsified assumption; every decision encountered is an
        assumption (heuristic decisions only start once all assumptions
        hold), so the decisions reached are exactly the assumptions the
        refutation used.  Root-level (level-0) facts are formula
        consequences, not assumptions, and are skipped.
        """
        core = [false_lit]
        seen = {false_lit if false_lit > 0 else -false_lit}
        levels = self._level
        for i in range(len(self._trail) - 1, -1, -1):
            enc = self._trail[i]
            var = enc >> 1
            if var not in seen or levels[var] == 0:
                continue
            reason = self._reason[var]
            if reason is None:
                core.append(_dec(enc))
            else:
                for q in reason:
                    if q >> 1 != var:
                        seen.add(q >> 1)
        return core

    def _record_learned(self, learned):
        self.learned_total += 1
        if self._proof_tags is not None:
            # every learned clause is RUP against the database (it falls
            # out of the conflict's reason graph), so it is a valid DRAT
            # addition even when later calls learn from it
            self._proof_log("a", [_dec(q) for q in learned])
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        self._learned.append(learned)
        self._watch(learned)
        self._enqueue(learned[0], learned)

    def _backtrack(self, level):
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        heap = self._order_heap
        trail = self._trail
        lit_val = self._lit_val
        phase = self._phase
        activity = self._activity
        heappush = heapq.heappush
        # _reason entries are left stale on purpose: reasons are only read
        # for *assigned* variables (trail walks in _analyze/_analyze_final)
        # and _enqueue overwrites on reassignment; _reduce_learned treats
        # stale entries as protected, which is merely conservative
        for i in range(len(trail) - 1, limit - 1, -1):
            enc = trail[i]
            var = enc >> 1
            phase[var] = -1 if enc & 1 else 1
            lit_val[enc] = 0
            lit_val[enc ^ 1] = 0
            heappush(heap, (-activity[var], var))
        del trail[limit:]
        del self._trail_lim[level:]
        self._qhead = limit

    def _pick_branch(self):
        # lazy-deletion heap: entries go stale when a variable is assigned
        # or its activity is bumped (the bump pushes a fresh entry), so pop
        # until an entry matches the variable's current state
        heap = self._order_heap
        activity = self._activity
        lit_val = self._lit_val
        while heap:
            neg_act, var = heapq.heappop(heap)
            if lit_val[var << 1] == 0 and -neg_act == activity[var]:
                return (var << 1) if self._phase[var] > 0 else (var << 1) | 1
        # every unassigned variable has a current entry by construction
        # (the search-entry bulk enroll, _bump and _backtrack all push),
        # so an empty heap means a complete assignment
        return None

    def _bump(self, var):
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for i in range(1, self.num_vars + 1):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100
            self._order_heap = [
                (-self._activity[v], v)
                for v in range(1, self.num_vars + 1)
                if self._lit_val[v << 1] == 0
            ]
            heapq.heapify(self._order_heap)
        elif self._lit_val[var << 1] == 0:
            heapq.heappush(self._order_heap, (-self._activity[var], var))

    def _reduce_learned(self):
        """Drop the less useful half of learned clauses (longest first).

        Binary learned clauses are never dropped: they are the cheapest
        to propagate, and their entries in the dedicated binary watch
        lists are permanent (the sweep below only rewrites the movable
        ``_watches`` lists).
        """
        self._learned.sort(key=len)
        keep = self._learned[: len(self._learned) // 2]
        dropped = set(
            id(c) for c in self._learned[len(self._learned) // 2 :] if len(c) > 2
        )
        # clauses may be reason for current (level-0) assignments; protect them
        protected = set(id(r) for r in self._reason if r is not None)
        dropped -= protected
        for wl in self._watches:
            if not wl:
                continue
            j = 0
            for i in range(0, len(wl), 2):
                if id(wl[i]) not in dropped:
                    wl[j] = wl[i]
                    wl[j + 1] = wl[i + 1]
                    j += 2
            del wl[j:]
        self._learned = [c for c in self._learned if id(c) not in dropped]

    def check_watch_invariant(self) -> bool:
        """Every clause of length >= 2 is watched on exactly its first two
        literals, each watch entry carrying the other watched literal of
        that clause as its blocker at registration time.

        A structural self-check for the regression suite: the historical
        bug this guards against is a clause registered on ``clause[0]``
        only, which silently skips propagations when ``clause[1]``
        becomes false.
        """
        expected: Dict[int, List[int]] = {}
        for clause in self._clauses + self._learned:
            expected[id(clause)] = [clause[0], clause[1]]
        found: Dict[int, List[int]] = {}
        for p in range(2, 2 * self.num_vars + 2):
            wl = self._watches[p]
            for i in range(0, len(wl), 2):
                clause = wl[i]
                if id(clause) not in expected:
                    return False  # watch entry for a removed clause
                if len(clause) == 2:
                    return False  # binary clause in the movable lists
                watched = p ^ 1  # entries under p watch literal p^1
                if watched not in clause[:2]:
                    return False  # watched literal drifted out of slots 0/1
                found.setdefault(id(clause), []).append(watched)
            bl = self._bin_watches[p]
            for i in range(0, len(bl), 2):
                clause = bl[i + 1]
                if id(clause) not in expected:
                    return False  # binary entry for a removed clause
                if len(clause) != 2:
                    return False  # non-binary clause in the binary lists
                watched = p ^ 1
                if watched not in clause:
                    return False
                if bl[i] not in clause or bl[i] == watched:
                    return False  # implied-literal slot must be the other lit
                found.setdefault(id(clause), []).append(watched)
        for cid, watch_lits in expected.items():
            got = sorted(found.get(cid, []))
            if got != sorted(watch_lits):
                return False  # missing or asymmetric watches
        return True

    # ------------------------------------------------------------ proof logging
    def _proof_log(self, tag: str, lits) -> None:
        """Append one proof entry (caller guards logging is on)."""
        tags = self._proof_tags
        if len(tags) >= _PROOF_CAP:
            self._proof_overflow = True
            return
        tags.append(ord(tag))
        proof_lits = self._proof_lits
        proof_lits.extend(lits)
        proof_lits.append(0)

    def proof_overflowed(self) -> bool:
        return self._proof_overflow

    def proof_entries(self, start: int = 0, stop: Optional[int] = None):
        """A snapshot slice of the proof log (list of (tag, lits) tuples).

        Reconstructs the tuple view from the flat tag/literal streams;
        only certificates pay this, the hot logging path never allocates
        per-entry objects.
        """
        tags = self._proof_tags
        if tags is None:
            return []
        if stop is None or stop > len(tags):
            stop = len(tags)
        entries: List[Tuple[str, Tuple[int, ...]]] = []
        chunk: List[int] = []
        idx = 0
        append_entry = entries.append
        append_lit = chunk.append
        for lit in self._proof_lits:
            if lit:
                append_lit(lit)
            else:
                if idx >= stop:
                    break
                if idx >= start:
                    append_entry((chr(tags[idx]), tuple(chunk)))
                idx += 1
                chunk.clear()
        return entries

    def final_lemma(self) -> Optional[Tuple[int, ...]]:
        """The terminal DRAT lemma of the most recent UNSAT verdict.

        The negation-of-core clause: UNSAT under assumptions means the
        database implies ``OR(-a for a in last_core)``, and that clause is
        RUP against the logged entries (repeated analyzeFinal closure).  A
        root-level refutation has an empty core, giving the empty clause.
        Returns None when the last verdict was not UNSAT.
        """
        if self.last_core is None:
            return None
        return tuple(-lit for lit in self.last_core)
