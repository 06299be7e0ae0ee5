"""A pure-Python backward DRAT (RUP) proof checker.

Checks the proof logs :class:`~repro.solver.sat.SatSolver` emits when
built with ``proof=True``.  A log is a sequence of entries
``(tag, lits)`` over DIMACS literals:

* ``"i"`` -- an input (axiom) clause, taken on trust: it is part of the
  formula whose unsatisfiability is being certified;
* ``"a"`` -- an *addition* (a CDCL-learned clause): must have the RUP
  property against everything logged before it;
* ``"d"`` -- an advisory deletion.  The checker ignores deletions:
  checking against a superset of the solver's live database only makes
  the implied-clause test easier to pass for real derivations and is
  therefore sound for RUP-only (DRAT-without-RAT) logs -- a clause is
  never *added* on the strength of a deletion.

The terminal lemma of an UNSAT verdict (the negation of the assumption
core; the empty clause for a root refutation) is checked first, at the
full log, and the check runs *backward*: only lemmas the terminal
conflict (transitively) depends on are themselves checked, each against
the strict prefix that precedes it.  Antecedent marking uses the
propagation reason graph, so a forged-but-unused entry is ignored while
a forged load-bearing entry fails its own RUP check.

This module deliberately shares no code with the solver: it rebuilds
watch lists and propagation from the logged clauses alone, so it cannot
inherit a solver soundness bug.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["check_proof", "verify_model", "ProofCheckOutcome"]


@dataclass
class ProofCheckOutcome:
    status: str  # "ok" | "failed" | "budget"
    detail: str = ""
    lemmas_checked: int = 0
    steps: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _enc(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


class _Checker:
    """Watched-literal unit propagation over a birth-ordered clause list."""

    def __init__(self, clauses: List[Tuple[List[int], bool]], num_vars: int):
        # clauses[ci] = (encoded_lits, is_lemma); ci is the birth index
        self.clauses = clauses
        self.val = [0] * (2 * num_vars + 2)
        self.reason: List[Optional[int]] = [None] * (num_vars + 1)
        self.trail: List[int] = []
        self.steps = 0
        # watches[enc] -> clause indices watching enc (the clause's first
        # two literal slots, swapped in place as watches move)
        self.watch: Dict[int, List[int]] = {}
        self.units: List[Tuple[int, int]] = []  # (birth ci, enc)
        self.empties: List[int] = []  # birth indices of empty clauses
        for ci, (lits, _lemma) in enumerate(clauses):
            if not lits:
                self.empties.append(ci)
            elif len(lits) == 1:
                self.units.append((ci, lits[0]))
            else:
                self.watch.setdefault(lits[0], []).append(ci)
                self.watch.setdefault(lits[1], []).append(ci)

    # ------------------------------------------------------------ assignment
    def _assign(self, enc: int, reason: Optional[int]) -> Optional[int]:
        """Make ``enc`` true; returns a conflicting clause index or None."""
        val = self.val
        if val[enc] == 1:
            return None
        if val[enc] == -1:
            # enc already false: the clause forcing it conflicts with the
            # assignment's existing reason chain
            return reason
        val[enc] = 1
        val[enc ^ 1] = -1
        self.reason[enc >> 1] = reason
        self.trail.append(enc)
        return None

    def _undo(self) -> None:
        val = self.val
        for enc in self.trail:
            val[enc] = 0
            val[enc ^ 1] = 0
        del self.trail[:]

    # ----------------------------------------------------------- propagation
    def _propagate(self, limit: int, qhead: int) -> Optional[int]:
        """Propagate to fixpoint over clauses born before ``limit``."""
        val = self.val
        trail = self.trail
        clauses = self.clauses
        watch = self.watch
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            wl = watch.get(false_lit)
            if not wl:
                continue
            j = 0
            i = 0
            n = len(wl)
            while i < n:
                ci = wl[i]
                i += 1
                self.steps += 1
                if ci >= limit:
                    wl[j] = ci
                    j += 1
                    continue
                lits = clauses[ci][0]
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if val[first] == 1:
                    wl[j] = ci
                    j += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    if val[lk] != -1:
                        lits[1], lits[k] = lk, false_lit
                        watch.setdefault(lk, []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                wl[j] = ci
                j += 1
                if val[first] == -1:
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    return ci
                conflict = self._assign(first, ci)
                if conflict is not None:
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    return conflict
            del wl[j:]
        return None

    # -------------------------------------------------------------- marking
    def _mark(self, conflict_ci: int, needed: set) -> None:
        """Mark the lemmas the conflict's reason graph depends on."""
        clauses = self.clauses
        reason = self.reason
        visited = set()
        stack = [conflict_ci]
        while stack:
            ci = stack.pop()
            if ci in visited:
                continue
            visited.add(ci)
            lits, is_lemma = clauses[ci]
            if is_lemma:
                needed.add(ci)
            for enc in lits:
                r = reason[enc >> 1]
                if r is not None and r not in visited:
                    stack.append(r)

    def _mark_chain(self, enc: int, needed: set) -> None:
        r = self.reason[enc >> 1]
        if r is not None:
            self._mark(r, needed)

    # ------------------------------------------------------------- RUP check
    def rup(self, lemma_encs: Sequence[int], limit: int, needed: set) -> bool:
        """True iff the lemma is RUP against clauses born before ``limit``."""
        try:
            for ci in self.empties:
                if ci < limit:
                    # an empty clause precedes the lemma: everything is
                    # implied (but a *derived* empty clause must itself
                    # be justified, so mark it)
                    if self.clauses[ci][1]:
                        needed.add(ci)
                    return True
            conflict = None
            # unit axioms/lemmas first: their closure is the root state
            for ci, enc in self.units:
                if ci >= limit:
                    continue
                conflict = self._assign(enc, ci)
                if conflict is not None:
                    break
            if conflict is None:
                # assume the negation of the lemma
                for enc in lemma_encs:
                    if self.val[enc] == 1:
                        # lemma satisfied by the unit closure (or it is a
                        # tautology): trivially implied -- but the units
                        # that satisfy it must themselves be justified
                        self._mark_chain(enc, needed)
                        return True
                    if self.val[enc] == -1:
                        continue
                    conflict = self._assign(enc ^ 1, None)
                    if conflict is not None:
                        break
            if conflict is None:
                conflict = self._propagate(limit, 0)
            if conflict is None:
                return False
            self._mark(conflict, needed)
            return True
        finally:
            self._undo()


def check_proof(
    entries: Sequence[Tuple[str, Sequence[int]]],
    final: Sequence[int] = (),
    max_seconds: Optional[float] = None,
) -> ProofCheckOutcome:
    """Backward-check a proof log against its terminal lemma.

    ``final`` is the clause the UNSAT verdict claims (empty = the empty
    clause).  Returns ``ok`` when the terminal lemma and every addition
    it depends on are RUP, ``failed`` with a pinpointing detail
    otherwise, and ``budget`` when ``max_seconds`` ran out first
    (a skip, not a refutation).
    """
    deadline = (
        time.monotonic() + max_seconds if max_seconds is not None else None
    )
    clauses: List[Tuple[List[int], bool]] = []
    max_var = 0
    for lit in final:
        max_var = max(max_var, abs(lit))
    for tag, lits in entries:
        if tag == "d":
            continue
        # dedupe literals and drop tautologies: logs carry clauses as the
        # caller wrote them, and a clause holding duplicate literals must
        # not masquerade as a wider (non-unit) clause here
        seen: set = set()
        encs: List[int] = []
        tautology = False
        for lit in lits:
            max_var = max(max_var, abs(lit))
            enc = _enc(lit)
            if enc ^ 1 in seen:
                tautology = True
                break
            if enc not in seen:
                seen.add(enc)
                encs.append(enc)
        if tautology:
            # never falsifiable and never forcing; as a lemma, trivially RUP
            continue
        clauses.append((encs, tag == "a"))
    checker = _Checker(clauses, max_var)
    needed: set = set()
    outcome = ProofCheckOutcome("ok")
    if not checker.rup([_enc(l) for l in final], len(clauses), needed):
        return ProofCheckOutcome(
            "failed", "terminal lemma is not implied (RUP check failed)"
        )
    # walk additions newest-first; only marked (load-bearing) ones are
    # checked, each against the strict prefix that precedes it
    for ci in range(len(clauses) - 1, -1, -1):
        lits, is_lemma = clauses[ci]
        if not is_lemma or ci not in needed:
            continue
        if deadline is not None and time.monotonic() > deadline:
            return ProofCheckOutcome(
                "budget",
                f"time budget exhausted after {outcome.lemmas_checked} lemmas",
                outcome.lemmas_checked,
                checker.steps,
            )
        if not checker.rup(lits, ci, needed):
            return ProofCheckOutcome(
                "failed",
                f"addition #{ci} is not RUP against its prefix",
                outcome.lemmas_checked,
                checker.steps,
            )
        outcome.lemmas_checked += 1
    outcome.steps = checker.steps
    return outcome


def verify_model(
    entries: Sequence[Tuple[str, Sequence[int]]], model
) -> Tuple[bool, str]:
    """Check a claimed model satisfies every input clause of a log.

    ``model`` maps a variable to its truth value (a dict or a callable).
    Only ``"i"`` entries are consulted -- additions are consequences, so
    a model of the inputs satisfies them too.  This is the SAT-side
    counterpart of :func:`check_proof`: a solver that answered SAT with
    a corrupt model (the flipped-bit mutation) fails here.
    """
    lookup = model if callable(model) else model.get
    for index, (tag, lits) in enumerate(entries):
        if tag != "i":
            continue
        satisfied = False
        for lit in lits:
            value = lookup(abs(lit))
            if bool(value) == (lit > 0):
                satisfied = True
                break
        if not satisfied:
            return False, f"input clause #{index} {tuple(lits)} is falsified"
    return True, ""
