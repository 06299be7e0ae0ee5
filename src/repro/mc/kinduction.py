"""k-induction: unbounded proofs of state invariants.

Used by RTL2MuPATH's first pruning step (DUV-level PL reachability,
SS V-B1): proving that a performing location is unreachable by *any*
instruction is an invariant proof, not a bounded cover, so BMC alone cannot
conclude it.  k-induction establishes ``G !bad``:

* **base**: no state within k steps of reset satisfies ``bad``;
* **step**: no length-(k+1) simple path of *arbitrary* states, all of
  whose first k states avoid ``bad``, ends in ``bad``.

Both checks honor a conflict budget and can report UNDETERMINED.

Two provers share :class:`InductionProof`, which reads the legs' answers
as a verdict: :func:`prove_unreachable_kinduction` without a pool
rebuilds both legs' unrollings (:class:`~repro.mc.bmc.Unrolling`) per
property, and :class:`~repro.mc.incremental.IncrementalInductionContext`
answers many properties on one pair of them.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .. import obs
from ..props.exprs import CycleExpr
from ..props.views import ConcreteOps
from ..rtl.netlist import Netlist
from ..solver.bitblast import paused_gc
from ..solver.sat import SAT, UNSAT
from .bmc import Unrolling
from .outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult

__all__ = ["prove_unreachable_kinduction"]


class InductionProof:
    """One k-induction proof attempt of ``G !bad``: each leg's solve and
    the verdict they add up to."""

    def __init__(self, bad: CycleExpr, k: int, conflict_budget: Optional[int],
                 certify: bool):
        self.start = time.perf_counter()
        self.bad = bad
        self.k = k
        self.conflict_budget = conflict_budget
        self.certify = certify
        self.name = "kind(%r)" % (bad,)
        self._deltas: List[Dict[str, int]] = []
        self._solvers = []
        self._legs: Dict = {}

    def solve_base(self, base: Unrolling) -> str:
        """The base case on ``base`` (at least k frames from reset):
        ``bad`` in some cycle t < k."""
        builder = base.builder
        target = builder.FALSE
        for t in range(self.k):
            target = builder.or_(target, self.bad.evaluate(base.view, t, base.ops))
        return self.solve("base", base, [target])

    def solve(self, leg: str, unrolling: Unrolling, assumptions) -> str:
        """Solve one leg under ``assumptions``.  An UNSAT leg's proof is
        snapshotted while the verdict is fresh: later properties (and
        their retraction units) append to a shared solver's log."""
        solver = unrolling.solver
        verdict = solver.solve(
            assumptions=assumptions, max_conflicts=self.conflict_budget
        )
        self._deltas.append(dict(solver.last_solve))
        self._solvers.append(solver)
        if self.certify and verdict == UNSAT:
            self._legs[leg] = (solver.proof_entries(), solver.final_lemma())
        return verdict

    def base_verdict(self, span, verdict: str, base: Unrolling) -> CheckResult:
        """The result of a base case that found a witness or punted."""
        if verdict != SAT:
            return self._finish(span, UNDETERMINED, "base case budget exhausted")
        k, bad = self.k, self.bad
        certificate = None
        if self.certify:

            def fires(view):
                return any(
                    bad.evaluate(view, t, ConcreteOps)
                    for t in range(min(k, view.horizon))
                )

            certificate = base.witness_certificate(k, fires, self.name)
        return self._finish(
            span, REACHABLE, "base-case witness at k=%d" % k,
            witness=base.witness(k), certificate=certificate,
        )

    def step_verdict(self, span, verdict: str) -> CheckResult:
        """The result of the inductive step (the base case was UNSAT)."""
        if verdict == UNSAT:
            certificate = None
            if self.certify:
                from ..cert import drat_certificate

                certificate = drat_certificate(
                    self._legs,
                    name=self.name,
                    overflow=any(s.proof_overflowed() for s in self._solvers),
                )
            return self._finish(
                span, UNREACHABLE, "induction closed at k=%d" % self.k,
                certificate=certificate,
            )
        detail = (
            "induction step SAT (k too small or property not inductive)"
            if verdict == SAT
            else "induction step budget exhausted"
        )
        return self._finish(span, UNDETERMINED, detail)

    def _finish(self, span, outcome, detail, witness=None, certificate=None):
        # note: no check_seconds accounting here -- the caller records the
        # induction verdict into its PropertyStats and accounts the time
        span.set("outcome", outcome)
        solver: Dict[str, int] = {}
        for delta in self._deltas:
            for key, value in delta.items():
                solver[key] = solver.get(key, 0) + value
        return CheckResult(
            query_name=self.name,
            outcome=outcome,
            engine="k-induction",
            witness=witness,
            time_seconds=time.perf_counter() - self.start,
            detail=detail,
            depth=self.k,
            solver=solver,
            certificate=certificate,
        )


def prove_unreachable_kinduction(
    netlist: Netlist,
    bad: CycleExpr,
    k: int = 4,
    conflict_budget: Optional[int] = 200000,
    pool=None,
    certify: bool = False,
) -> CheckResult:
    """Try to prove ``bad`` globally unreachable via k-induction.

    Returns REACHABLE (base-case witness), UNREACHABLE (induction closed),
    or UNDETERMINED (induction failed at this k, or budget exhausted).

    With ``pool`` (an :class:`~repro.mc.incremental.InductionPool`) the
    proof runs on a shared incremental context -- one growing unrolling
    per design/cone instead of fresh solvers per property.  Without it,
    this is the legacy per-property rebuild path, kept as the independent
    reference the verdict-parity suite compares against.
    """
    if pool is not None:
        return pool.prove(
            netlist, bad, k=k, conflict_budget=conflict_budget, certify=certify
        )
    proof = InductionProof(bad, k, conflict_budget, certify)
    with obs.span("mc.kinduction", k=k) as root:
        # ---- base case: BMC from reset for k steps
        with obs.span("mc.kinduction.base"):
            base = Unrolling(netlist, proof=certify)
            base.extend_to(k)
            verdict = proof.solve_base(base)
        if verdict != UNSAT:
            return proof.base_verdict(root, verdict, base)

        # ---- inductive step: arbitrary start state, k good steps, bad at k
        with obs.span("mc.kinduction.step"):
            step = Unrolling(netlist, free=True, proof=certify)
            step.extend_to(k + 1)
            for t in range(k):
                step.solver.add_clause([-bad.evaluate(step.view, t, step.ops)])
            # simple-path strengthening: s_0 .. s_k pairwise distinct
            with paused_gc():
                for i in range(k + 1):
                    for j in range(i + 1, k + 1):
                        step.assert_distinct(i, j)
            verdict = proof.solve(
                "step", step, [bad.evaluate(step.view, k, step.ops)]
            )
        return proof.step_verdict(root, verdict)
