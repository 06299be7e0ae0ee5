"""Incremental k-induction: one growing proof context per design.

The legacy :func:`~repro.mc.kinduction.prove_unreachable_kinduction`
builds two fresh unrollings (base + inductive step) and re-bit-blasts the
whole design for every property.  :class:`IncrementalInductionContext`
builds each :class:`~repro.mc.bmc.Unrolling` once and answers every
subsequent property against it, through the same
:class:`~repro.mc.kinduction.InductionProof` legs:

* the **base case** swaps properties via solver assumptions on the single
  reset-rooted unrolling (Tseitin definitions of each property's target
  accumulate through the builder's gate caches, so repeated structure is
  shared);
* the **inductive step** installs each property's "good at t < k"
  constraints behind an activation literal, solves under
  ``[activation, bad_at_k]``, and retracts the group afterwards --
  learned clauses survive from property to property, only the
  per-property constraints come and go;
* simple-path (state-distinctness) strengthening is asserted once,
  permanently, since it is property-independent.

:meth:`IncrementalInductionContext.extend_k` deepens both unrollings in
place (k -> k+1 blasts one more frame each and adds the new distinctness
pairs) instead of rebuilding.  Soundness caveat: the step formula's
simple-path constraints span exactly ``k + 1`` states, so a context
answers at its *current* k only -- extension is monotonic.

:class:`InductionPool` memoizes contexts per (netlist, sequential
support, certify flag).  Each property is
sliced to its sequential cone of influence (:mod:`repro.rtl.coi`)
enriched with every named signal computable from the same support (a
property's support is the union of its signals' supports, which
:func:`~repro.rtl.coi.coi_supports` computes for every name at once), so
properties whose support is covered by an existing context's cone reuse
it -- that sharing is how a worker drains a whole same-design property
group on a single solver.  Slicing is part of the verdict contract, not
only a speed-up: the sliced step formula's simple-path constraint
ranges over fewer registers, so it can close an induction the full
formula leaves step-SAT.  ``InductionPool(coi=False)`` exists only as
the exact-parity reference of the parity suite.

Verdict parity with the legacy path is the soundness argument (see
``tests/test_parity_incremental.py``): definite verdicts must coincide,
and an UNDETERMINED may only be traded up when it was caused by a
conflict-budget exhaustion -- "step SAT, k too small" and "no witness in
a bounded horizon" are definite facts both paths must agree on.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Optional, Tuple

from .. import obs
from ..obs.metrics import REGISTRY
from ..props.exprs import CycleExpr
from ..rtl.coi import coi_slice, coi_supports
from ..rtl.netlist import Netlist
from ..solver.bitblast import paused_gc
from ..solver.sat import UNSAT
from .bmc import Unrolling
from .kinduction import InductionProof
from .outcomes import CheckResult

__all__ = ["IncrementalInductionContext", "InductionPool"]


def _reuse_counter():
    return REGISTRY.counter(
        "repro_solver_incremental_reuse_total",
        "solve() calls answered on a reused solver (learned clauses retained)",
    )


class IncrementalInductionContext:
    """Reusable k-induction context for one netlist.

    Answers :meth:`prove` for many ``bad`` properties on a single pair of
    unrollings; see the module docstring for the sharing scheme.
    """

    def __init__(self, netlist: Netlist, k: int, certify: bool = False):
        if k < 1:
            raise ValueError("k-induction needs k >= 1, got %d" % k)
        self.certify = certify
        self.netlist = netlist
        self.k = k
        self.checks = 0
        self._base = Unrolling(netlist, proof=certify)
        self._step = Unrolling(netlist, free=True, proof=certify)
        self._build(0, k)

    def _build(self, old_k: int, k: int):
        with paused_gc():
            self._base.extend_to(k)
            self._step.extend_to(k + 1)
            # pairwise distinctness over s_0 .. s_k, asserted once and
            # for good; on extension only the pairs involving the new
            # states are added
            for i in range(k + 1):
                for j in range(max(i + 1, old_k + 1), k + 1):
                    self._step.assert_distinct(i, j)

    def extend_k(self, new_k: int):
        """Monotonically deepen the context to answer at ``new_k``.

        Blasts only the new frames and asserts only the new distinctness
        pairs; afterwards :meth:`prove` answers at ``new_k``.
        """
        if new_k < self.k:
            raise ValueError(
                "induction context cannot shrink k %d -> %d" % (self.k, new_k)
            )
        if new_k > self.k:
            self._build(self.k, new_k)
            self.k = new_k

    def prove(
        self, bad: CycleExpr, conflict_budget: Optional[int] = 200000
    ) -> CheckResult:
        """Try to prove ``bad`` globally unreachable at this context's k."""
        proof = InductionProof(bad, self.k, conflict_budget, self.certify)
        k = self.k
        if self.checks:
            _reuse_counter().inc(context="kinduction")
        self.checks += 1

        with obs.span("mc.kinduction", k=k, incremental=True) as root:
            # ---- base case: BMC from reset for k steps, property assumed
            with obs.span("mc.kinduction.base"):
                verdict = proof.solve_base(self._base)
            if verdict != UNSAT:
                return proof.base_verdict(root, verdict, self._base)

            # ---- inductive step: per-property constraints behind an
            # activation literal, retracted afterwards
            with obs.span("mc.kinduction.step"):
                step = self._step
                act = step.solver.new_activation()
                for t in range(k):
                    good = -bad.evaluate(step.view, t, step.ops)
                    step.solver.add_clause([good], activation=act)
                # the step leg is snapshotted inside solve(), BEFORE
                # retract(): retraction logs a root unit (-act) that
                # would make the terminal lemma (which contains -act)
                # trivially implied -- a vacuous certificate
                verdict = proof.solve(
                    "step", step, [act, bad.evaluate(step.view, k, step.ops)]
                )
                step.solver.retract(act)
            return proof.step_verdict(root, verdict)


class InductionPool:
    """Memoized :class:`IncrementalInductionContext` instances.

    One pool per process (or per worker) is enough: contexts are keyed by
    (netlist, sequential support, certify flag), and a property whose
    support is covered by an existing context's cone reuses that
    context's solvers -- the "one worker drains a property group"
    pattern the engine's same-design batching sets up.
    """

    def __init__(self, coi: bool = True):
        self.coi = coi
        self._contexts: Dict[Tuple, IncrementalInductionContext] = {}
        # keyed weakly by netlist object: every property looks its
        # netlist up here, also one whose context is never built
        self._supports: "weakref.WeakKeyDictionary[Netlist, Dict[str, Tuple]]" = (
            weakref.WeakKeyDictionary()
        )

    def _supports_of(self, netlist: Netlist) -> Dict[str, Tuple]:
        """name -> (register names, input names) sequential support, for
        every named signal and output; computed once per netlist."""
        cached = self._supports.get(netlist)
        if cached is None:
            cached = self._supports[netlist] = coi_supports(netlist)
        return cached

    def _support(self, netlist: Netlist, targets) -> Tuple:
        """The support of ``targets``' cone: the union of theirs."""
        supports = self._supports_of(netlist)
        regs: FrozenSet[str] = frozenset()
        inputs: FrozenSet[str] = frozenset()
        for name in targets:
            regs |= supports[name][0]
            inputs |= supports[name][1]
        return (regs, inputs)

    def context_for(
        self,
        netlist: Netlist,
        bad: CycleExpr,
        k: int,
        certify: bool = False,
    ) -> IncrementalInductionContext:
        support = None
        if self.coi:
            targets = tuple(sorted(bad.signals()))
            support = self._support(netlist, targets)
        key = (netlist, support, certify)
        ctx = self._contexts.get(key)
        if (ctx is None or ctx.k > k) and self.coi:
            # a context whose cone covers this property's support serves it
            # just as well (its slice retains every named signal computable
            # from that support); prefer the smallest such cone, and skip
            # contexts already past this k (they cannot shrink)
            best = None
            for cand_key, cand in self._contexts.items():
                nl, sup, cert = cand_key
                if nl is not netlist or sup is None or cand.k > k:
                    continue
                if cert != certify:
                    continue
                if support[0] <= sup[0] and support[1] <= sup[1]:
                    if best is None or len(sup[0]) < len(best[0][1][0]):
                        best = (cand_key, cand)
            if best is not None:
                key, ctx = best
        if ctx is None or ctx.k > k:
            # contexts only grow; a smaller-k request gets a fresh context
            # (simple-path strengthening is k-specific, see module doc)
            key = (netlist, support, certify)
            target_netlist = netlist
            if self.coi:
                # enrich the slice with every named signal whose support
                # lies inside this property's cone: equal- or smaller-cone
                # properties then share this context instead of building
                # their own
                supports = self._supports_of(netlist)
                enriched = list(targets) + [
                    name
                    for name in netlist.named
                    if supports[name][0] <= support[0]
                    and supports[name][1] <= support[1]
                ]
                target_netlist = coi_slice(netlist, enriched)
            ctx = IncrementalInductionContext(target_netlist, k, certify=certify)
            self._contexts[key] = ctx
        elif ctx.k < k:
            ctx.extend_k(k)
        return ctx

    def prove(
        self,
        netlist: Netlist,
        bad: CycleExpr,
        k: int,
        conflict_budget: Optional[int] = 200000,
        certify: bool = False,
    ) -> CheckResult:
        ctx = self.context_for(netlist, bad, k, certify=certify)
        return ctx.prove(bad, conflict_budget=conflict_budget)
