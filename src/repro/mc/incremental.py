"""Incremental k-induction: one growing proof context per design.

The legacy :func:`~repro.mc.kinduction.prove_unreachable_kinduction`
builds two fresh solvers (base + inductive step) and re-bit-blasts the
whole design for every property.  :class:`IncrementalInductionContext`
builds each unrolling once and answers every subsequent property against
it:

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
support, symbolic-register set, simple-path flag).  Each property is
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

import time
import weakref
from typing import Dict, FrozenSet, List, Optional, Tuple

from .. import obs
from ..obs.metrics import REGISTRY
from ..props.exprs import CycleExpr
from ..props.views import SymbolicOps, SymbolicTraceView
from ..rtl.coi import coi_slice, coi_supports
from ..rtl.netlist import Netlist
from ..solver.bitblast import blast_frame, paused_gc
from ..solver.bits import BitBuilder
from ..solver.sat import SAT, UNKNOWN, UNSAT, SatSolver
from .outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult

__all__ = ["IncrementalInductionContext", "InductionPool"]


def _reuse_counter():
    return REGISTRY.counter(
        "repro_solver_incremental_reuse_total",
        "solve() calls answered on a reused solver (learned clauses retained)",
    )


class _Unrolling:
    """One growing transition unrolling over its own solver."""

    def __init__(
        self,
        netlist: Netlist,
        symbolic_init: bool,
        symbolic_registers,
        proof: bool = False,
    ):
        self.netlist = netlist
        self.solver = SatSolver(proof=proof)
        self.builder = BitBuilder(self.solver)
        self.frames: List = []
        state: Dict[str, List[int]] = {}
        for reg, _ in netlist.registers:
            if symbolic_init or reg.name in symbolic_registers:
                state[reg.name] = self.builder.fresh_word(reg.width)
            else:
                state[reg.name] = self.builder.const_word(reg.reset, reg.width)
        self.initial_state = state
        self._frontier = state
        self.view = SymbolicTraceView(self.frames, self.builder)
        self.ops = SymbolicOps(self.builder)

    def extend_to(self, horizon: int):
        state = self._frontier
        for _ in range(len(self.frames), horizon):
            input_bits = {
                node.name: self.builder.fresh_word(node.width)
                for node in self.netlist.inputs
            }
            frame = blast_frame(self.builder, self.netlist, state, input_bits)
            self.frames.append(frame)
            state = frame.next_state
        self._frontier = state

    @property
    def states(self):
        """State vectors s_0 .. s_h (initial plus each frame's next)."""
        return [self.initial_state] + [f.next_state for f in self.frames]


class IncrementalInductionContext:
    """Reusable k-induction context for one netlist.

    Answers :meth:`prove` for many ``bad`` properties on a single pair of
    unrollings; see the module docstring for the sharing scheme.
    """

    def __init__(
        self,
        netlist: Netlist,
        k: int,
        symbolic_registers=(),
        simple_path: bool = True,
        certify: bool = False,
    ):
        if k < 1:
            raise ValueError("k-induction needs k >= 1, got %d" % k)
        self.certify = certify
        self.netlist = netlist
        self.k = k
        self.symbolic_registers = frozenset(symbolic_registers)
        self.simple_path = simple_path
        self.checks = 0
        self._base = _Unrolling(netlist, False, self.symbolic_registers, proof=certify)
        self._step = _Unrolling(netlist, True, (), proof=certify)
        self._asserted_pairs: set = set()
        self._build(k)

    def _build(self, k: int):
        with paused_gc():
            self._base.extend_to(k)
            self._step.extend_to(k + 1)
            if self.simple_path:
                # pairwise distinctness over s_0 .. s_k; on extension only
                # the pairs involving the new states are asserted.  Two
                # states differ iff some bit differs: one clause over the
                # per-bit difference gates -- the same constraint the
                # legacy path asserts, encoded without the equality-gate
                # tree and its unit-propagation cascade per pair
                states = self._step.states[: k + 1]
                xor_ = self._step.builder.xor_
                add_clause = self._step.solver.add_clause
                for i in range(len(states)):
                    for j in range(i + 1, len(states)):
                        if (i, j) in self._asserted_pairs:
                            continue
                        diff: List[int] = []
                        for name in states[i]:
                            diff.extend(
                                xor_(x, y)
                                for x, y in zip(states[i][name], states[j][name])
                            )
                        add_clause(diff)
                        self._asserted_pairs.add((i, j))

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
            self._build(new_k)
            self.k = new_k

    def prove(
        self, bad: CycleExpr, conflict_budget: Optional[int] = 200000
    ) -> CheckResult:
        """Try to prove ``bad`` globally unreachable at this context's k."""
        start = time.perf_counter()
        k = self.k
        if self.checks:
            _reuse_counter().inc(context="kinduction")
        self.checks += 1

        query_name = "kind(%r)" % (bad,)

        def _finish(sp, outcome, detail, solver_delta, witness=None, certificate=None):
            elapsed = time.perf_counter() - start
            sp.set("outcome", outcome)
            return CheckResult(
                query_name=query_name,
                outcome=outcome,
                engine="k-induction",
                witness=witness,
                time_seconds=elapsed,
                detail=detail,
                depth=k,
                solver=solver_delta,
                certificate=certificate,
            )

        with obs.span("mc.kinduction", k=k, incremental=True) as root:
            # ---- base case: BMC from reset for k steps, property assumed
            with obs.span("mc.kinduction.base"):
                base = self._base
                target = base.builder.FALSE
                for t in range(k):
                    target = base.builder.or_(
                        target, bad.evaluate(base.view, t, base.ops)
                    )
                verdict = base.solver.solve(
                    assumptions=[target], max_conflicts=conflict_budget
                )
                base_delta = dict(base.solver.last_solve)
                # snapshot the proof leg while the verdict is fresh: later
                # properties (and their retraction units) append to the
                # same shared log
                base_leg = None
                if self.certify and verdict == UNSAT:
                    base_leg = (
                        base.solver.proof_entries(),
                        base.solver.final_lemma(),
                    )
            if verdict == SAT:
                witness = [
                    {
                        name: base.builder.word_value(bits)
                        for name, bits in frame.named.items()
                    }
                    for frame in base.frames[:k]
                ]
                certificate = None
                if self.certify:
                    from ..cert import witness_certificate
                    from ..cert.witness import decode_model_witness
                    from ..props.views import ConcreteOps

                    decoded = decode_model_witness(base.builder, base.frames[:k])

                    def _fires(view):
                        return any(
                            bad.evaluate(view, t, ConcreteOps)
                            for t in range(min(k, view.horizon))
                        )

                    certificate = witness_certificate(
                        self.netlist,
                        decoded["registers"],
                        decoded["inputs"],
                        _fires,
                        name=query_name,
                    )
                return _finish(
                    root, REACHABLE, "base-case witness at k=%d" % k,
                    base_delta, witness=witness, certificate=certificate,
                )
            if verdict == UNKNOWN:
                return _finish(
                    root, UNDETERMINED, "base case budget exhausted", base_delta
                )

            # ---- inductive step: per-property constraints behind an
            # activation literal, retracted afterwards
            with obs.span("mc.kinduction.step"):
                step = self._step
                act = step.solver.new_activation()
                for t in range(k):
                    good = -bad.evaluate(step.view, t, step.ops)
                    step.solver.add_clause([good], activation=act)
                bad_at_k = bad.evaluate(step.view, k, step.ops)
                verdict = step.solver.solve(
                    assumptions=[act, bad_at_k], max_conflicts=conflict_budget
                )
                step_delta = dict(step.solver.last_solve)
                # capture the step leg BEFORE retract(): retraction logs a
                # root unit (-act) that would make the terminal lemma
                # (which contains -act) trivially implied -- a vacuous
                # certificate
                step_leg = None
                if self.certify and verdict == UNSAT:
                    step_leg = (
                        step.solver.proof_entries(),
                        step.solver.final_lemma(),
                    )
                step.solver.retract(act)
                merged: Dict[str, int] = {}
                for delta in (base_delta, step_delta):
                    for key, value in delta.items():
                        merged[key] = merged.get(key, 0) + value
            if verdict == UNSAT:
                certificate = None
                if self.certify and base_leg and step_leg:
                    from ..cert import drat_certificate

                    certificate = drat_certificate(
                        {"base": base_leg, "step": step_leg},
                        name=query_name,
                        overflow=base.solver.proof_overflowed()
                        or step.solver.proof_overflowed(),
                    )
                return _finish(
                    root, UNREACHABLE, "induction closed at k=%d" % k, merged,
                    certificate=certificate,
                )
            detail = (
                "induction step SAT (k too small or property not inductive)"
                if verdict == SAT
                else "induction step budget exhausted"
            )
            return _finish(root, UNDETERMINED, detail, merged)


class InductionPool:
    """Memoized :class:`IncrementalInductionContext` instances.

    One pool per process (or per worker) is enough: contexts are keyed by
    (netlist, sequential support, symbolic registers, simple-path), and a
    property whose support is covered by an existing context's cone
    reuses that context's solvers -- the "one worker drains a property
    group" pattern the engine's same-design batching sets up.
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
        symbolic_registers=(),
        simple_path: bool = True,
        certify: bool = False,
    ) -> IncrementalInductionContext:
        symbolic_registers = frozenset(symbolic_registers)
        support = None
        if self.coi:
            targets = tuple(sorted(bad.signals()))
            support = self._support(netlist, targets)
        key = (netlist, support, symbolic_registers, simple_path, certify)
        ctx = self._contexts.get(key)
        if (ctx is None or ctx.k > k) and self.coi:
            # a context whose cone covers this property's support serves it
            # just as well (its slice retains every named signal computable
            # from that support); prefer the smallest such cone, and skip
            # contexts already past this k (they cannot shrink)
            best = None
            for cand_key, cand in self._contexts.items():
                nl, sup, sregs, sp, cert = cand_key
                if nl is not netlist or sup is None or cand.k > k:
                    continue
                if sregs != symbolic_registers or sp != simple_path:
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
            key = (netlist, support, symbolic_registers, simple_path, certify)
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
                target_netlist = coi_slice(netlist, enriched).netlist
            ctx = IncrementalInductionContext(
                target_netlist,
                k,
                symbolic_registers,
                simple_path,
                certify=certify,
            )
            self._contexts[key] = ctx
        elif ctx.k < k:
            ctx.extend_k(k)
        return ctx

    def prove(
        self,
        netlist: Netlist,
        bad: CycleExpr,
        k: int,
        symbolic_registers=(),
        conflict_budget: Optional[int] = 200000,
        simple_path: bool = True,
        certify: bool = False,
    ) -> CheckResult:
        ctx = self.context_for(
            netlist, bad, k, symbolic_registers, simple_path, certify=certify
        )
        return ctx.prove(bad, conflict_budget=conflict_budget)
