"""SAT-backed bounded model checking, and the unrolling every SAT check uses.

:class:`Unrolling` chains bit-blasted frames of a netlist over its own
solver, from reset values, a free state, or reset values with some
registers left symbolic.  BMC, both k-induction provers
(:mod:`repro.mc.kinduction`, :mod:`repro.mc.incremental`) and the fuzz
oracle's simulator-vs-bit-blaster check build on it, so one frame loop,
one witness decoder and one witness certificate serve them all.

:class:`BmcContext` unrolls a netlist once over a symbolic context (free or
constrained inputs per cycle, symbolically initialized architectural state)
and then answers many cover queries against that single unrolling with
solver assumptions -- the same amortization a commercial property verifier
performs when it compiles the design once and evaluates a property file.

Verdicts:

* SAT on the cover target  -> ``REACHABLE`` plus a concrete witness trace;
* UNSAT when the caller declared the horizon complete -> ``UNREACHABLE``;
* UNSAT under an incomplete horizon, or conflict budget exhausted
  -> ``UNDETERMINED``.

The context is incremental along two axes: properties are swapped via
solver assumptions against the single unrolling (learned clauses carry
over between checks), and :meth:`BmcContext.extend_to` deepens the
unrolling in place -- frames k..k'-1 are blasted on top of the existing
ones instead of rebuilding the whole formula.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .. import obs
from ..props.query import Query
from ..props.views import ConcreteOps, SymbolicOps, SymbolicTraceView
from ..rtl.netlist import Netlist
from ..solver.bitblast import Frame, blast_frame, paused_gc
from ..solver.bits import BitBuilder
from ..solver.sat import SAT, UNSAT, SatSolver
from .outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult
from .stats import PropertyStats

__all__ = ["BmcContext", "SymbolicContextSpec", "Unrolling"]


class Unrolling:
    """One growing unrolling of ``netlist`` over its own solver.

    Registers start at their reset values, except ``symbolic_registers``,
    which start free; ``free=True`` frees every register (the inductive
    step's arbitrary start state).  ``proof`` turns on the solver's proof
    log (:mod:`repro.cert`).
    """

    def __init__(self, netlist: Netlist, symbolic_registers=(), free: bool = False,
                 proof: bool = False):
        self.netlist = netlist
        self.solver = SatSolver(proof=proof)
        self.builder = builder = BitBuilder(self.solver)
        self.frames: List[Frame] = []
        initial: Dict[str, List[int]] = {}
        for reg, _ in netlist.registers:
            if free or reg.name in symbolic_registers:
                initial[reg.name] = builder.fresh_word(reg.width)
            else:
                initial[reg.name] = builder.const_word(reg.reset, reg.width)
        # s_0 .. s_h: the initial state, then each frame's next state
        self.states: List[Dict[str, List[int]]] = [initial]
        self.view = SymbolicTraceView(self.frames, builder)
        self.ops = SymbolicOps(builder)

    def extend_to(self, horizon: int, drive=None):
        """Blast the frames up to ``horizon`` on top of the last one.

        ``drive(builder, cycle)`` returns ``{input_name: bits or int}``
        for each new cycle; an input it omits is free (fresh variables).
        """
        builder = self.builder
        with paused_gc():
            for t in range(len(self.frames), horizon):
                driven = drive(builder, t) if drive is not None else {}
                inputs: Dict[str, List[int]] = {}
                for node in self.netlist.inputs:
                    value = driven.get(node.name)
                    if value is None:
                        value = builder.fresh_word(node.width)
                    elif isinstance(value, int):
                        value = builder.const_word(value, node.width)
                    inputs[node.name] = value
                frame = blast_frame(builder, self.netlist, self.states[-1], inputs)
                self.frames.append(frame)
                self.states.append(frame.next_state)

    def assert_distinct(self, i: int, j: int):
        """Assert that states ``i`` and ``j`` differ: one clause over their
        per-bit difference gates (simple-path strengthening)."""
        xor_ = self.builder.xor_
        a, b = self.states[i], self.states[j]
        diff: List[int] = []
        for name in a:
            diff.extend(xor_(x, y) for x, y in zip(a[name], b[name]))
        self.solver.add_clause(diff)

    def witness(self, depth: int) -> List[Dict[str, int]]:
        """The live model's named-signal values in cycles 0..depth-1."""
        value = self.builder.word_value
        return [
            {name: value(bits) for name, bits in frame.named.items()}
            for frame in self.frames[:depth]
        ]

    def witness_certificate(self, depth: int, holds, name: str) -> Dict:
        """Decode the live model -- initial registers and the first
        ``depth`` cycles' inputs -- and replay-check it against ``holds``,
        a predicate over the replayed trace view (:mod:`repro.cert`).

        Models are transient (the next solve destroys them), so this
        runs right after the SAT answer.
        """
        from ..cert import witness_certificate

        value = self.builder.word_value
        registers = {reg: value(word) for reg, word in self.states[0].items()}
        inputs = [
            {node: value(word) for node, word in frame.inputs.items()}
            for frame in self.frames[:depth]
        ]
        return witness_certificate(self.netlist, registers, inputs, holds, name=name)


class SymbolicContextSpec:
    """Declares how the symbolic environment drives the DUV.

    ``symbolic_registers``: register names whose initial value is free
    (architectural state under the paper's valid-reset-state convention);
    all other registers start at their RTL reset value.

    ``drive``: callable ``(builder, cycle) -> {input_name: bits or int}``.
    Inputs omitted from the returned dict are free (fresh variables).
    """

    def __init__(self, symbolic_registers=(), drive=None):
        self.symbolic_registers = frozenset(symbolic_registers)
        self.drive = drive


class BmcContext:
    """One unrolling of ``netlist`` for ``horizon`` cycles."""

    name = "bmc"

    def __init__(
        self,
        netlist: Netlist,
        horizon: int,
        context: Optional[SymbolicContextSpec] = None,
        complete_horizon: bool = False,
        conflict_budget: Optional[int] = 200000,
        stats: Optional[PropertyStats] = None,
        certify: bool = False,
    ):
        self.certify = certify
        self.netlist = netlist
        self.horizon = horizon
        self.context = context or SymbolicContextSpec()
        self.complete_horizon = complete_horizon
        self.conflict_budget = conflict_budget
        self.stats = stats
        self._checks = 0
        self.unrolling = Unrolling(
            netlist, self.context.symbolic_registers, proof=certify
        )
        self.unrolling.extend_to(horizon, self.context.drive)

    def extend_to(self, new_horizon: int, complete_horizon: Optional[bool] = None):
        """Deepen the unrolling in place to ``new_horizon`` cycles.

        Only the new frames are bit-blasted; learned clauses and the
        existing formula carry over, so growing k -> k+1 costs one frame,
        not a rebuild.  ``complete_horizon`` may be updated alongside
        (a deeper horizon can become the declared-complete one).
        """
        if new_horizon < self.horizon:
            raise ValueError(
                "cannot shrink horizon %d -> %d" % (self.horizon, new_horizon)
            )
        self.unrolling.extend_to(new_horizon, self.context.drive)
        self.horizon = new_horizon
        if complete_horizon is not None:
            self.complete_horizon = complete_horizon

    # ------------------------------------------------------------------ check
    def check(self, query: Query) -> CheckResult:
        with obs.span("mc.check", engine=self.name, query=query.name) as sp:
            start = time.perf_counter()
            if self._checks:
                from ..obs.metrics import REGISTRY

                REGISTRY.counter(
                    "repro_solver_incremental_reuse_total",
                    "solve() calls answered on a reused solver "
                    "(learned clauses retained)",
                ).inc(context="bmc")
            self._checks += 1
            unrolling = self.unrolling
            builder, view, ops = unrolling.builder, unrolling.view, unrolling.ops
            assumptions = []
            for expr in query.assumes:
                combined = builder.TRUE
                for t in range(self.horizon):
                    combined = builder.and_(combined, expr.evaluate(view, t, ops))
                assumptions.append(combined)
            assumptions.append(query.prop.evaluate(view, ops))
            verdict = unrolling.solver.solve(
                assumptions=assumptions, max_conflicts=self.conflict_budget
            )
            certificate = witness = None
            if verdict == SAT:
                outcome, detail = REACHABLE, ""
                witness = unrolling.witness(self.horizon)
                if self.certify:
                    certificate = unrolling.witness_certificate(
                        self.horizon, _holds(query), query.name
                    )
            elif verdict == UNSAT:
                if self.complete_horizon:
                    outcome = UNREACHABLE
                    detail = "UNSAT within declared-complete horizon"
                    if self.certify:
                        from ..cert import drat_certificate

                        solver = unrolling.solver
                        certificate = drat_certificate(
                            {"proof": (solver.proof_entries(), solver.final_lemma())},
                            name=query.name,
                            overflow=solver.proof_overflowed(),
                        )
                else:
                    outcome = UNDETERMINED
                    detail = "UNSAT within bounded horizon %d" % self.horizon
            else:
                outcome, detail = UNDETERMINED, "conflict budget exhausted"
            elapsed = time.perf_counter() - start
            result = CheckResult(
                query_name=query.name,
                outcome=outcome,
                engine=self.name,
                witness=witness,
                time_seconds=elapsed,
                detail=detail,
                depth=self.horizon,
                solver=dict(unrolling.solver.last_solve),
                certificate=certificate,
            )
            sp.set("outcome", outcome)
            if self.stats is not None:
                self.stats.record(result)
                obs.note_property(outcome, elapsed)
            return result


def _holds(query: Query):
    """``query`` (its assumptions every cycle, then its property) as a
    predicate over a concrete trace view."""

    def holds(view):
        for expr in query.assumes:
            for t in range(view.horizon):
                if not expr.evaluate(view, t, ConcreteOps):
                    return False
        return bool(query.prop.evaluate(view, ConcreteOps))

    return holds
