"""SAT-backed bounded model checking.

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
from ..props.views import SymbolicOps, SymbolicTraceView
from ..rtl.netlist import Netlist
from ..solver.bitblast import Frame, blast_frame, paused_gc
from ..solver.bits import BitBuilder
from ..solver.sat import SAT, UNSAT, SatSolver
from .outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult
from .stats import PropertyStats

__all__ = ["BmcContext", "SymbolicContextSpec"]


class SymbolicContextSpec:
    """Declares how the symbolic environment drives the DUV.

    ``symbolic_registers``: register names whose initial value is free
    (architectural state under the paper's valid-reset-state convention);
    all other registers start at their RTL reset value.

    ``drive``: callable ``(builder, cycle) -> {input_name: bits or int}``.
    Inputs omitted from the returned dict are free (fresh variables).

    ``constrain``: optional callable ``(builder, frames) -> [literals]``
    returning environment assumptions (e.g. "fetch inputs always carry a
    valid encoding"), asserted globally.
    """

    def __init__(self, symbolic_registers=(), drive=None, constrain=None):
        self.symbolic_registers = frozenset(symbolic_registers)
        self.drive = drive
        self.constrain = constrain


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

        self.solver = SatSolver(proof=certify)
        self.builder = BitBuilder(self.solver)
        self.frames: List[Frame] = []
        self._checks = 0
        self._unroll()
        self.view = SymbolicTraceView(self.frames, self.builder)
        self.ops = SymbolicOps(self.builder)

    # ------------------------------------------------------------------ build
    def _unroll(self):
        builder = self.builder
        state: Dict[str, List[int]] = {}
        for reg, _ in self.netlist.registers:
            if reg.name in self.context.symbolic_registers:
                state[reg.name] = builder.fresh_word(reg.width)
            else:
                state[reg.name] = builder.const_word(reg.reset, reg.width)
        self._frontier_state = state
        self._extend(self.horizon)

    def _extend(self, new_horizon: int):
        builder = self.builder
        state = self._frontier_state
        with paused_gc():
            for t in range(len(self.frames), new_horizon):
                input_bits = self._drive_inputs(t)
                frame = blast_frame(builder, self.netlist, state, input_bits)
                self.frames.append(frame)
                state = frame.next_state
        self._frontier_state = state
        if self.context.constrain is not None:
            # constraint literals are built through the builder's gate
            # caches, so re-running the callable over the full frame list
            # re-asserts the old cycles' (deduplicated) literals and picks
            # up the new cycles
            for lit in self.context.constrain(builder, self.frames):
                self.solver.add_clause([lit])

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
        if new_horizon > self.horizon:
            self._extend(new_horizon)
            self.horizon = new_horizon
        if complete_horizon is not None:
            self.complete_horizon = complete_horizon

    def _drive_inputs(self, t) -> Dict[str, List[int]]:
        builder = self.builder
        driven = self.context.drive(builder, t) if self.context.drive else {}
        input_bits: Dict[str, List[int]] = {}
        for node in self.netlist.inputs:
            if node.name in driven:
                value = driven[node.name]
                if isinstance(value, int):
                    value = builder.const_word(value, node.width)
                input_bits[node.name] = value
            else:
                input_bits[node.name] = builder.fresh_word(node.width)
        return input_bits

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
            assumptions = []
            for expr in query.assumes:
                combined = self.builder.TRUE
                for t in range(self.horizon):
                    combined = self.builder.and_(
                        combined, expr.evaluate(self.view, t, self.ops)
                    )
                assumptions.append(combined)
            target = query.prop.evaluate(self.view, self.ops)
            assumptions.append(target)
            verdict = self.solver.solve(
                assumptions=assumptions, max_conflicts=self.conflict_budget
            )
            certificate = None
            if verdict == SAT:
                outcome = REACHABLE
                witness = self._extract_witness()
                detail = ""
                if self.certify:
                    certificate = self._witness_certificate(query)
            elif verdict == UNSAT:
                if self.complete_horizon:
                    outcome = UNREACHABLE
                    detail = "UNSAT within declared-complete horizon"
                    if self.certify:
                        certificate = self._drat_certificate(query)
                else:
                    outcome = UNDETERMINED
                    detail = "UNSAT within bounded horizon %d" % self.horizon
                witness = None
            else:
                outcome = UNDETERMINED
                detail = "conflict budget exhausted"
                witness = None
            elapsed = time.perf_counter() - start
            result = CheckResult(
                query_name=query.name,
                outcome=outcome,
                engine=self.name,
                witness=witness,
                time_seconds=elapsed,
                detail=detail,
                depth=self.horizon,
                solver=dict(self.solver.last_solve),
                certificate=certificate,
            )
            sp.set("outcome", outcome)
            if self.stats is not None:
                self.stats.record(result)
                obs.note_property(outcome, elapsed)
            return result

    def _witness_certificate(self, query: Query) -> Dict:
        """Decode the live SAT model and replay-confirm it (repro.cert)."""
        from ..cert import witness_certificate
        from ..cert.witness import decode_model_witness
        from ..props.views import ConcreteOps

        decoded = decode_model_witness(self.builder, self.frames)

        def _holds(view):
            for expr in query.assumes:
                for t in range(view.horizon):
                    if not expr.evaluate(view, t, ConcreteOps):
                        return False
            return bool(query.prop.evaluate(view, ConcreteOps))

        return witness_certificate(
            self.netlist,
            decoded["registers"],
            decoded["inputs"],
            _holds,
            name=query.name,
        )

    def _drat_certificate(self, query: Query) -> Dict:
        """Bundle the solver's proof log for this UNSAT answer (repro.cert)."""
        from ..cert import drat_certificate

        return drat_certificate(
            {"proof": (self.solver.proof_entries(), self.solver.final_lemma())},
            name=query.name,
            overflow=self.solver.proof_overflowed(),
        )

    def _extract_witness(self) -> List[Dict[str, int]]:
        witness = []
        for frame in self.frames:
            observation = {
                name: self.builder.word_value(bits)
                for name, bits in frame.named.items()
            }
            witness.append(observation)
        return witness
