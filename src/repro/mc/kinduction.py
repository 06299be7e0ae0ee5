"""k-induction: unbounded proofs of state invariants.

Used by RTL2MuPATH's first pruning step (DUV-level PL reachability,
SS V-B1): proving that a performing location is unreachable by *any*
instruction is an invariant proof, not a bounded cover, so BMC alone cannot
conclude it.  k-induction establishes ``G !bad``:

* **base**: no state within k steps of reset satisfies ``bad``;
* **step**: no length-(k+1) path of *arbitrary* states, all of whose first
  k states avoid ``bad``, ends in ``bad`` (with simple-path strengthening
  on request).

Both checks honor a conflict budget and can report UNDETERMINED.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .. import obs
from ..props.exprs import CycleExpr
from ..props.views import SymbolicOps, SymbolicTraceView
from ..rtl.netlist import Netlist
from ..solver.bitblast import blast_frame, paused_gc
from ..solver.bits import BitBuilder
from ..solver.sat import SAT, UNKNOWN, UNSAT, SatSolver
from .outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult

__all__ = ["prove_unreachable_kinduction"]


def _unroll(builder, netlist, initial_state, horizon, solver):
    frames = []
    state = initial_state
    for _ in range(horizon):
        input_bits = {
            node.name: builder.fresh_word(node.width) for node in netlist.inputs
        }
        frame = blast_frame(builder, netlist, state, input_bits)
        frames.append(frame)
        state = frame.next_state
    return frames


def _merge_counters(*deltas):
    """Sum per-solve counter dicts (base + inductive step)."""
    merged: Dict[str, int] = {}
    for delta in deltas:
        for key, value in delta.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def prove_unreachable_kinduction(
    netlist: Netlist,
    bad: CycleExpr,
    k: int = 4,
    symbolic_registers=(),
    conflict_budget: Optional[int] = 200000,
    simple_path: bool = True,
    pool=None,
    certify=None,
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
            netlist,
            bad,
            k=k,
            symbolic_registers=symbolic_registers,
            conflict_budget=conflict_budget,
            simple_path=simple_path,
            certify=certify,
        )
    from ..cert import CertifyPolicy

    policy = certify or CertifyPolicy()
    start = time.perf_counter()
    symbolic_registers = frozenset(symbolic_registers)
    query_name = "kind(%r)" % (bad,)

    def _finish(sp, outcome, detail, solver_delta, witness=None, certificate=None):
        # note: no check_seconds accounting here -- the caller records the
        # induction verdict into its PropertyStats and accounts the time
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

    with obs.span("mc.kinduction", k=k) as root:
        # ---- base case: BMC from reset for k steps
        with obs.span("mc.kinduction.base"):
            base_solver = SatSolver(proof=policy.enabled)
            base_builder = BitBuilder(base_solver)
            with paused_gc():
                reset_state: Dict[str, List[int]] = {}
                for reg, _ in netlist.registers:
                    if reg.name in symbolic_registers:
                        reset_state[reg.name] = base_builder.fresh_word(reg.width)
                    else:
                        reset_state[reg.name] = base_builder.const_word(
                            reg.reset, reg.width
                        )
                base_frames = _unroll(
                    base_builder, netlist, reset_state, k, base_solver
                )
            base_view = SymbolicTraceView(base_frames, base_builder)
            base_ops = SymbolicOps(base_builder)
            target = base_builder.FALSE
            for t in range(k):
                target = base_builder.or_(
                    target, bad.evaluate(base_view, t, base_ops)
                )
            verdict = base_solver.solve(
                assumptions=[target], max_conflicts=conflict_budget
            )
            base_delta = dict(base_solver.last_solve)
        if verdict == SAT:
            witness = [
                {
                    name: base_builder.word_value(bits)
                    for name, bits in frame.named.items()
                }
                for frame in base_frames
            ]
            certificate = None
            if policy.enabled:
                from ..cert import witness_certificate
                from ..cert.witness import decode_model_witness
                from ..props.views import ConcreteOps

                decoded = decode_model_witness(base_builder, base_frames)

                def _fires(view):
                    return any(
                        bad.evaluate(view, t, ConcreteOps)
                        for t in range(min(k, view.horizon))
                    )

                certificate = witness_certificate(
                    netlist,
                    decoded["registers"],
                    decoded["inputs"],
                    _fires,
                    name=query_name,
                )
            return _finish(
                root, REACHABLE, "base-case witness at k=%d" % k, base_delta,
                witness=witness, certificate=certificate,
            )
        if verdict == UNKNOWN:
            return _finish(
                root, UNDETERMINED, "base case budget exhausted", base_delta
            )

        # ---- inductive step: arbitrary start state, k good steps, bad at k
        with obs.span("mc.kinduction.step"):
            step_solver = SatSolver(proof=policy.enabled)
            step_builder = BitBuilder(step_solver)
            with paused_gc():
                free_state: Dict[str, List[int]] = {
                    reg.name: step_builder.fresh_word(reg.width)
                    for reg, _ in netlist.registers
                }
                step_frames = _unroll(
                    step_builder, netlist, free_state, k + 1, step_solver
                )
            step_view = SymbolicTraceView(step_frames, step_builder)
            step_ops = SymbolicOps(step_builder)
            for t in range(k):
                good = -bad.evaluate(step_view, t, step_ops)
                step_solver.add_clause([good])
            if simple_path:
                # distinctness as one clause of per-bit difference gates
                # per state pair -- the exact encoding the incremental
                # context asserts, so the parity legs compare identical
                # step formulas
                states = [free_state] + [
                    frame.next_state for frame in step_frames[:-1]
                ]
                with paused_gc():
                    for i in range(len(states)):
                        for j in range(i + 1, len(states)):
                            diff: List[int] = []
                            for name in states[i]:
                                diff.extend(
                                    step_builder.xor_(x, y)
                                    for x, y in zip(
                                        states[i][name], states[j][name]
                                    )
                                )
                            step_solver.add_clause(diff)
            bad_at_k = bad.evaluate(step_view, k, step_ops)
            verdict = step_solver.solve(
                assumptions=[bad_at_k], max_conflicts=conflict_budget
            )
            merged = _merge_counters(base_delta, step_solver.last_solve)
        if verdict == UNSAT:
            certificate = None
            if policy.enabled:
                from ..cert import drat_certificate

                # the base leg is also UNSAT here (REACHABLE returned
                # above), so both legs of the unbounded proof are bundled
                certificate = drat_certificate(
                    {
                        "base": (
                            base_solver.proof_entries(),
                            base_solver.final_lemma(),
                        ),
                        "step": (
                            step_solver.proof_entries(),
                            step_solver.final_lemma(),
                        ),
                    },
                    policy,
                    name=query_name,
                    overflow=base_solver.proof_overflowed()
                    or step_solver.proof_overflowed(),
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
