"""Differential fuzz harness for the SAT stack.

The CDCL core -- the array-based BCP inner loop, first-UIP learning
with clause minimization, assumptions, cores and activation-guarded
retraction -- is locked down here by running seeded random formulas
through two independent answerers and insisting they agree:

* :class:`~repro.solver.sat.SatSolver` -- the production path;
* a tiny reference DPLL with unit propagation -- slow, obviously
  correct, and sharing no code with the production solver.

Beyond verdict agreement the harness checks the *evidence*:

* on SAT, the model must satisfy every original clause and every
  assumed literal must hold in the model;
* on UNSAT under assumptions, ``last_core`` must be a subset of the
  assumptions and the original formula plus the core alone must still be
  UNSAT per the oracle (core soundness);
* the two-watched-literal invariant must hold after every solve.

Three generators stress the incremental paths: plain formulas,
assumption-heavy runs (several assumption sets against one solver, so
later rounds reuse what earlier rounds learned), and retract-heavy runs
(activation-guarded clause groups activated, deactivated, and
permanently retracted).

The mutation test at the bottom proves the harness has teeth: a
conflict analysis that drops a non-asserting literal from the learned
clause (an unsound lemma) must be caught.

Set ``SOLVER_DIFF_ARTIFACTS=<dir>`` to dump the DIMACS of any failing
formula (the CI ``solver-diff`` job uploads that directory), and
``SOLVER_DIFF_RANDOM_SECONDS=<n>`` to append a wall-clock-bounded sweep
over entropy-picked seeds on top of the fixed tier-1 seed range.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.solver import SAT, UNSAT, SatSolver

Clause = Tuple[int, ...]

# Seeded coverage in tier-1: 3 generators x _BATCHES x _PER_BATCH
# formulas >= the 500 the issue asks for.
_BATCHES = 10
_PER_BATCH = 20


# ----------------------------------------------------------------- oracle
def dpll(clauses: Sequence[Sequence[int]], assignment=None) -> Optional[Dict[int, bool]]:
    """Reference DPLL with unit propagation; model dict or None (UNSAT).

    Deliberately naive and recursive: for the <= ~20-variable formulas
    the generators emit this is instant, and it shares nothing with the
    production solver -- no watch lists, no learning.
    """
    assignment = dict(assignment or {})
    while True:
        unit = None
        remaining: List[List[int]] = []
        for clause in clauses:
            live: List[int] = []
            satisfied = False
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    live.append(lit)
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not live:
                return None
            if len(live) == 1 and unit is None:
                unit = live[0]
            remaining.append(live)
        clauses = remaining
        if unit is None:
            break
        assignment[abs(unit)] = unit > 0
    if not clauses:
        return assignment
    branch = clauses[0][0]
    for choice in (branch, -branch):
        model = dpll(clauses, {**assignment, abs(choice): choice > 0})
        if model is not None:
            return model
    return None


def oracle_verdict(clauses: Sequence[Sequence[int]]) -> str:
    return UNSAT if dpll(clauses) is None else SAT


# ------------------------------------------------------------- generators
def _random_clause(rng: random.Random, num_vars: int, width: int) -> Clause:
    chosen = rng.sample(range(1, num_vars + 1), min(width, num_vars))
    return tuple(v if rng.random() < 0.5 else -v for v in chosen)


def random_formula(rng: random.Random) -> Tuple[int, List[Clause]]:
    """A small CNF with duplicate and near-duplicate clauses mixed in.

    Duplicates, strict supersets and polarity-flipped variable-supersets
    put redundant and almost-redundant clauses side by side, and the low
    clause/variable ratio leaves pure and low-occurrence variables.
    """
    num_vars = rng.randrange(4, 13)
    num_clauses = rng.randrange(num_vars, 4 * num_vars)
    clauses: List[Clause] = []
    for _ in range(num_clauses):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4, 5))
        clauses.append(_random_clause(rng, num_vars, width))
    for _ in range(rng.randrange(0, 4)):
        base = list(rng.choice(clauses))
        kind = rng.randrange(3)
        if kind == 0:
            clauses.append(tuple(base))  # duplicate
        else:
            extra = rng.randrange(1, num_vars + 1)
            if extra in (abs(l) for l in base):
                continue
            lit = extra if rng.random() < 0.5 else -extra
            if kind == 1:
                clauses.append(tuple(base + [lit]))  # strict superset
            else:
                flipped = [-l if rng.random() < 0.5 else l for l in base]
                clauses.append(tuple(flipped + [lit]))  # var-superset only
    return num_vars, clauses


# -------------------------------------------------------------- harnesses
def _dump_cnf(tag: str, num_vars: int, clauses: Sequence[Sequence[int]]) -> None:
    directory = os.environ.get("SOLVER_DIFF_ARTIFACTS")
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "%s.cnf" % tag), "w") as fh:
        fh.write("p cnf %d %d\n" % (num_vars, len(clauses)))
        for clause in clauses:
            fh.write(" ".join(str(lit) for lit in clause) + " 0\n")


def _build(num_vars: int, clauses: Sequence[Clause]) -> SatSolver:
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(list(clause))
    return solver


def _assert_model(solver: SatSolver, clauses, assumptions, context: str) -> None:
    for lit in assumptions:
        assert solver.model_value(abs(lit)) == (lit > 0), (
            "%s: assumed literal %d does not hold in the model" % (context, lit)
        )
    for clause in clauses:
        assert any(solver.model_value(abs(lit)) == (lit > 0) for lit in clause), (
            "%s: model violates original clause %r" % (context, tuple(clause))
        )


def _assert_core(solver: SatSolver, clauses, assumptions, context: str) -> None:
    core = solver.last_core
    assert core is not None, "%s: UNSAT verdict without a core" % context
    assert set(core) <= set(assumptions), (
        "%s: core %r not a subset of assumptions %r" % (context, core, assumptions)
    )
    assert dpll(list(clauses) + [[lit] for lit in core]) is None, (
        "%s: core %r does not suffice for UNSAT" % (context, core)
    )


def run_plain(seed: int) -> None:
    """One formula, no assumptions: verdict + model + watch invariant."""
    rng = random.Random(seed)
    num_vars, clauses = random_formula(rng)
    try:
        expected = oracle_verdict(clauses)
        context = "plain seed=%d" % seed
        solver = _build(num_vars, clauses)
        verdict = solver.solve()
        assert verdict == expected, (
            "%s: solver says %s, oracle says %s" % (context, verdict, expected)
        )
        if verdict == SAT:
            _assert_model(solver, clauses, (), context)
        assert solver.check_watch_invariant(), context
    except AssertionError:
        _dump_cnf("plain_seed%d" % seed, num_vars, clauses)
        raise


def run_assumptions(seed: int, rounds: int = 4) -> None:
    """Several assumption sets against one solver.

    Every round keeps the clauses learned by the rounds before it, so a
    lemma that is only valid under an earlier round's assumptions would
    poison a later verdict.
    """
    rng = random.Random(seed)
    num_vars, clauses = random_formula(rng)
    try:
        solver = _build(num_vars, clauses)
        for round_idx in range(rounds):
            count = rng.randrange(1, 4)
            chosen = rng.sample(range(1, num_vars + 1), min(count, num_vars))
            assumptions = [v if rng.random() < 0.5 else -v for v in chosen]
            expected = oracle_verdict(
                list(clauses) + [[lit] for lit in assumptions]
            )
            context = "assume seed=%d round=%d assumptions=%r" % (
                seed, round_idx, assumptions,
            )
            verdict = solver.solve(assumptions=assumptions)
            assert verdict == expected, (
                "%s: solver says %s, oracle says %s"
                % (context, verdict, expected)
            )
            if verdict == SAT:
                _assert_model(solver, clauses, assumptions, context)
            else:
                _assert_core(solver, clauses, assumptions, context)
            assert solver.check_watch_invariant(), context
    except AssertionError:
        _dump_cnf("assume_seed%d" % seed, num_vars, clauses)
        raise


def run_retract(seed: int, rounds: int = 5) -> None:
    """Activation-guarded clause groups: activate, skip, retract.

    The solver is checked against an oracle formula that mirrors the
    guard encoding exactly: group clauses carry ``-act``, a retracted
    group contributes the root unit ``-act``.
    """
    rng = random.Random(seed)
    num_vars, base = random_formula(rng)
    try:
        solver = _build(num_vars, base)
        groups = []
        for _ in range(3):
            act = solver.new_activation()
            clauses = [
                list(_random_clause(rng, num_vars, rng.choice((2, 3, 3, 4))))
                for _ in range(rng.randrange(1, 4))
            ]
            if rng.random() < 0.5:
                # plant a contradiction so activating this group matters
                var = rng.randrange(1, num_vars + 1)
                clauses += [[var], [-var]]
            for clause in clauses:
                solver.add_clause(list(clause), activation=act)
            groups.append({"act": act, "clauses": clauses, "retired": False})
        for round_idx in range(rounds):
            live = [g for g in groups if not g["retired"]]
            if live and rng.random() < 0.4:
                victim = rng.choice(live)
                victim["retired"] = True
                solver.retract(victim["act"])
            assumed_acts = {
                g["act"]
                for g in groups
                if not g["retired"] and rng.random() < 0.6
            }
            retired = [g for g in groups if g["retired"]]
            if retired and round_idx == rounds - 1:
                # asserting a retired activation must come back UNSAT
                assumed_acts.add(rng.choice(retired)["act"])
            extra_count = rng.randrange(0, 3)
            chosen = rng.sample(range(1, num_vars + 1), min(extra_count, num_vars))
            assumptions = sorted(assumed_acts) + [
                v if rng.random() < 0.5 else -v for v in chosen
            ]
            oracle_clauses: List[List[int]] = [list(c) for c in base]
            for group in groups:
                for clause in group["clauses"]:
                    oracle_clauses.append(list(clause) + [-group["act"]])
                if group["retired"]:
                    oracle_clauses.append([-group["act"]])
            expected = oracle_verdict(
                oracle_clauses + [[lit] for lit in assumptions]
            )
            context = "retract seed=%d round=%d assumptions=%r" % (
                seed, round_idx, assumptions,
            )
            verdict = solver.solve(assumptions=assumptions)
            assert verdict == expected, (
                "%s: solver says %s, oracle says %s"
                % (context, verdict, expected)
            )
            if verdict == SAT:
                _assert_model(solver, oracle_clauses, assumptions, context)
            else:
                _assert_core(solver, oracle_clauses, assumptions, context)
            assert solver.check_watch_invariant(), context
    except AssertionError:
        _dump_cnf("retract_seed%d" % seed, num_vars, base)
        raise


# ------------------------------------------------------------ fixed seeds
class TestDifferentialPlain:
    @pytest.mark.parametrize("batch", range(_BATCHES))
    def test_batch(self, batch):
        for seed in range(batch * _PER_BATCH, (batch + 1) * _PER_BATCH):
            run_plain(seed)


class TestDifferentialAssumptions:
    @pytest.mark.parametrize("batch", range(_BATCHES))
    def test_batch(self, batch):
        for seed in range(batch * _PER_BATCH, (batch + 1) * _PER_BATCH):
            run_assumptions(10_000 + seed)


class TestDifferentialRetract:
    @pytest.mark.parametrize("batch", range(_BATCHES))
    def test_batch(self, batch):
        for seed in range(batch * _PER_BATCH, (batch + 1) * _PER_BATCH):
            run_retract(20_000 + seed)


class TestRandomizedBudget:
    """Entropy-seeded sweep, wall-clock bounded; CI sets the env var."""

    def test_random_budget(self):
        budget = float(os.environ.get("SOLVER_DIFF_RANDOM_SECONDS", "0"))
        if not budget:
            pytest.skip("SOLVER_DIFF_RANDOM_SECONDS not set")
        deadline = time.monotonic() + budget
        entropy = random.SystemRandom()
        explored = 0
        while time.monotonic() < deadline:
            seed = entropy.randrange(2**32)
            run_plain(seed)
            run_assumptions(seed)
            run_retract(seed)
            explored += 1
        assert explored > 0


# --------------------------------------------------------- mutation tests
_clean_analyze = SatSolver._analyze


def drop_learned_literal(solver: SatSolver, conflict):
    """The seeded mutation: first-UIP learning that loses the last
    non-asserting literal, so the learned clause is no longer implied.

    The highest-level non-asserting literal always survives, so the
    backtrack level still fits the shortened clause and the mutant stays
    a well-formed CDCL search over a wrong lemma.
    """
    learned, back_level = _clean_analyze(solver, conflict)
    if len(learned) > 1:
        learned.pop()
        if len(learned) == 1:
            back_level = 0
    return learned, back_level


def _sweep_for_detection(seeds) -> int:
    """How many harness runs notice something wrong under a mutation."""
    detections = 0
    for seed in seeds:
        try:
            run_plain(seed)
            run_assumptions(seed)
            run_retract(seed)
        except AssertionError:
            detections += 1
    return detections


class TestMutationDetection:
    """The harness must have teeth: a planted CDCL bug gets caught."""

    def test_dropped_learned_literal_is_caught(self, monkeypatch):
        monkeypatch.setattr(SatSolver, "_analyze", drop_learned_literal)
        # The unsound lemma only removes models, so the bug surfaces as a
        # wrong UNSAT (or as a core the oracle cannot confirm); which
        # seeds learn a lemma whose lost literal matters depends on the
        # search, so the seeded sweep is the check
        detections = _sweep_for_detection(range(40))
        assert detections, "harness failed to detect an unsound learned clause"


def test_unmutated_sweep_is_clean():
    """The mutation-detection sweep itself passes without mutations."""
    assert _sweep_for_detection(range(40)) == 0
