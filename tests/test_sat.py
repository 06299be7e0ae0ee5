"""SAT solver tests: correctness against brute force, budgets, assumptions."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import SAT, UNKNOWN, UNSAT, SatSolver


def brute_force(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


class TestBasics:
    def test_empty_formula_sat(self):
        assert SatSolver().solve() == SAT

    def test_unit(self):
        s = SatSolver()
        v = s.new_var()
        s.add_clause([v])
        assert s.solve() == SAT and s.model_value(v)

    def test_contradiction(self):
        s = SatSolver()
        v = s.new_var()
        s.add_clause([v])
        s.add_clause([-v])
        assert s.solve() == UNSAT

    def test_tautology_ignored(self):
        s = SatSolver()
        v = s.new_var()
        s.add_clause([v, -v])
        assert s.solve() == SAT

    def test_duplicate_literals_collapse(self):
        s = SatSolver()
        v = s.new_var()
        s.add_clause([v, v, v])
        assert s.solve() == SAT and s.model_value(v)

    def test_implication_chain(self):
        s = SatSolver()
        vs = [s.new_var() for _ in range(50)]
        for i in range(49):
            s.add_clause([-vs[i], vs[i + 1]])
        s.add_clause([vs[0]])
        assert s.solve() == SAT
        assert all(s.model_value(v) for v in vs)

    def test_model_satisfies_clauses(self):
        s = SatSolver()
        vs = [s.new_var() for _ in range(8)]
        clauses = [[vs[0], -vs[1]], [vs[1], vs[2]], [-vs[2], vs[3], -vs[4]],
                   [vs[4], vs[5]], [-vs[5], -vs[0]], [vs[6], vs[7]]]
        for c in clauses:
            s.add_clause(c)
        assert s.solve() == SAT
        for c in clauses:
            assert any(s.model_value(abs(l)) == (l > 0) for l in c)


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_unsat(self, holes):
        pigeons = holes + 1
        s = SatSolver()
        p = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for i in range(pigeons):
            s.add_clause(p[i])
        for h in range(holes):
            for i in range(pigeons):
                for j in range(i + 1, pigeons):
                    s.add_clause([-p[i][h], -p[j][h]])
        assert s.solve() == UNSAT

    def test_sat_when_enough_holes(self):
        s = SatSolver()
        holes, pigeons = 3, 3
        p = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for i in range(pigeons):
            s.add_clause(p[i])
        for h in range(holes):
            for i in range(pigeons):
                for j in range(i + 1, pigeons):
                    s.add_clause([-p[i][h], -p[j][h]])
        assert s.solve() == SAT


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([-a, b])
        assert s.solve(assumptions=[a]) == SAT
        assert s.model_value(b)

    def test_conflicting_assumptions(self):
        s = SatSolver()
        a = s.new_var()
        assert s.solve(assumptions=[a, -a]) == UNSAT

    def test_assumption_vs_clause_conflict(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([-a])
        assert s.solve(assumptions=[a]) == UNSAT

    def test_reusable_across_assumptions(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve(assumptions=[-a]) == SAT
        assert s.model_value(b)
        assert s.solve(assumptions=[-b]) == SAT
        assert s.model_value(a)
        assert s.solve(assumptions=[-a, -b]) == UNSAT
        # the solver must remain usable after an assumption failure
        assert s.solve(assumptions=[a, b]) == SAT


class TestAssumptionRetraction:
    """Activation-literal retraction and unsat-core hygiene.

    The incremental engines install per-property constraints behind
    activation literals and retract them between checks; a reused context
    must answer later properties exactly as a fresh solver would, and an
    UNSAT core must only mention the *current* call's assumptions -- in
    particular, activation literals from a property that already got a SAT
    verdict must never leak into a later core.
    """

    def test_guarded_clause_inert_without_assumption(self):
        s = SatSolver()
        v = s.new_var()
        act = s.new_activation()
        s.add_clause([-v], activation=act)
        s.add_clause([v])
        # without the activation assumed the guard keeps [-v] inert
        assert s.solve() == SAT
        assert s.model_value(v)
        # with it assumed the constraint bites
        assert s.solve(assumptions=[act]) == UNSAT

    def test_retract_disables_group(self):
        s = SatSolver()
        v, w = s.new_var(), s.new_var()
        act = s.new_activation()
        s.add_clause([-v], activation=act)
        s.add_clause([-w], activation=act)
        s.add_clause([v])
        s.add_clause([w])
        assert s.solve(assumptions=[act]) == UNSAT
        s.retract(act)
        # retired group no longer constrains the formula
        assert s.solve() == SAT
        assert s.model_value(v) and s.model_value(w)
        # assuming a *retired* activation is a contradiction by design
        # (retraction is a root-level unit), and the core says only that
        assert s.solve(assumptions=[act]) == UNSAT
        assert {abs(l) for l in s.last_core} == {act}

    def test_retraction_matches_fresh_solver(self):
        # a reused solver after retraction agrees with a fresh solver on a
        # chain of property groups (the incremental k-induction pattern)
        fresh_clauses = []
        s = SatSolver()
        vs = [s.new_var() for _ in range(6)]
        for i in range(5):
            s.add_clause([-vs[i], vs[i + 1]])
            fresh_clauses.append([-(i + 1), (i + 2)])
        for i in range(5):
            act = s.new_activation()
            s.add_clause([vs[i]], activation=act)
            s.add_clause([-vs[i + 1]], activation=act)
            assert s.solve(assumptions=[act]) == UNSAT
            s.retract(act)
            f = SatSolver()
            for _ in range(6):
                f.new_var()
            for clause in fresh_clauses:
                f.add_clause(clause)
            f.add_clause([i + 1])
            f.add_clause([-(i + 2)])
            assert f.solve() == UNSAT
        assert s.solve() == SAT

    def test_unsat_core_subset_of_assumptions(self):
        s = SatSolver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([-a, -b])
        assert s.solve(assumptions=[c, a, b]) == UNSAT
        assert s.last_core is not None
        assert set(s.last_core) <= {a, b}  # c is irrelevant
        assert set(s.last_core) == {a, b}

    def test_core_cleared_on_sat(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([-a, -b])
        assert s.solve(assumptions=[a, b]) == UNSAT
        assert s.last_core
        assert s.solve(assumptions=[a]) == SAT
        assert s.last_core is None

    def test_sat_verdict_does_not_leak_activations_into_core(self):
        # regression: property P1's activation literal got a SAT verdict;
        # property P2's UNSAT core must not mention it
        s = SatSolver()
        v, w = s.new_var(), s.new_var()
        act1 = s.new_activation()
        s.add_clause([v], activation=act1)
        assert s.solve(assumptions=[act1]) == SAT  # P1 reachable
        act2 = s.new_activation()
        s.add_clause([-w], activation=act2)
        s.add_clause([w])
        assert s.solve(assumptions=[act2]) == UNSAT  # P2 refuted
        assert s.last_core is not None
        vars_in_core = {abs(l) for l in s.last_core}
        assert act1 not in vars_in_core
        assert vars_in_core == {act2}

    def test_root_unsat_has_empty_core(self):
        s = SatSolver()
        v = s.new_var()
        a = s.new_var()
        s.add_clause([v])
        s.add_clause([-v])
        assert s.solve(assumptions=[a]) == UNSAT
        assert s.last_core == []

    def test_contradictory_assumptions_core(self):
        s = SatSolver()
        a = s.new_var()
        assert s.solve(assumptions=[a, -a]) == UNSAT
        assert {abs(l) for l in s.last_core} == {a}

    def test_retract_is_idempotent(self):
        s = SatSolver()
        v = s.new_var()
        act = s.new_activation()
        s.add_clause([-v], activation=act)
        s.add_clause([v])
        assert s.retract(act)
        assert s.retract(act)
        assert s.solve() == SAT

    def test_learned_clauses_survive_retraction(self):
        # the whole point of activation literals: retraction must not
        # reset the solver (learned clauses and verdicts stay usable)
        s = SatSolver()
        holes = 5
        pigeons = holes + 1
        p = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for i in range(pigeons):
            s.add_clause(p[i])
        act = s.new_activation()
        for h in range(holes):
            for i in range(pigeons):
                for j in range(i + 1, pigeons):
                    s.add_clause([-p[i][h], -p[j][h]], activation=act)
        assert s.solve(assumptions=[act]) == UNSAT
        learned_before = s.learned_total
        assert learned_before > 0
        s.retract(act)
        assert s.solve() == SAT
        assert s.learned_total >= learned_before


class TestBudget:
    def test_budget_yields_unknown(self):
        # hard PHP instance with a tiny conflict budget
        s = SatSolver()
        holes = 7
        pigeons = holes + 1
        p = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
        for i in range(pigeons):
            s.add_clause(p[i])
        for h in range(holes):
            for i in range(pigeons):
                for j in range(i + 1, pigeons):
                    s.add_clause([-p[i][h], -p[j][h]])
        assert s.solve(max_conflicts=5) == UNKNOWN


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100000),
    num_vars=st.integers(3, 8),
    num_clauses=st.integers(3, 30),
)
def test_random_3sat_matches_brute_force(seed, num_vars, num_clauses):
    import random

    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        size = rng.randrange(1, 4)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    s = SatSolver()
    for _ in range(num_vars):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    verdict = s.solve()
    expected = brute_force(num_vars, clauses)
    assert verdict == (SAT if expected else UNSAT)
    if verdict == SAT:
        for c in clauses:
            assert any(s.model_value(abs(l)) == (l > 0) for l in c)


class TestWatchInvariant:
    """The two-watched-literal layout must hold through every build path.

    ``check_watch_invariant()`` cross-checks the flat array watch lists
    (watched literal in ``clause[:2]``, no binary clauses there) and the
    dedicated binary lists (clause really binary, blocker is the other
    literal) against the clause database.  The fused gate emitters write
    watch entries directly instead of going through ``add_clause``, so
    each emission path gets its own coverage here.
    """

    def test_fused_and_gate_emission(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        out = s.new_and_gate(a, b)
        assert s.check_watch_invariant()
        assert s.solve(assumptions=[out]) == SAT
        assert s.model_value(a) and s.model_value(b)
        assert s.check_watch_invariant()

    def test_fused_xor_gate_emission(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        out = s.new_xor_gate(a, b)
        assert s.check_watch_invariant()
        assert s.solve(assumptions=[out, a]) == SAT
        assert not s.model_value(b)
        assert s.check_watch_invariant()

    @staticmethod
    def _forces(s, out, a, b, op):
        """Every assignment of ``a`` and ``b`` the formula allows forces
        ``out`` to ``op(a, b)``; returns how many it allows."""
        allowed = 0
        for va, vb in itertools.product((False, True), repeat=2):
            assume = [a if va else -a, b if vb else -b]
            if s.solve(assumptions=assume) == UNSAT:
                continue
            allowed += 1
            want = op(va, vb)
            assert s.model_value(out) == want, (va, vb)
            assert s.solve(assumptions=assume + [-out if want else out]) == UNSAT
        return allowed

    @staticmethod
    def _open_trail():
        # a SAT answer leaves its decisions on the trail until the next
        # clause is added
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve() == SAT and s._trail_lim
        return s, a, b, 3  # (a or b) rules out one assignment

    @staticmethod
    def _root_assigned():
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a])
        return s, a, b, 2

    @staticmethod
    def _complementary():
        s = SatSolver()
        a = s.new_var()
        return s, a, -a, 2

    @pytest.mark.parametrize(
        "case", ["_open_trail", "_root_assigned", "_complementary"])
    @pytest.mark.parametrize("kind", ["and", "xor"])
    def test_fallback_gate_emission(self, case, kind):
        """Inputs the fused fast path may not take -- an open decision
        level, a root-assigned input, ``a`` with ``-a`` -- go through
        ``add_clause`` and still define the gate."""
        s, a, b, allowed = getattr(self, case)()
        if kind == "and":
            out, op = s.new_and_gate(a, b), (lambda x, y: x and y)
        else:
            out, op = s.new_xor_gate(a, b), (lambda x, y: x != y)
        assert out == s.num_vars
        assert s.check_watch_invariant()
        assert self._forces(s, out, a, b, op) == allowed
        assert s.check_watch_invariant()

    def test_binary_and_long_clause_mix(self):
        s = SatSolver()
        for _ in range(6):
            s.new_var()
        s.add_clause([1, 2])          # binary list path
        s.add_clause([-1, 3, 4])      # main watch list path
        s.add_clause([2, -3, 5, -6])
        s.add_clause([-2, -5])
        assert s.check_watch_invariant()
        assert s.solve() == SAT
        assert s.check_watch_invariant()

    def test_invariant_survives_search_and_learning(self):
        # pigeonhole 4-into-3 forces real conflict analysis: learned
        # clauses (binary and longer) must land in the right lists
        s = SatSolver()
        p = [[s.new_var() for _ in range(3)] for _ in range(4)]
        for row in p:
            s.add_clause(row)
        for h in range(3):
            for i in range(4):
                for j in range(i + 1, 4):
                    s.add_clause([-p[i][h], -p[j][h]])
        assert s.solve() == UNSAT
        assert s.check_watch_invariant()

    def test_asymmetric_corruption_is_detected(self):
        # the invariant checker itself must notice a one-sided watch:
        # drop one entry from a main watch list and expect False
        s = SatSolver()
        for _ in range(4):
            s.new_var()
        s.add_clause([1, 2, 3])
        s.add_clause([-2, 3, 4])
        assert s.check_watch_invariant()
        for lst in s._watches:
            if lst:
                del lst[-2:]  # entries are (clause, blocker) pairs
                break
        assert not s.check_watch_invariant()
