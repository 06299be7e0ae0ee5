"""Model-checking engine tests: enumerative, BMC, k-induction agreement."""

import itertools

import pytest

from repro.rtl import Module, elaborate, mux
from repro.mc import (
    REACHABLE,
    UNDETERMINED,
    UNREACHABLE,
    BmcContext,
    Context,
    EnumerativeEngine,
    PropertyStats,
    SymbolicContextSpec,
    TraceDB,
    prove_unreachable_kinduction,
)
from repro.props import Eventually, Query, Sequence, VisitedCover, eq, sig


def fsm_design(quiesce_signal=False):
    """0 -> 1 (on go) -> 2 -> 0; state 3 unreachable.  ``quiesce_signal``
    also names state 0 ``pipe_quiesce``."""
    m = Module("fsm")
    go = m.input("go", 1)
    st = m.reg("st", 2, reset=0)
    st.next = mux(
        st.q.eq(0) & go,
        m.const(1, 2),
        mux(st.q.eq(1), m.const(2, 2), mux(st.q.eq(2), m.const(0, 2), st.q)),
    )
    for i in range(4):
        m.name_signal("s%d" % i, st.q.eq(i))
    m.name_signal("state", st.q)
    if quiesce_signal:
        m.name_signal("pipe_quiesce", st.q.eq(0))
    return elaborate(m)


@pytest.fixture(scope="module")
def fsm():
    return fsm_design()


@pytest.fixture(scope="module")
def fsm_db(fsm):
    contexts = [
        Context.make({}, [{"go": b} for b in bits])
        for bits in itertools.product([0, 1], repeat=6)
    ]
    return TraceDB(fsm, contexts, complete=True)


class TestEnumerative:
    def test_reachable_with_witness(self, fsm_db):
        result = EnumerativeEngine(fsm_db).check(Query("r", Eventually(sig("s2"))))
        assert result.outcome == REACHABLE
        assert result.witness is not None
        assert any(obs["s2"] for obs in result.witness)

    def test_unreachable_when_complete(self, fsm_db):
        result = EnumerativeEngine(fsm_db).check(Query("u", Eventually(sig("s3"))))
        assert result.outcome == UNREACHABLE

    def test_incomplete_family_degrades(self, fsm):
        db = TraceDB(fsm, [Context.make({}, [{"go": 0}] * 4)], complete=False)
        result = EnumerativeEngine(db).check(Query("u", Eventually(sig("s1"))))
        assert result.outcome == UNDETERMINED

    def test_assumes_filter_traces(self, fsm_db):
        # under the assumption that go-driven state 1 is never entered,
        # state 2 is unreachable
        query = Query("a", Eventually(sig("s2")), assumes=(~sig("s1"),))
        result = EnumerativeEngine(fsm_db).check(query)
        assert result.outcome == UNREACHABLE

    def test_stats_recorded(self, fsm_db):
        stats = PropertyStats(label="test")
        engine = EnumerativeEngine(fsm_db, stats=stats)
        engine.check(Query("r", Eventually(sig("s2"))))
        engine.check(Query("u", Eventually(sig("s3"))))
        assert stats.count == 2
        assert stats.outcome_histogram == {"reachable": 1, "unreachable": 1}

    def test_sequence_query(self, fsm_db):
        assert EnumerativeEngine(fsm_db).check(
            Query("s", Sequence(sig("s1"), sig("s2")))
        ).outcome == REACHABLE
        assert EnumerativeEngine(fsm_db).check(
            Query("s", Sequence(sig("s2"), sig("s1")))
        ).outcome == UNREACHABLE

    def test_reactive_context(self):
        # pulse go, wait until the FSM is back in state 0 (its release
        # signal here), then pulse go again: the wait step holds for as
        # many cycles as the FSM takes
        fsm = fsm_design(quiesce_signal=True)
        context = Context.scripted(
            {}, [({"go": 1}, None), ({}, "pipe_quiesce"), ({"go": 1}, None)], horizon=6
        )
        db = TraceDB(fsm, [context], complete=False)
        assert [view.word("state", t) for view in db.views for t in range(6)] == [
            0, 1, 2, 0, 0, 1,
        ]
        result = EnumerativeEngine(db).check(Query("r", Eventually(sig("s2"))))
        assert result.outcome == REACHABLE


class TestBmcAgreement:
    QUERIES = [
        ("reach_s1", Eventually(sig("s1"))),
        ("reach_s2", Eventually(sig("s2"))),
        ("reach_s3", Eventually(sig("s3"))),
        ("seq12", Sequence(sig("s1"), sig("s2"))),
        ("seq21", Sequence(sig("s2"), sig("s1"))),
        ("visited", VisitedCover([sig("s2")], [sig("s1")])),
        ("eqword", Eventually(eq("state", 2))),
    ]

    @pytest.fixture(scope="class")
    def bmc(self, fsm):
        return BmcContext(fsm, horizon=6, context=SymbolicContextSpec())

    @pytest.mark.parametrize("name,prop", QUERIES, ids=[q[0] for q in QUERIES])
    def test_matches_enumerative(self, name, prop, bmc, fsm_db):
        enum_result = EnumerativeEngine(fsm_db).check(Query(name, prop))
        bmc_result = bmc.check(Query(name, prop))
        if enum_result.outcome == REACHABLE:
            assert bmc_result.outcome == REACHABLE
        else:
            # BMC cannot prove unreachability without a completeness claim
            assert bmc_result.outcome == UNDETERMINED

    def test_witness_values(self, bmc):
        result = bmc.check(Query("w", Eventually(sig("s2"))))
        assert result.outcome == REACHABLE
        assert any(obs["s2"] for obs in result.witness)
        # the witness respects the transition structure: s1 precedes s2
        s1_at = next(t for t, obs in enumerate(result.witness) if obs["s1"])
        s2_at = next(t for t, obs in enumerate(result.witness) if obs["s2"])
        assert s1_at < s2_at

    def test_complete_horizon_gives_unreachable(self, fsm):
        bmc = BmcContext(
            fsm, horizon=6, context=SymbolicContextSpec(), complete_horizon=True
        )
        assert bmc.check(Query("u", Eventually(sig("s3")))).outcome == UNREACHABLE

    def test_assumes(self, fsm):
        bmc = BmcContext(fsm, horizon=6, context=SymbolicContextSpec())
        query = Query("a", Eventually(sig("s2")), assumes=(~sig("s1"),))
        assert bmc.check(query).outcome == UNDETERMINED

    def test_driven_inputs(self, fsm):
        # pin go low: s1 unreachable within any horizon
        spec = SymbolicContextSpec(drive=lambda builder, t: {"go": 0})
        bmc = BmcContext(fsm, horizon=6, context=spec, complete_horizon=True)
        assert bmc.check(Query("r", Eventually(sig("s1")))).outcome == UNREACHABLE

    def test_symbolic_initial_state(self, fsm):
        # with st symbolically initialized, state 3 is trivially coverable
        spec = SymbolicContextSpec(symbolic_registers=("st",))
        bmc = BmcContext(fsm, horizon=2, context=spec)
        assert bmc.check(Query("r", Eventually(sig("s3")))).outcome == REACHABLE


class TestKInduction:
    def test_proves_unreachable(self, fsm):
        result = prove_unreachable_kinduction(fsm, sig("s3"), k=3)
        assert result.outcome == UNREACHABLE

    def test_finds_base_witness(self, fsm):
        result = prove_unreachable_kinduction(fsm, sig("s2"), k=4)
        assert result.outcome == REACHABLE
        assert result.witness is not None

    def test_k_too_small_is_undetermined(self, fsm):
        # within 1 step of reset s2 is not reachable, but 1-induction cannot
        # close the proof either (s1 -> s2 in the arbitrary-state world)
        result = prove_unreachable_kinduction(fsm, sig("s2"), k=1)
        assert result.outcome == UNDETERMINED

    def test_result_interpretation_helper(self, fsm):
        result = prove_unreachable_kinduction(fsm, sig("s2"), k=1)
        assert result.interpret_undetermined(UNREACHABLE) == UNREACHABLE
        assert result.interpret_undetermined(REACHABLE) == REACHABLE
        proved = prove_unreachable_kinduction(fsm, sig("s3"), k=3)
        assert proved.interpret_undetermined(REACHABLE) == UNREACHABLE
