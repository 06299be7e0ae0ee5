"""Verdict parity: incremental + COI proving vs the legacy rebuild path.

The incremental solve path (assumption-based property swapping on one
growing proof context per design, cone-of-influence slicing before
bit-blasting) is an optimization, never a semantics change.  This suite
is the gate that makes that claim testable, across every design in
``tests/fuzz_corpus/``, the 28 designs of the e2e fuzz-oracle corpus
(the fuzz oracle's k-induction leg proves through the pool, so this
suite is what checks the legacy path) plus the xlen=4 core:

* **Leg A -- incremental, no COI** (`InductionPool(coi=False)` vs
  :func:`prove_unreachable_kinduction` without a pool): the formulas are
  logically identical, so verdicts AND detail strings must match
  exactly.  The single tolerated divergence is a legacy UNDETERMINED
  whose detail names a conflict-budget exhaustion -- a resource fact,
  not a design fact -- which learned-clause reuse may legitimately
  resolve to a definite verdict ("UNDETERMINED may only shrink").

* **Leg B -- incremental + COI**: slicing drops out-of-cone registers,
  so the step case's simple-path constraint quantifies over a smaller
  state vector -- a *stronger* constraint.  Any model of the sliced step
  formula extends to a model of the full one (the dropped logic is
  unconstrained), so full-step-UNSAT implies sliced-step-UNSAT and never
  the reverse: COI may strengthen a step-SAT UNDETERMINED into
  UNREACHABLE, and that is the only extra divergence Leg B admits.
  Slicing is therefore part of the verdict contract and stays on in
  every production path; ``InductionPool(coi=False)`` survives only as
  Leg A's exact-parity reference.

REACHABLE witnesses are not compared bit-for-bit -- model choice is
solver-state dependent and both paths may pick different satisfying
assignments -- but every witness must actually exhibit the bad event,
which is what a witness means.

The mutation tests at the bottom close the loop: they break the
clause-retraction polarity and the COI sequential-frontier computation
through test-only hooks and assert this suite's own parity rules catch
each mutant.
"""

import glob
import os

import pytest

from repro.core import Rtl2MuPath, Rtl2MuPathConfig
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
from repro.engine import EngineConfig, JobScheduler
from repro.fuzz.campaign import CampaignConfig, load_reproducer
from repro.fuzz.gen import build_design, sample_spec
from repro.fuzz.metamorphic import canonical_mupaths
from repro.mc import (
    REACHABLE,
    UNDETERMINED,
    UNREACHABLE,
    BmcContext,
    prove_unreachable_kinduction,
)
from repro.mc.incremental import InductionPool
from repro.props import Eventually, Query, sig
from repro.rtl import Module, elaborate
from repro.solver.sat import SatSolver

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
# the e2e fuzz-oracle workload's corpus: the first 28 designs of the
# seed-7 campaign (the reproducers above elaborate to no cell at all)
E2E_FUZZ_SEEDS = [7 * 1000003 + i for i in range(28)]

#: legacy UNDETERMINED details that name a resource limit, not a design
#: fact; only these may "shrink" to a definite verdict incrementally
BUDGET_DETAILS = (
    "base case budget exhausted",
    "induction step budget exhausted",
)

STEP_SAT_DETAIL = "induction step SAT (k too small or property not inductive)"


def _corpus_designs():
    profile = CampaignConfig().profile
    built = [(os.path.basename(path), build_design(load_reproducer(path)))
             for path in CORPUS]
    assert built, "fuzz corpus missing or empty"
    for seed in E2E_FUZZ_SEEDS:
        design = build_design(sample_spec(seed, profile))
        built.append((design.spec.name, design))
    # induction over a combinational design is vacuous
    return [(name, design) for name, design in built if design.netlist.registers]


_DESIGNS = _corpus_designs()


def _check_witness(result, probe):
    """A REACHABLE verdict's witness must exhibit the bad event."""
    if result.outcome != REACHABLE or probe is None:
        return
    assert result.witness, "REACHABLE without a witness"
    assert any(frame.get(probe) for frame in result.witness), (
        "witness never raises %r" % probe
    )


def assert_exact_parity(name, legacy, incr, probe=None):
    """Leg A rule: see module docstring."""
    _check_witness(legacy, probe)
    _check_witness(incr, probe)
    if legacy.outcome == UNDETERMINED and legacy.detail in BUDGET_DETAILS:
        # may shrink to a definite verdict, never to a different limbo
        assert incr.outcome in (REACHABLE, UNREACHABLE, UNDETERMINED), name
        return
    assert incr.outcome == legacy.outcome, (
        "%s: verdict drifted %s -> %s (%s -> %s)"
        % (name, legacy.outcome, incr.outcome, legacy.detail, incr.detail)
    )
    assert incr.detail == legacy.detail, (
        "%s: detail drifted %r -> %r" % (name, legacy.detail, incr.detail)
    )


def assert_coi_parity(name, legacy, incr, probe=None):
    """Leg B rule: Leg A plus the sound step-SAT -> UNREACHABLE upgrade."""
    _check_witness(legacy, probe)
    _check_witness(incr, probe)
    if legacy.outcome == UNDETERMINED and legacy.detail in BUDGET_DETAILS:
        assert incr.outcome in (REACHABLE, UNREACHABLE, UNDETERMINED), name
        return
    if legacy.outcome == UNDETERMINED and legacy.detail == STEP_SAT_DETAIL:
        assert incr.outcome in (UNDETERMINED, UNREACHABLE), (
            "%s: step-SAT may only stay UNDETERMINED or strengthen to "
            "UNREACHABLE, got %s (%s)" % (name, incr.outcome, incr.detail)
        )
        return
    assert incr.outcome == legacy.outcome, (
        "%s: verdict drifted %s -> %s (%s -> %s)"
        % (name, legacy.outcome, incr.outcome, legacy.detail, incr.detail)
    )


# ------------------------------------------------------------- fuzz corpus
class TestCorpusParity:
    """Every corpus design, every probe, both legs, two depths."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name,design", _DESIGNS, ids=[n for n, _ in _DESIGNS])
    def test_no_coi_parity(self, name, design, k):
        pool = InductionPool(coi=False)
        for probe in design.probe_names:
            legacy = prove_unreachable_kinduction(design.netlist, sig(probe), k=k)
            incr = prove_unreachable_kinduction(
                design.netlist, sig(probe), k=k, pool=pool
            )
            assert_exact_parity("%s/%s" % (name, probe), legacy, incr, probe)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name,design", _DESIGNS, ids=[n for n, _ in _DESIGNS])
    def test_coi_parity(self, name, design, k):
        pool = InductionPool(coi=True)
        for probe in design.probe_names:
            legacy = prove_unreachable_kinduction(design.netlist, sig(probe), k=k)
            incr = prove_unreachable_kinduction(
                design.netlist, sig(probe), k=k, pool=pool
            )
            assert_coi_parity("%s/%s" % (name, probe), legacy, incr, probe)

    @pytest.mark.parametrize("name,design", _DESIGNS, ids=[n for n, _ in _DESIGNS])
    def test_extend_k_matches_direct_build(self, name, design):
        """A context grown 2 -> 3 answers exactly like one built at 3."""
        grown = InductionPool(coi=True)
        direct = InductionPool(coi=True)
        for probe in design.probe_names:
            prove_unreachable_kinduction(
                design.netlist, sig(probe), k=2, pool=grown
            )
        for probe in design.probe_names:
            at3 = prove_unreachable_kinduction(
                design.netlist, sig(probe), k=3, pool=grown
            )
            fresh = prove_unreachable_kinduction(
                design.netlist, sig(probe), k=3, pool=direct
            )
            assert at3.outcome == fresh.outcome, "%s/%s" % (name, probe)
            assert at3.detail == fresh.detail, "%s/%s" % (name, probe)


# ------------------------------------------------------------- xlen=4 core
@pytest.fixture(scope="module")
def core():
    return build_core()


def _core_properties(design):
    """Every PL the metadata declares: named and candidate alike."""
    props = [
        ("pl_%s" % name, pl.occupied())
        for name, pl in sorted(design.metadata.pls.items())
    ]
    props += [
        ("cand_%s" % name, pl.occupied())
        for name, pl in sorted(design.metadata.candidate_pls.items())
    ]
    return props


class TestCoreParity:
    @pytest.mark.parametrize("k", [1, 2])
    def test_no_coi_parity(self, core, k):
        pool = InductionPool(coi=False)
        for name, bad in _core_properties(core):
            legacy = prove_unreachable_kinduction(core.netlist, bad, k=k)
            incr = prove_unreachable_kinduction(core.netlist, bad, k=k, pool=pool)
            assert_exact_parity(name, legacy, incr)

    @pytest.mark.parametrize("k", [1, 2])
    def test_coi_parity(self, core, k):
        pool = InductionPool(coi=True)
        for name, bad in _core_properties(core):
            legacy = prove_unreachable_kinduction(core.netlist, bad, k=k)
            incr = prove_unreachable_kinduction(core.netlist, bad, k=k, pool=pool)
            assert_coi_parity(name, legacy, incr)


# ------------------------------------------ full pipeline on the core
SYNTH_FAMILY = ContextFamilyConfig(
    horizon=30, neighbors=("DIV",), iuv_values=(0, 1), neighbor_values=(0, 1)
)


class TestCorePipelineParity:
    IUVS = ["ADD", "MUL"]

    def test_duv_pruning_and_synthesis_identical(self, core):
        """The full paper pipeline (DUV PL pruning + synthesis) under the
        incremental + COI defaults is byte-identical to the legacy path."""
        legacy_tool = Rtl2MuPath(
            core,
            CoreContextProvider(xlen=core.config.xlen, config=SYNTH_FAMILY),
            config=Rtl2MuPathConfig(incremental=False),
        )
        incr_tool = Rtl2MuPath(
            core,
            CoreContextProvider(xlen=core.config.xlen, config=SYNTH_FAMILY),
            config=Rtl2MuPathConfig(incremental=True),
        )
        assert legacy_tool.duv_pl_reachability(self.IUVS) == (
            incr_tool.duv_pl_reachability(self.IUVS)
        )
        legacy = legacy_tool.synthesize_all(self.IUVS)
        incremental = incr_tool.synthesize_all(self.IUVS)
        assert canonical_mupaths(legacy) == canonical_mupaths(incremental)

    def test_serial_vs_parallel_identical(self, core):
        """Incremental verdicts survive the engine's same-design batching:
        a --jobs pool run equals the serial in-process reference."""
        serial_tool = Rtl2MuPath(
            core, CoreContextProvider(xlen=core.config.xlen, config=SYNTH_FAMILY)
        )
        parallel_tool = Rtl2MuPath(
            core, CoreContextProvider(xlen=core.config.xlen, config=SYNTH_FAMILY)
        )
        serial = serial_tool.synthesize_all(
            self.IUVS, engine=JobScheduler(EngineConfig(jobs=1))
        )
        parallel = parallel_tool.synthesize_all(
            self.IUVS, engine=JobScheduler(EngineConfig(jobs=2))
        )
        assert canonical_mupaths(serial) == canonical_mupaths(parallel)


# ------------------------------------------------------------ BMC extend_to
def _bmc_design():
    """3-bit counter wrapping at 5, with named threshold probes."""
    m = Module("bmcpar")
    en = m.input("en", 1)
    ctr = m.reg("ctr", 3, reset=0)
    from repro.rtl import mux

    ctr.next = mux(ctr.q.eq(4), m.const(0, 3), ctr.q + mux(en, m.const(1, 3), m.const(0, 3)))
    m.name_signal("at3", ctr.q.eq(3))
    m.name_signal("at6", ctr.q.eq(6))
    return elaborate(m)


class TestBmcExtendParity:
    QUERIES = [
        Query("hit3", Eventually(sig("at3"))),
        Query("hit6", Eventually(sig("at6"))),
    ]

    def test_extended_context_matches_fresh(self):
        netlist = _bmc_design()
        fresh = BmcContext(netlist, horizon=6, complete_horizon=True)
        grown = BmcContext(netlist, horizon=1)
        # several properties checked *before* extension: the learned
        # clauses and assumptions from depth 1 must not taint depth 6
        for query in self.QUERIES:
            grown.check(query)
        grown.extend_to(6, complete_horizon=True)
        for query in self.QUERIES:
            a = fresh.check(query)
            b = grown.check(query)
            assert a.outcome == b.outcome, query.name
            assert a.detail == b.detail, query.name


# ------------------------------------------------------------ mutation tests
def _retract_sensitive_design():
    """reg x holds its value; y follows x one cycle later.

    ``bad_x`` closes at k=1 (x resets to 0 and holds), so proving it
    installs and retracts a group of guarded "good" clauses.  ``bad_y``
    is genuinely not 1-inductive (free x=1, y=0 start reaches y=1), so
    its correct Leg A verdict is the *definite* step-SAT UNDETERMINED --
    any pollution from x's retired activation group flips it.
    """
    m = Module("retractmut")
    x = m.reg("x", 1, reset=0)
    y = m.reg("y", 1, reset=0)
    x.next = x.q
    y.next = x.q
    m.name_signal("bad_x", x.q)
    m.name_signal("bad_y", y.q)
    return elaborate(m)


def _two_counter_design():
    """Two independent counters: slicing to one is a real reduction."""
    m = Module("coimut")
    a = m.reg("a", 3, reset=0)
    b = m.reg("b", 3, reset=0)
    a.next = a.q + m.const(1, 3)
    b.next = b.q + m.const(3, 3)
    m.name_signal("a_top", a.q.eq(7))
    m.name_signal("b_top", b.q.eq(7))
    return elaborate(m)


class TestMutationCoverage:
    """Break the machinery through its test hooks; assert the parity
    rules above catch each mutant (i.e. the gate is not vacuous)."""

    def _leg_a(self, netlist, probes, k=1):
        pool = InductionPool(coi=False)
        for probe in probes:
            legacy = prove_unreachable_kinduction(netlist, sig(probe), k=k)
            incr = prove_unreachable_kinduction(
                netlist, sig(probe), k=k, pool=pool
            )
            assert_exact_parity(probe, legacy, incr, probe)

    def test_wrong_polarity_retraction_caught(self, monkeypatch):
        """retract() asserting ``[act]`` instead of ``[-act]`` force-keeps
        every retired property group active; a later property on the
        shared step solver is then over-constrained into a false
        UNREACHABLE, which Leg A's exact-parity rule must flag."""
        netlist = _retract_sensitive_design()
        probes = ["bad_x", "bad_y"]  # bad_x first: its group gets retired
        self._leg_a(netlist, probes)  # sanity: unmutated passes

        def wrong_polarity(self, activation):
            if activation in self._retired_activations:
                return
            self._retired_activations.add(activation)
            self.add_clause([activation])  # MUTANT: keeps the group alive

        monkeypatch.setattr(SatSolver, "retract", wrong_polarity)
        with pytest.raises(AssertionError):
            self._leg_a(netlist, probes)

    def test_broken_register_frontier_caught(self, monkeypatch):
        """A sequential-closure mutant (register q pins stop enqueueing
        their next-state cone) must die loudly in the COI leg, not
        silently free registers."""
        from repro.rtl import coi as coi_module

        netlist = _two_counter_design()

        def run_leg_b():
            pool = InductionPool(coi=True)
            for probe in ["a_top", "b_top"]:
                legacy = prove_unreachable_kinduction(netlist, sig(probe), k=2)
                incr = prove_unreachable_kinduction(
                    netlist, sig(probe), k=2, pool=pool
                )
                assert_coi_parity(probe, legacy, incr, probe)

        run_leg_b()  # sanity: unmutated passes

        monkeypatch.setattr(
            coi_module, "_register_frontier", lambda next_node: ()
        )
        with pytest.raises(ValueError, match="COI closure broken"):
            run_leg_b()
