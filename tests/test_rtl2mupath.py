"""RTL2MuPATH pipeline tests (uses the session-scoped synthesis fixtures)."""

import pytest

from repro.mc import REACHABLE, TraceDB, EnumerativeEngine
from repro.props import Eventually, Query, Sequence, VisitedCover
from repro.core.mhb import UhbGraph
import repro.core.rtl2mupath as rtl2mupath_module
from repro.core.rtl2mupath import Rtl2MuPath


class TestAddSynthesis:
    def test_multiple_upaths_found(self, mupath_add):
        # RTL2uSPEC's single-execution-path assumption fails: ADD exhibits
        # several uPATHs (commit, squash-at-issue, squash-after-finish, ...)
        assert mupath_add.multi_path
        assert mupath_add.num_upaths >= 2

    def test_canonical_pl_set_present(self, mupath_add):
        full = frozenset({"IF", "ID", "issue", "scbIss", "aluU", "scbFin", "scbCmt"})
        assert full in {u.pl_set for u in mupath_add.upaths}

    def test_iuv_pls_exclude_load_unit(self, mupath_add):
        # the paper's Fig. 6 example: LSQ is a DUV PL but not an ADD PL
        assert "LSQ" not in mupath_add.iuv_pls
        assert "ldStall" not in mupath_add.iuv_pls
        assert "divU" not in mupath_add.iuv_pls

    def test_dominates_relation(self, mupath_add):
        # every ADD execution that reaches the ALU was fetched and decoded
        assert ("IF", "aluU") in mupath_add.dominates
        assert ("ID", "aluU") in mupath_add.dominates
        # commitment implies a finished scoreboard entry
        assert ("scbFin", "scbCmt") in mupath_add.dominates

    def test_pruning_beats_naive_power_set(self, mupath_add):
        assert mupath_add.candidate_sets_considered < mupath_add.naive_power_set_size

    def test_decision_sources(self, mupath_add):
        assert "scbIss" in mupath_add.decisions.sources

    def test_squash_destination_exists(self, mupath_add):
        dsts = set()
        for src in mupath_add.decisions.sources:
            dsts.update(mupath_add.decisions.destinations(src))
        assert frozenset() in dsts

    def test_hb_edges_follow_pipeline(self, mupath_add):
        full = [u for u in mupath_add.upaths if "scbCmt" in u.pl_set][0]
        assert ("IF", "ID") in full.hb_edges
        assert ("ID", "issue") in full.hb_edges
        assert ("scbFin", "scbCmt") in full.hb_edges
        assert ("scbCmt", "IF") not in full.hb_edges

    def test_concrete_paths_have_examples(self, mupath_add):
        assert all(
            u.example is not None for u in mupath_add.upaths if u.pl_set
        )

    def test_uhb_graph_renders(self, mupath_add):
        graph = UhbGraph(mupath_add.concrete_paths[0])
        assert graph.nodes and "latency" in graph.render_ascii()


class TestDivSynthesis:
    def test_run_length_family(self, mupath_divu):
        # divU residency is 1 + msb-index-derived: the fixture's operand set
        # {0,1,2,3,8,128,255} yields exactly {1,2,3,5,9} (the full-family
        # sweep 1..10 is exercised by the Fig. 1/artifact benches)
        lengths = mupath_divu.run_lengths["divU"]
        assert lengths == frozenset({1, 2, 3, 5, 9})
        assert lengths <= frozenset(range(1, 11))

    def test_many_concrete_paths(self, mupath_divu):
        assert len(mupath_divu.concrete_paths) >= 9

    def test_divu_revisit_is_consecutive(self, mupath_divu):
        for upath in mupath_divu.upaths:
            if "divU" in upath.pl_set:
                assert upath.revisit["divU"] in ("consecutive", "none")

    def test_div_decision_at_own_unit(self, mupath_divu):
        assert "divU" in mupath_divu.decisions.sources


class TestLwSynthesis:
    def test_stall_and_fast_paths(self, mupath_lw):
        sets = {u.pl_set for u in mupath_lw.upaths}
        assert any("ldStall" in s for s in sets)
        assert any("ldFin" in s and "ldStall" not in s for s in sets)

    def test_issue_decision_matches_paper(self, mupath_lw):
        # Fig. 4b: issue -> {ldFin, ...} or {LSQ, ldStall, ...}
        dsts = mupath_lw.decisions.destinations("issue")
        assert any("ldFin" in d for d in dsts)
        assert any("LSQ" in d and "ldStall" in d for d in dsts)

    def test_lsq_and_ldstall_joint_occupancy(self, mupath_lw):
        for upath in mupath_lw.upaths:
            if "LSQ" in upath.pl_set:
                assert "ldStall" in upath.pl_set


class TestDuvPlReachability:
    @pytest.fixture(scope="class")
    def duv_tool(self, core_design, core_provider):
        # a fresh tool: caching DUV-level reachability on the shared session
        # tool would restrict the other fixtures' IUV PL sets
        return Rtl2MuPath(core_design, core_provider)

    def test_valid_pls_reachable_and_candidates_pruned(self, duv_tool):
        reachable = duv_tool.duv_pl_reachability(["MUL", "DIVU", "LW", "SW", "BEQ"])
        metadata = duv_tool.metadata
        for name in metadata.pls:
            assert name in reachable, name
        for name in metadata.candidate_pls:
            assert name not in reachable, name

    def test_induction_stats_recorded(self, duv_tool):
        duv_tool.duv_pl_reachability(["MUL"])  # cached after the first call
        engines = {r.engine for r in duv_tool.stats.results}
        assert "k-induction" in engines


class TestIndexedAnswersMatchQueries:
    """Cross-check: the visit-profile index answers == direct Query evaluation."""

    @pytest.fixture(scope="class")
    def db_and_pc(self, core_design, core_provider):
        group = core_provider.mupath_groups("LW")[0]
        db = TraceDB(core_design.netlist, group.contexts[:200], complete=False)
        return db, group.iuv_pc

    def test_eventually_queries_agree(self, core_design, db_and_pc, mupath_lw):
        db, pc = db_and_pc
        engine = EnumerativeEngine(db)
        metadata = core_design.metadata
        for pl_name in ("IF", "issue", "ldFin", "divU", "mulU"):
            expr = metadata.pl(pl_name).visited_by(pc)
            direct = engine.check(Query("x", Eventually(expr)))
            indexed = pl_name in mupath_lw.iuv_pls
            if direct.outcome == REACHABLE:
                assert indexed, pl_name

    def test_sequence_queries_agree(self, core_design, db_and_pc, mupath_lw):
        db, pc = db_and_pc
        engine = EnumerativeEngine(db)
        metadata = core_design.metadata
        edges_direct = set()
        for pl0, pl1 in (("IF", "ID"), ("ID", "issue"), ("issue", "ldFin")):
            prop = Sequence(
                metadata.pl(pl0).visited_by(pc), metadata.pl(pl1).visited_by(pc)
            )
            if engine.check(Query("e", prop)).outcome == REACHABLE:
                edges_direct.add((pl0, pl1))
        all_edges = set()
        for upath in mupath_lw.upaths:
            all_edges |= upath.hb_edges
        assert edges_direct <= all_edges

    def test_dominates_queries_agree(self, core_design, db_and_pc, mupath_lw):
        db, pc = db_and_pc
        engine = EnumerativeEngine(db)
        metadata = core_design.metadata
        gate = metadata.iuv_gone(pc)
        # "ID dominates issue": cover(!ID_visited & issue_visited) unreachable
        prop = VisitedCover(
            [metadata.pl("issue").visited_by(pc)],
            [metadata.pl("ID").visited_by(pc)],
            gate=gate,
        )
        result = engine.check(Query("dom", prop))
        assert result.outcome != REACHABLE
        assert ("ID", "issue") in mupath_lw.dominates


class TestConfig:
    def test_truncated_family_degrades_verdicts(self, core_design):
        from repro.designs import ContextFamilyConfig, CoreContextProvider

        provider = CoreContextProvider(
            xlen=8,
            config=ContextFamilyConfig(
                horizon=40, neighbors=("DIV",), max_contexts=8,
                iuv_values=(0, 1), neighbor_values=(0,),
            ),
        )
        tool = Rtl2MuPath(core_design, provider)
        result = tool.synthesize("ADD")
        assert result.truncated
        outcomes = {r.outcome for r in tool.stats.results}
        assert "undetermined" in outcomes

    def test_candidate_cap(self, core_design, core_provider, monkeypatch):
        monkeypatch.setattr(rtl2mupath_module, "MAX_CANDIDATE_SETS", 4)
        tool = Rtl2MuPath(core_design, core_provider)
        result = tool.synthesize("ADD")
        assert result.candidate_sets_considered <= 4 + len(result.upaths)
