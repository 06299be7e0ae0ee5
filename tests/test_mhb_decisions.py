"""uHB graph and decision-extraction tests (SS III-B, SS IV-B)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.decisions import Decision, extract_decisions
from repro.core.mhb import CycleAccuratePath, UhbGraph, extract_path
from repro.core.pl import PerformingLocation, PlSlot
from repro.props import ConcreteTraceView


def path(*visit_sets):
    return CycleAccuratePath.from_cycles("X", [frozenset(s) for s in visit_sets])


class TestCycleAccuratePath:
    def test_trims_empty_edges(self):
        p = path((), ("IF",), ("ID",), ())
        assert p.latency == 2
        assert p.visits[0] == frozenset({"IF"})

    def test_latency(self):
        assert path(("IF",), ("ID",), ("EX",)).latency == 3

    def test_pl_set(self):
        p = path(("IF",), ("ID", "scb"), ("EX", "scb"))
        assert p.pl_set == {"IF", "ID", "EX", "scb"}

    def test_run_lengths_single(self):
        assert path(("a",), ("a",), ("a",)).run_lengths("a") == [3]

    def test_run_lengths_split(self):
        p = path(("a",), (), ("a",), ("a",))
        assert p.run_lengths("a") == [1, 2]

    def test_revisit_kinds(self):
        assert path(("a",)).revisit_kind("a") == "none"
        assert path(("a",), ("a",)).revisit_kind("a") == "consecutive"
        assert path(("a",), (), ("a",)).revisit_kind("a") == "nonconsecutive"
        assert path(("a",), ("a",), (), ("a",)).revisit_kind("a") == "both"

    def test_next_sets(self):
        p = path(("a",), ("b", "c"), ("a",))
        assert p.next_sets("a") == [frozenset({"b", "c"}), frozenset()]

    @given(st.lists(st.sets(st.sampled_from("abcd")), min_size=1, max_size=8))
    def test_run_lengths_sum_equals_visit_count(self, sets):
        p = CycleAccuratePath.from_cycles("X", [frozenset(s) for s in sets])
        for pl in p.pl_set:
            count = sum(1 for visit in p.visits if pl in visit)
            assert sum(p.run_lengths(pl)) == count


class TestUhbGraph:
    def test_nodes_numbered_per_visit(self):
        g = UhbGraph(path(("IF",), ("ID",), ("ID",)))
        labels = [(n.pl, n.visit, n.cycle) for n in g.nodes]
        assert ("ID", 1, 1) in labels and ("ID", 2, 2) in labels

    def test_edges_are_one_cycle(self):
        g = UhbGraph(path(("IF",), ("ID", "scb")))
        pairs = {(a.pl, b.pl) for a, b in g.edges}
        assert pairs == {("IF", "ID"), ("IF", "scb")}

    def test_summarized_rows(self):
        g = UhbGraph(path(("ID",), ("ID",), ("EX",)))
        rows = g.summarized_rows()
        # ID has one run of length 2 (the paper's Row(1)/Row(l) with l=2)
        assert ("ID", 0, 2, 1) in rows
        assert ("EX", 2, 1, 1) in rows

    def test_summarized_rows_nonconsecutive(self):
        g = UhbGraph(path(("a",), ("b",), ("a",)))
        rows = [r for r in g.summarized_rows() if r[0] == "a"]
        assert len(rows) == 2  # two separate runs -> two row instances

    def test_ascii_render(self):
        g = UhbGraph(path(("IF",), ("ID",)))
        text = g.render_ascii(title="demo")
        assert "demo" in text and "IF" in text and "latency: 2" in text

    def test_dot_render(self):
        g = UhbGraph(path(("IF",), ("ID",)))
        dot = g.render_dot()
        assert dot.startswith("digraph") and "->" in dot


class TestExtractPath:
    PLS = {
        "A": PerformingLocation("A", (PlSlot("a_occ", "a_pc"),)),
        "B": PerformingLocation(
            "B", (PlSlot("b_occ0", "b_pc0"), PlSlot("b_occ1", "b_pc1"))
        ),
    }

    def test_dict_rows(self):
        cycles = [
            {"a_occ": 1, "a_pc": 4, "b_occ0": 0, "b_pc0": 0, "b_occ1": 0, "b_pc1": 0},
            {"a_occ": 0, "a_pc": 4, "b_occ0": 1, "b_pc0": 4, "b_occ1": 0, "b_pc1": 0},
            {"a_occ": 1, "a_pc": 8, "b_occ0": 0, "b_pc0": 0, "b_occ1": 1, "b_pc1": 4},
        ]
        p = extract_path(ConcreteTraceView(cycles), self.PLS, iuv_pc=4)
        assert p.visits == (frozenset({"A"}), frozenset({"B"}), frozenset({"B"}))
        # the same rows as tuples over their names read the same path
        rows = [tuple(cycle.values()) for cycle in cycles]
        assert extract_path(ConcreteTraceView(rows, names=list(cycles[0])), self.PLS, iuv_pc=4) == p

    def test_other_pc_ignored(self):
        cycles = [{"a_occ": 1, "a_pc": 8, "b_occ0": 0, "b_pc0": 0, "b_occ1": 0, "b_pc1": 0}]
        p = extract_path(ConcreteTraceView(cycles), self.PLS, iuv_pc=4)
        assert p.latency == 0


class TestDecisions:
    def test_single_destination_no_decision(self):
        paths = [path(("a",), ("b",)), path(("a",), ("b",))]
        ds = extract_decisions("X", paths)
        assert ds.sources == []

    def test_two_destinations_make_decision(self):
        paths = [path(("a",), ("b",)), path(("a",), ("c",))]
        ds = extract_decisions("X", paths)
        assert ds.sources == ["a"]
        dsts = ds.destinations("a")
        assert frozenset({"b"}) in dsts and frozenset({"c"}) in dsts

    def test_exact_destination_sets(self):
        # {b} vs {b, c} are distinct destinations (exactness matters)
        paths = [path(("a",), ("b",)), path(("a",), ("b", "c"))]
        ds = extract_decisions("X", paths)
        assert len(ds.destinations("a")) == 2

    def test_squash_destination(self):
        paths = [path(("a",), ("b",)), path(("a",))]
        ds = extract_decisions("X", paths)
        assert frozenset() in ds.destinations("a")

    def test_within_path_variability(self):
        # the Fig. 1 pattern: scbIss -> {scbIss, mulU} then scbIss -> {scbFin}
        p = path(("scbIss", "mulU"), ("scbIss",), ("scbFin",))
        ds = extract_decisions("MUL", [p])
        assert "scbIss" in ds.sources

    def test_decision_repr(self):
        d = Decision("a", frozenset())
        assert "squash" in repr(d)

    def test_paper_example_lw(self):
        """SS IV-B: d_LD = {(issue, {ldFin}), (issue, {LSQ, ldStall})}."""
        fast = path(("issue",), ("ldFin",))
        slow = path(("issue",), ("LSQ", "ldStall"))
        ds = extract_decisions("LD", [fast, slow])
        assert ds.sources == ["issue"]
        assert set(ds.destinations("issue")) == {
            frozenset({"ldFin"}),
            frozenset({"LSQ", "ldStall"}),
        }
