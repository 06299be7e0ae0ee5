"""Cycle-accurate microarchitectural happens-before (uHB) graphs.

The paper's first technical advance (SS III-B) extends the uHB formalism
with cycle-accurate timing: a node is an instruction updating a set of
state elements *in a specific cycle* (equivalently, visiting a PL in that
cycle), and every edge is a one-cycle happens-before relationship.  A pair
of row labels Row(1)/Row(l) summarizes l consecutive visits.

This module provides:

* :class:`CycleAccuratePath` -- the concrete per-cycle visit schedule of
  one dynamic instruction (the paper's concrete uPATH);
* :class:`UhbGraph` -- the node/edge view of a path, with Row(1)/Row(l)
  run summarization, latency queries, and ASCII / DOT rendering matching
  the figures' conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

__all__ = ["CycleAccuratePath", "UhbNode", "UhbGraph", "extract_path"]


@dataclass(frozen=True)
class CycleAccuratePath:
    """Per-cycle PL visit sets of one instruction, first visit = cycle 0."""

    iuv: str
    visits: Tuple[FrozenSet[str], ...]

    @staticmethod
    def from_cycles(iuv: str, cycles: Sequence[FrozenSet[str]]) -> "CycleAccuratePath":
        # trim leading/trailing empty cycles; first visit becomes cycle 0
        start = 0
        while start < len(cycles) and not cycles[start]:
            start += 1
        end = len(cycles)
        while end > start and not cycles[end - 1]:
            end -= 1
        return CycleAccuratePath(
            iuv=iuv, visits=tuple(frozenset(c) for c in cycles[start:end])
        )

    @property
    def latency(self) -> int:
        """Cycles from first to last visit, inclusive."""
        return len(self.visits)

    @property
    def pl_set(self) -> FrozenSet[str]:
        out = set()
        for cycle in self.visits:
            out |= cycle
        return frozenset(out)

    def run_lengths(self, pl: str) -> List[int]:
        """Lengths of the consecutive-visit runs of ``pl`` along this path."""
        runs = []
        current = 0
        for cycle in self.visits:
            if pl in cycle:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        return runs

    def revisit_kind(self, pl: str) -> str:
        """"none" | "consecutive" | "nonconsecutive" | "both"."""
        runs = self.run_lengths(pl)
        consecutive = any(r > 1 for r in runs)
        nonconsecutive = len(runs) > 1
        if consecutive and nonconsecutive:
            return "both"
        if consecutive:
            return "consecutive"
        if nonconsecutive:
            return "nonconsecutive"
        return "none"

    def next_sets(self, pl: str) -> List[FrozenSet[str]]:
        """The sets of PLs visited one cycle after each visit to ``pl``."""
        out = []
        for t, cycle in enumerate(self.visits):
            if pl in cycle:
                nxt = self.visits[t + 1] if t + 1 < len(self.visits) else frozenset()
                out.append(nxt)
        return out


@dataclass(frozen=True)
class UhbNode:
    """A uHB node: the n-th visit (1-based) of the instruction to ``pl``."""

    pl: str
    visit: int
    cycle: int

    def label(self) -> str:
        return "%s(%d)@%d" % (self.pl, self.visit, self.cycle)


class UhbGraph:
    """Node/edge view of a concrete cycle-accurate uPATH."""

    def __init__(self, path: CycleAccuratePath):
        self.path = path
        self.nodes: List[UhbNode] = []
        counters: Dict[str, int] = {}
        for cycle, pls in enumerate(path.visits):
            for pl in sorted(pls):
                counters[pl] = counters.get(pl, 0) + 1
                self.nodes.append(UhbNode(pl=pl, visit=counters[pl], cycle=cycle))
        # one-cycle happens-before edges between temporally adjacent nodes
        self.edges: List[Tuple[UhbNode, UhbNode]] = []
        by_cycle: Dict[int, List[UhbNode]] = {}
        for node in self.nodes:
            by_cycle.setdefault(node.cycle, []).append(node)
        for cycle in sorted(by_cycle):
            for a in by_cycle.get(cycle, ()):
                for b in by_cycle.get(cycle + 1, ()):
                    self.edges.append((a, b))

    @property
    def latency(self) -> int:
        return self.path.latency

    def summarized_rows(self) -> List[Tuple[str, int, int, int]]:
        """Row(1)/Row(l) summarization: (pl, start_cycle, run_length, run_no).

        Each consecutive run of visits to the same PL collapses to one row
        entry; ``run_length`` is the paper's ``l``.
        """
        rows = []
        run_counters: Dict[str, int] = {}
        active: Dict[str, Tuple[int, int]] = {}  # pl -> (start, length)
        horizon = len(self.path.visits)
        for cycle in range(horizon + 1):
            pls = self.path.visits[cycle] if cycle < horizon else frozenset()
            for pl in list(active):
                if pl not in pls:
                    start, length = active.pop(pl)
                    run_counters[pl] = run_counters.get(pl, 0) + 1
                    rows.append((pl, start, length, run_counters[pl]))
            for pl in pls:
                if pl in active:
                    start, length = active[pl]
                    active[pl] = (start, length + 1)
                else:
                    active[pl] = (cycle, 1)
        rows.sort(key=lambda r: (r[1], r[0]))
        return rows

    def render_ascii(self, title: Optional[str] = None) -> str:
        """Figure-style text rendering: one row per PL, one column per cycle."""
        horizon = len(self.path.visits)
        pl_first = {}
        for cycle, pls in enumerate(self.path.visits):
            for pl in pls:
                pl_first.setdefault(pl, cycle)
        order = sorted(pl_first, key=lambda p: (pl_first[p], p))
        width = max((len(p) for p in order), default=4) + 2
        lines = []
        if title:
            lines.append(title)
        header = " " * width + " ".join("%2d" % t for t in range(horizon))
        lines.append(header)
        for pl in order:
            cells = []
            for t in range(horizon):
                cells.append(" *" if pl in self.path.visits[t] else " .")
            lines.append(pl.ljust(width) + " ".join(c.strip().rjust(2) for c in cells))
        lines.append("latency: %d cycles" % self.latency)
        return "\n".join(lines)

    def render_dot(self, name="upath") -> str:
        """GraphViz rendering with Row(1)/Row(l) node labels."""
        lines = ["digraph %s {" % name, "  rankdir=TB;"]
        ids = {}
        for i, node in enumerate(self.nodes):
            ids[node] = "n%d" % i
            lines.append(
                '  n%d [label="%s(%d)\\n@%d"];' % (i, node.pl, node.visit, node.cycle)
            )
        for a, b in self.edges:
            lines.append("  %s -> %s;" % (ids[a], ids[b]))
        lines.append("}")
        return "\n".join(lines)


def extract_path(
    trace,  # ConcreteTraceView
    pls,  # Dict[str, PerformingLocation]
    iuv_pc: int,
    iuv: str = "IUV",
    slot_index=None,
) -> CycleAccuratePath:
    """Build the concrete uPATH of instruction ``iuv_pc`` from a trace.

    ``trace`` is a :class:`~repro.props.views.ConcreteTraceView`: the
    instruction visits a PL in a cycle when one of the PL's slots is
    occupied with its PC.  ``slot_index`` (from :func:`build_slot_index`
    over ``trace.index``) avoids re-resolving signal positions when
    extracting many paths from one trace database.
    """
    if slot_index is None:
        slot_index = build_slot_index(pls, trace.index)
    visit_sets = []
    prev_row = visited = None
    for row in trace.cycles:
        # the stimulus loop pads a fixed point's tail with one row object
        # (DESIGN SS5m): its visit set is the previous one.  Equal but
        # distinct rows still compute.
        if row is not prev_row:
            visited = frozenset(
                name
                for name, occ_key, pc_key in slot_index
                if row[occ_key] and row[pc_key] == iuv_pc
            )
            prev_row = row
        visit_sets.append(visited)
    return CycleAccuratePath.from_cycles(iuv, visit_sets)


def build_slot_index(pls, name_index):
    """Precompute (pl_name, occ_key, pc_key) triples for fast extraction.

    Keys are tuple positions when ``name_index`` is given, else signal-name
    strings (dict-row mode).
    """
    out = []
    for name, pl in pls.items():
        for slot in pl.slots:
            if name_index is not None:
                out.append((name, name_index[slot.occ_signal], name_index[slot.pc_signal]))
            else:
                out.append((name, slot.occ_signal, slot.pc_signal))
    return out
