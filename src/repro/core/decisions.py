"""Decisions: formalized instances of uPATH variability (paper SS IV-B).

A decision of instruction I on microarchitecture M is a pair (src, dst):
``src`` a single decision-source PL and ``dst`` a *set* of decision-
destination PLs, such that in some execution I visits src one cycle before
visiting exactly the PLs in dst, and in another execution the same visit
is followed by a different set.  The empty destination set is meaningful:
it is the squash/disappearance arm of flush-induced decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set

from .mhb import CycleAccuratePath

__all__ = ["Decision", "DecisionSet", "extract_decisions"]


@dataclass(frozen=True)
class Decision:
    """One (source PL, destination PL set) pair."""

    src: str
    dst: FrozenSet[str]

    def __repr__(self):
        dst = "{%s}" % ", ".join(sorted(self.dst)) if self.dst else "{} (squash)"
        return "(%s -> %s)" % (self.src, dst)


@dataclass
class DecisionSet:
    """All decisions of one instruction: d_I^M, plus src_I^M."""

    iuv: str
    by_source: Dict[str, Set[FrozenSet[str]]]

    @property
    def sources(self) -> List[str]:
        """Decision sources: PLs with more than one observed destination set."""
        return sorted(src for src, dsts in self.by_source.items() if len(dsts) > 1)

    def decisions(self) -> List[Decision]:
        out = []
        for src in self.sources:
            for dst in sorted(self.by_source[src], key=sorted):
                out.append(Decision(src=src, dst=dst))
        return out

    def destinations(self, src: str) -> List[FrozenSet[str]]:
        return sorted(self.by_source.get(src, ()), key=sorted)


def extract_decisions(iuv: str, paths: Iterable[CycleAccuratePath]) -> DecisionSet:
    """Derive d_I^M from a complete set of concrete uPATHs.

    Every visit to every PL contributes one (src, next-set) observation;
    sources whose observations include at least two distinct next-sets are
    decision sources (SS IV-B: decisions are defined per PL irrespective of
    how many times it has been visited).
    """
    by_source: Dict[str, Set[FrozenSet[str]]] = {}
    for path in paths:
        for pl in path.pl_set:
            for nxt in path.next_sets(pl):
                by_source.setdefault(pl, set()).add(nxt)
    return DecisionSet(iuv=iuv, by_source=by_source)
