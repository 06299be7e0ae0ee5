"""Witness-trace export: model-checker counterexamples as VCD waveforms.

The paper's workflow inspects "the RTL waveforms produced by RTL2MuPATH's
reachable SVA cover properties" (SS VII-B2 -- how the scoreboard bug was
localized).  This module turns any reachable :class:`CheckResult` witness
into a VCD document, optionally restricted to the signals of interest
(e.g. one instruction's PL occupancies).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..core.mhb import build_slot_index, visit_sets
from ..mc.outcomes import CheckResult
from ..props.views import ConcreteTraceView
from ..sim.vcd import trace_to_vcd

__all__ = ["witness_to_vcd", "witness_pl_timeline"]


def witness_to_vcd(
    result: CheckResult,
    signals: Optional[Iterable[str]] = None,
    design: str = "witness",
) -> str:
    """Render a reachable result's witness as VCD text."""
    if result.witness is None:
        raise ValueError(
            "result %s has no witness (outcome: %s)"
            % (result.query_name, result.outcome)
        )
    names = list(signals) if signals is not None else sorted(result.witness[0])
    return trace_to_vcd(names, result.witness, design=design)


def witness_pl_timeline(result: CheckResult, metadata, iuv_pc: int) -> List[str]:
    """Human-readable per-cycle PL occupancy of ``iuv_pc`` in the witness.

    A slot whose signals the witness lacks reads as unoccupied: a
    k-induction witness from a pooled context covers only its COI slice.
    """
    if result.witness is None:
        raise ValueError("no witness to render")
    present = set(result.witness[0]) if result.witness else set()
    slots = [
        (name, occ, pc)
        for name, occ, pc in build_slot_index(metadata.pls, None)
        if occ in present and pc in present
    ]
    rows = ConcreteTraceView(result.witness)
    return [
        "cycle %2d: %s" % (cycle, ", ".join(sorted(visited)))
        for cycle, visited in enumerate(
            visit_sets(rows, metadata.pls, iuv_pc, slots))
        if visited
    ]
