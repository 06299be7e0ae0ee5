"""Witness-trace export: model-checker counterexamples as VCD waveforms.

The paper's workflow inspects "the RTL waveforms produced by RTL2MuPATH's
reachable SVA cover properties" (SS VII-B2 -- how the scoreboard bug was
localized).  This module turns any reachable :class:`CheckResult` witness
into a VCD document, optionally restricted to the signals of interest
(e.g. one instruction's PL occupancies).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..mc.outcomes import CheckResult
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
    """Human-readable per-cycle PL occupancy of ``iuv_pc`` in the witness."""
    if result.witness is None:
        raise ValueError("no witness to render")
    lines = []
    for cycle, obs in enumerate(result.witness):
        visited = []
        for name, pl in metadata.pls.items():
            for slot in pl.slots:
                if obs.get(slot.occ_signal) and obs.get(slot.pc_signal) == iuv_pc:
                    visited.append(name)
        if visited:
            lines.append("cycle %2d: %s" % (cycle, ", ".join(sorted(set(visited)))))
    return lines
