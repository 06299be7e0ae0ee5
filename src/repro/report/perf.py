"""Timing-variability report from a compiled performance model.

A compiled :class:`~repro.perf.model.PerfModel` carries, for each
instruction, the latency table keyed by operand features and the full
set of unit-PL run lengths observed across its μPATH set.  The spread
of that table (max latency minus min latency) is exactly the
operand-dependent timing channel SynthLC classifies: a zero spread is
the constant-time verdict, a nonzero spread marks a transmitter whose
cycle count depends on operand values.  This module renders that view
per hazard class and per instruction so the perf CLI's output can be
cross-checked against the SynthLC leakage labels.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..perf.model import PerfModel
from .tables import render_table

__all__ = [
    "timing_variability_rows",
    "timing_variability_report",
    "stall_breakdown_report",
]


def timing_variability_rows(model: PerfModel) -> List[Tuple[str, str, int, int, int, str]]:
    """Rows of ``(instr, class, min_lat, max_lat, delta, features)``.

    ``delta > 0`` marks an operand-dependent timing channel -- the
    perf-model counterpart of a SynthLC operand-transmitter label;
    ``delta == 0`` is the constant-time verdict.
    """
    rows = []
    for name in sorted(model.instrs):
        timing = model.instrs[name]
        lo, hi = timing.min_latency, timing.max_latency
        rows.append((
            name,
            timing.cls,
            lo,
            hi,
            hi - lo,
            ",".join(timing.features) if timing.features else "-",
        ))
    rows.sort(key=lambda r: (-r[4], r[1], r[0]))
    return rows


def timing_variability_report(model: PerfModel) -> str:
    """Human-readable per-instruction timing-variability table."""
    headers = ["instr", "class", "min", "max", "delta", "operand features"]
    body = [
        (name, cls, str(lo), str(hi),
         str(delta) if delta else "0 (const-time)", feats)
        for name, cls, lo, hi, delta, feats in timing_variability_rows(model)
    ]
    lines = [
        "Timing variability (%s, xlen=%d)" % (model.design_label, model.xlen),
        render_table(headers, body),
    ]
    return "\n".join(lines)


def stall_breakdown_report(stalls: Dict[str, int]) -> str:
    """Render predicted stall-cycle totals per hazard class."""
    total = sum(stalls.values())
    headers = ["hazard class", "stall cycles", "share"]
    body = []
    for cls in sorted(stalls, key=lambda c: -stalls[c]):
        count = stalls[cls]
        share = "%.1f%%" % (100.0 * count / total) if total else "-"
        body.append((cls, str(count), share))
    lines = [
        "Predicted stall cycles (%d total)" % total,
        render_table(headers, body),
    ]
    return "\n".join(lines)
