"""Table II and SS VII-B3 reports.

Table II quantifies the user-annotation burden (IFR, uFSMs, PCRs added,
commit signal, operand registers, ARF/AMEM) for the Core and Cache DUVs.
SS VII-B3 reports property counts, mean evaluation time, and undetermined
fractions per tool phase and per DUV -- the shape result being that
modular (cache-only) verification is orders of magnitude cheaper per
property than whole-core verification.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core.pl import DesignMetadata
from ..mc.stats import PropertyStats

__all__ = ["table2_report", "property_stats_report", "render_table"]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    fmt = "  ".join("%%-%ds" % w for w in widths)
    lines = [fmt % tuple(headers), fmt % tuple("-" * w for w in widths)]
    for row in rows:
        lines.append(fmt % tuple(str(c) for c in row))
    return "\n".join(lines)


def table2_report(metadatas: Dict[str, DesignMetadata]) -> str:
    """Table II analogue: annotation counts per DUV."""
    headers = [
        "DUV",
        "IFR",
        "uFSMs",
        "PCRs",
        "PCRs added",
        "state vars",
        "PLs",
        "PL slots",
        "operand regs",
        "ARF regs",
        "AMEM regs",
        "commit",
    ]
    rows = []
    for name, metadata in metadatas.items():
        counts = metadata.annotation_counts()
        rows.append(
            [
                name,
                metadata.ifr_signal,
                counts["ufsms"],
                counts["pcrs"],
                counts["pcrs_added"],
                counts["state_var_registers"],
                counts["pls"],
                counts["pl_slots"],
                counts["operand_registers"],
                counts["arf_registers"],
                counts["amem_registers"],
                metadata.commit_signal,
            ]
        )
    return render_table(headers, rows)


def property_stats_report(stats: Dict[str, PropertyStats]) -> str:
    """SS VII-B3 analogue: per-phase property evaluation accounting."""
    headers = [
        "phase",
        "properties",
        "mean s/prop",
        "reachable",
        "unreachable",
        "undetermined",
        "% undet",
    ]
    rows = []
    for name, phase_stats in stats.items():
        histogram = phase_stats.outcome_histogram
        rows.append(
            [
                name,
                phase_stats.count,
                "%.6f" % phase_stats.mean_time,
                histogram.get("reachable", 0),
                histogram.get("unreachable", 0),
                histogram.get("undetermined", 0),
                "%.2f" % (100 * phase_stats.undetermined_fraction),
            ]
        )
    return render_table(headers, rows)
