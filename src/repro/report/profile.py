"""Text rendering for trace profiles (``python -m repro profile``).

Turns a parsed :class:`~repro.obs.profile.TraceProfile` into the
terminal report: run summary, per-phase breakdown (total vs self time),
per-instruction wall clock, hotspot ranking, and the SS VII-B3
reconciliation line (span-accounted checker seconds vs the run's
``PropertyStats.total_time``).
"""

from __future__ import annotations

from ..obs.profile import TraceProfile
from .tables import render_table

__all__ = ["render_profile"]


def _fmt_seconds(value: float) -> str:
    return "%.6f" % value


def _fmt_pct(part: float, whole: float) -> str:
    if whole <= 0:
        return "-"
    return "%.1f%%" % (100.0 * part / whole)


def render_profile(profile: TraceProfile, top: int = 10) -> str:
    sections = []

    # ---- run summary
    lines = ["trace: %d events, %d spans" % (len(profile.events), len(profile.spans))]
    manifest = profile.manifest
    if manifest:
        lines.append(
            "run: %s jobs (%s cached, %s executed, %s failed), "
            "%s properties (%s fresh, %s replayed), %.2fs wall on %s worker(s)"
            % (
                manifest.get("jobs_total", "?"),
                manifest.get("jobs_cached", "?"),
                manifest.get("jobs_executed", "?"),
                manifest.get("jobs_failed", "?"),
                manifest.get("properties_total", "?"),
                manifest.get("properties_evaluated", "?"),
                manifest.get("properties_replayed", "?"),
                manifest.get("wall_seconds", 0.0),
                manifest.get("workers", "?"),
            )
        )
    if profile.errors:
        lines.append("INTEGRITY: %d error(s)" % len(profile.errors))
        lines.extend("  - %s" % err for err in profile.errors[:20])
        if len(profile.errors) > 20:
            lines.append("  ... and %d more" % (len(profile.errors) - 20))
    else:
        lines.append("integrity: ok")
    sections.append("\n".join(lines))

    # ---- per-phase breakdown
    totals = profile.phase_totals()
    if totals:
        grand_self = sum(bucket["self"] for bucket in totals.values())
        rows = []
        for name, bucket in sorted(
            totals.items(), key=lambda kv: kv[1]["self"], reverse=True
        ):
            rows.append(
                [
                    name,
                    int(bucket["count"]),
                    _fmt_seconds(bucket["total"]),
                    _fmt_seconds(bucket["self"]),
                    _fmt_pct(bucket["self"], grand_self),
                    int(bucket["properties"]),
                    _fmt_seconds(bucket["check_seconds"]),
                ]
            )
        sections.append(
            "per-phase (self time excludes child spans):\n"
            + render_table(
                ["phase", "count", "total s", "self s", "self %",
                 "properties", "check s"],
                rows,
            )
        )

    # ---- per-instruction breakdown
    per_instr = profile.per_instruction()
    if per_instr:
        rows = [
            [
                label,
                int(bucket["count"]),
                _fmt_seconds(bucket["total"]),
                int(bucket["properties"]),
            ]
            for label, bucket in sorted(
                per_instr.items(), key=lambda kv: kv[1]["total"], reverse=True
            )
        ]
        sections.append(
            "per-instruction:\n"
            + render_table(["unit", "count", "total s", "properties"], rows)
        )

    # ---- hotspots
    hotspots = profile.hotspots(top=top)
    if hotspots:
        rows = []
        for record, self_s in hotspots:
            detail = ", ".join(
                "%s=%s" % (k, v)
                for k, v in sorted(record.attrs.items())
                if k not in ("properties", "check_seconds")
            )
            rows.append(
                [record.name, _fmt_seconds(self_s),
                 _fmt_seconds(record.duration), detail]
            )
        sections.append(
            "hotspots (top %d spans by self time):\n" % len(rows)
            + render_table(["span", "self s", "total s", "attrs"], rows)
        )

    # ---- checker-time reconciliation
    lines = [
        "checker time: %.6fs on spans + %.6fs replayed from cache = %.6fs"
        % (
            profile.checked_seconds(),
            profile.replayed_seconds(),
            profile.accounted_seconds(),
        )
    ]
    stats = profile.stats
    if stats and isinstance(stats.get("total_time"), (int, float)):
        total_time = float(stats["total_time"])
        ok = profile.reconciles_total_time(total_time)
        lines.append(
            "stats total_time: %.6fs over %s properties -> %s"
            % (
                total_time,
                stats.get("count", "?"),
                "reconciles" if ok else "MISMATCH",
            )
        )
    sections.append("\n".join(lines))

    return "\n\n".join(sections) + "\n"
