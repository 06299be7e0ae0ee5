"""Trace analysis: turn a ``--trace`` JSONL stream into a profile.

:class:`TraceProfile` parses the unified telemetry stream (engine events
plus ``span_begin``/``span_end`` pairs from :mod:`repro.obs.tracer`),
validates its structural integrity, and aggregates it three ways:

* **per phase** -- total and *self* time (excluding child spans) per
  span name, with call counts: the "where did the 40-minute run go"
  breakdown;
* **per instruction** -- wall clock per IUV, read off the
  ``rtl2mupath.synthesize`` / ``synthlc.classify_one`` root spans;
* **checker reconciliation** -- the ``check_seconds`` accumulated on
  cover/induction spans plus the ``replayed_seconds`` of proof-cache
  hits, which must equal the run's
  :attr:`~repro.mc.stats.PropertyStats.total_time` (the SS VII-B3
  accounting carried over to spans).

:meth:`TraceProfile.to_chrome_trace` exports the span tree in the Chrome
tracing / Perfetto JSON format (``ph: "X"`` complete events, one track
per producing process), so a run opens directly in ``ui.perfetto.dev``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SpanRecord", "TraceProfile"]

# clock slack when validating child-inside-parent nesting: timestamps are
# wall-clock (cross-process comparable) rounded to microseconds
NEST_EPSILON = 0.01


class SpanRecord:
    """One completed span reconstructed from its begin/end pair."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "attrs", "error")

    def __init__(self, span_id, parent_id, name, start, end, attrs, error=False):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs
        self.error = error

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def track(self) -> str:
        """The producing tracer's unique prefix (one per process/tracer)."""
        return self.span_id.rsplit(":", 1)[0]

    def __repr__(self):
        return "SpanRecord(%s, %.6fs)" % (self.name, self.duration)


class TraceProfile:
    """Parsed + validated view of one telemetry trace."""

    def __init__(self, events: List[Dict[str, Any]],
                 parse_errors: Optional[List[str]] = None):
        self.events = events
        self.errors: List[str] = list(parse_errors or [])
        self.spans: List[SpanRecord] = []
        self.manifest: Optional[Dict[str, Any]] = None
        self.stats: Optional[Dict[str, Any]] = None
        self._by_id: Dict[str, SpanRecord] = {}
        self._children: Dict[str, List[SpanRecord]] = {}
        self._build()
        self._validate()

    # ------------------------------------------------------------------ load
    @classmethod
    def load(cls, path: str) -> "TraceProfile":
        events: List[Dict[str, Any]] = []
        errors: List[str] = []
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    errors.append("line %d: not valid JSON" % lineno)
                    continue
                if not isinstance(record, dict):
                    errors.append("line %d: not a JSON object" % lineno)
                    continue
                events.append(record)
        return cls(events, parse_errors=errors)

    # ----------------------------------------------------------------- build
    def _build(self):
        begins: Dict[str, Dict[str, Any]] = {}
        for i, event in enumerate(self.events):
            kind = event.get("event")
            if kind == "span_begin":
                span_id = event.get("span")
                if span_id in begins or span_id in self._by_id:
                    self.errors.append("duplicate span_begin for %r" % span_id)
                    continue
                begins[span_id] = event
            elif kind == "span_end":
                span_id = event.get("span")
                begin = begins.pop(span_id, None)
                if begin is None:
                    self.errors.append(
                        "span_end without matching begin for %r" % span_id
                    )
                    continue
                attrs = dict(begin.get("attrs") or {})
                attrs.update(event.get("attrs") or {})
                record = SpanRecord(
                    span_id=span_id,
                    parent_id=begin.get("parent"),
                    name=begin.get("name"),
                    start=begin.get("ts", 0.0),
                    end=event.get("ts", 0.0),
                    attrs=attrs,
                    error=bool(event.get("error")),
                )
                self.spans.append(record)
                self._by_id[span_id] = record
            elif kind == "run_finish":
                self.manifest = event.get("manifest")
                self.stats = event.get("stats")
        for span_id, begin in begins.items():
            self.errors.append("span_begin without span_end for %r" % span_id)
        for record in self.spans:
            if record.parent_id is not None:
                self._children.setdefault(record.parent_id, []).append(record)

    # -------------------------------------------------------------- validate
    def _validate(self):
        for i, event in enumerate(self.events):
            if not isinstance(event.get("ts"), (int, float)):
                self.errors.append("event %d: missing numeric 'ts'" % i)
            if not isinstance(event.get("event"), str):
                self.errors.append("event %d: missing 'event' kind" % i)
        for record in self.spans:
            if record.end + 1e-9 < record.start:
                self.errors.append(
                    "span %s (%s) ends before it begins"
                    % (record.span_id, record.name)
                )
            parent_id = record.parent_id
            if parent_id is None:
                continue
            parent = self._by_id.get(parent_id)
            if parent is None:
                self.errors.append(
                    "span %s (%s) has unknown parent %r"
                    % (record.span_id, record.name, parent_id)
                )
                continue
            if (
                record.start < parent.start - NEST_EPSILON
                or record.end > parent.end + NEST_EPSILON
            ):
                self.errors.append(
                    "span %s (%s) does not nest inside parent %s (%s)"
                    % (record.span_id, record.name, parent.span_id, parent.name)
                )

    @property
    def ok(self) -> bool:
        return not self.errors

    # ------------------------------------------------------------ aggregates
    def self_seconds(self, record: SpanRecord) -> float:
        children = self._children.get(record.span_id, ())
        return record.duration - sum(child.duration for child in children)

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span-name aggregation: count, total and self seconds."""
        totals: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            bucket = totals.setdefault(
                record.name, {"count": 0, "total": 0.0, "self": 0.0,
                              "properties": 0, "check_seconds": 0.0}
            )
            bucket["count"] += 1
            bucket["total"] += record.duration
            bucket["self"] += self.self_seconds(record)
            bucket["properties"] += record.attrs.get("properties", 0) or 0
            bucket["check_seconds"] += record.attrs.get("check_seconds", 0.0) or 0.0
        return totals

    def per_instruction(self) -> Dict[str, Dict[str, float]]:
        """Wall clock per IUV / classification unit, from root tool spans."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self.spans:
            label = None
            if record.name == "rtl2mupath.synthesize":
                label = record.attrs.get("iuv")
            elif record.name == "synthlc.classify_one":
                label = "%s<-%s" % (
                    record.attrs.get("transponder"),
                    record.attrs.get("transmitter"),
                )
            if label is None:
                continue
            bucket = out.setdefault(
                str(label), {"count": 0, "total": 0.0, "properties": 0}
            )
            bucket["count"] += 1
            bucket["total"] += record.duration
            bucket["properties"] += self._subtree_properties(record)
        return out

    def _subtree_properties(self, record: SpanRecord) -> int:
        total = record.attrs.get("properties", 0) or 0
        for child in self._children.get(record.span_id, ()):
            total += self._subtree_properties(child)
        return int(total)

    def hotspots(self, top: int = 10) -> List[Tuple[SpanRecord, float]]:
        """Individual spans ranked by self time, hottest first."""
        ranked = [(record, self.self_seconds(record)) for record in self.spans]
        ranked.sort(key=lambda pair: pair[1], reverse=True)
        return ranked[:top]

    # -------------------------------------------------- checker reconciliation
    def checked_seconds(self) -> float:
        """Total property-checker time accumulated on spans."""
        return sum(
            record.attrs.get("check_seconds", 0.0) or 0.0 for record in self.spans
        )

    def replayed_seconds(self) -> float:
        """Original checker time of verdicts replayed rather than re-run:
        proof-cache hits plus checkpoint-resumed jobs."""
        return sum(
            event.get("replayed_seconds", 0.0) or 0.0
            for event in self.events
            if event.get("event") in ("cache_hit", "resume_replay")
        )

    def accounted_seconds(self) -> float:
        return self.checked_seconds() + self.replayed_seconds()

    def reconciles_total_time(self, total_time: float, tol: float = 1e-4) -> bool:
        """Does span-accounted checker time match a PropertyStats total?"""
        return abs(self.accounted_seconds() - total_time) <= tol * max(
            1.0, abs(total_time)
        )

    # ----------------------------------------------------------- chrome trace
    def to_chrome_trace(self) -> Dict[str, Any]:
        """Chrome tracing / Perfetto ``traceEvents`` JSON."""
        t0 = min(
            [record.start for record in self.spans]
            + [event["ts"] for event in self.events if "ts" in event]
            or [0.0]
        )
        tids = {}
        trace_events: List[Dict[str, Any]] = []
        for record in sorted(self.spans, key=lambda r: r.start):
            tid = tids.setdefault(record.track, len(tids) + 1)
            trace_events.append(
                {
                    "name": record.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round((record.start - t0) * 1e6, 3),
                    "dur": round(record.duration * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "args": record.attrs,
                }
            )
        for event in self.events:
            kind = event.get("event")
            if kind in (
                "cache_hit",
                "cache_miss",
                "job_failed",
                "job_quarantined",
                "job_lost",
                "worker_death",
                "pool_rebuild",
                "isolation_probe",
                "resume_replay",
            ):
                trace_events.append(
                    {
                        "name": kind,
                        "cat": "engine",
                        "ph": "i",
                        "s": "g",
                        "ts": round((event.get("ts", t0) - t0) * 1e6, 3),
                        "pid": 1,
                        "tid": 0,
                        "args": {
                            k: v
                            for k, v in event.items()
                            if k not in ("ts", "event")
                        },
                    }
                )
        metadata = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": "tracer %s" % track},
            }
            for track, tid in sorted(tids.items(), key=lambda kv: kv[1])
        ]
        return {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms",
        }
