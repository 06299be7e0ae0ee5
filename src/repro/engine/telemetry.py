"""Structured run telemetry: JSONL events plus a run manifest.

Every engine run emits a stream of machine-parsable events (one JSON
object per line) -- run start/finish, per-job submit/attempt/finish,
cache hit/miss/store, verdict histograms, retry counts, timings -- and
accumulates a :class:`RunManifest` whose totals fold back into
:class:`~repro.mc.stats.PropertyStats`, so the paper's SS VII-B3 property
accounting still holds exactly under parallel + cached execution:

    properties_evaluated + properties_replayed + properties_resumed
        == stats.count

(assuming the stats accumulator started empty), with matching outcome
histograms.  ``RunManifest.reconciles(stats)`` asserts precisely that.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["TelemetryLog", "RunManifest"]

# a TelemetryLog flushes every FLUSH_EVERY events or FLUSH_SECONDS seconds
FLUSH_EVERY = 128
FLUSH_SECONDS = 1.0


class TelemetryLog:
    """Buffered JSONL event writer; a ``path`` of None disables output.

    Events are buffered in memory and written in batches -- a flush
    happens every ``FLUSH_EVERY`` events or ``FLUSH_SECONDS`` seconds,
    whichever comes first, instead of the write+fsync-per-line pattern
    that dominated trace-enabled runs.  ``close()`` (and ``__exit__``)
    always flushes, and the scheduler flushes in a ``finally`` so a
    crashed run still leaves a readable trace.

    Callers may pass an explicit ``ts`` field to timestamp an event at
    its original occurrence time -- the span-forwarding path replays
    worker-side events with the timestamps recorded in the worker.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self._handle = open(path, "a", encoding="utf-8") if path else None
        self._buffer: list = []
        self._last_flush = time.monotonic()

    @property
    def enabled(self) -> bool:
        return self._handle is not None

    def event(self, kind: str, **fields: Any):
        if self._handle is None:
            return
        ts = fields.pop("ts", None)
        record = {"ts": round(ts if ts is not None else time.time(), 6),
                  "event": kind}
        record.update(fields)
        self._buffer.append(json.dumps(record, sort_keys=True))
        if (
            len(self._buffer) >= FLUSH_EVERY
            or time.monotonic() - self._last_flush >= FLUSH_SECONDS
        ):
            self.flush()

    def flush(self):
        if self._handle is not None and self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._handle.flush()
            self._buffer.clear()
        self._last_flush = time.monotonic()

    def close(self):
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@dataclass
class RunManifest:
    """Aggregate accounting for one engine run."""

    jobs_total: int = 0
    jobs_cached: int = 0
    jobs_executed: int = 0
    jobs_failed: int = 0
    jobs_resumed: int = 0  # replayed from a run checkpoint (--resume)
    jobs_quarantined: int = 0  # repeat worker-killers degraded to failures
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0  # process pool rebuilt after worker deaths
    rss_aborts: int = 0  # attempts aborted by the RSS soft ceiling
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_skipped_nonfinal: int = 0
    cache_quarantined: int = 0  # corrupt entries moved aside this run
    properties_evaluated: int = 0  # freshly checked this run
    properties_replayed: int = 0  # replayed from the proof cache
    properties_resumed: int = 0  # replayed from the run checkpoint
    outcomes: Counter = field(default_factory=Counter)
    wall_seconds: float = 0.0
    workers: int = 1
    interrupted: bool = False  # run stopped early by a clean Ctrl-C
    # ---- verdict certification (repro.cert, DESIGN SS5j) ----
    cert_checked: int = 0  # certificates actually verified or refuted
    cert_failures: int = 0  # certificates that failed verification
    # failures surviving into final results: nothing re-solves a failed
    # certificate, so this equals cert_failures
    cert_uncaught: int = 0

    @property
    def properties_total(self) -> int:
        return (
            self.properties_evaluated
            + self.properties_replayed
            + self.properties_resumed
        )

    def note_results(self, results, replayed: bool = False,
                     resumed: bool = False):
        if resumed:
            self.properties_resumed += len(results)
        elif replayed:
            self.properties_replayed += len(results)
        else:
            self.properties_evaluated += len(results)
        self.outcomes.update(r.outcome for r in results)

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "jobs_total": self.jobs_total,
            "jobs_cached": self.jobs_cached,
            "jobs_executed": self.jobs_executed,
            "jobs_failed": self.jobs_failed,
            "jobs_resumed": self.jobs_resumed,
            "jobs_quarantined": self.jobs_quarantined,
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "rss_aborts": self.rss_aborts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_stores": self.cache_stores,
            "cache_skipped_nonfinal": self.cache_skipped_nonfinal,
            "cache_quarantined": self.cache_quarantined,
            "properties_evaluated": self.properties_evaluated,
            "properties_replayed": self.properties_replayed,
            "properties_resumed": self.properties_resumed,
            "properties_total": self.properties_total,
            "outcomes": dict(self.outcomes),
            "wall_seconds": round(self.wall_seconds, 6),
            "workers": self.workers,
            "interrupted": self.interrupted,
        }
        # certification accounting appears only when the run certified
        # anything, so uncertified manifests keep their pre-cert shape
        if self.cert_checked or self.cert_failures or self.cert_uncaught:
            payload["cert_checked"] = self.cert_checked
            payload["cert_failures"] = self.cert_failures
            payload["cert_uncaught"] = self.cert_uncaught
        return payload

    def reconciles(self, stats) -> bool:
        """SS VII-B3 invariant against a stats accumulator this run filled."""
        return (
            self.properties_total == stats.count
            and dict(self.outcomes) == stats.outcome_histogram
        )

    def summary(self) -> str:
        text = (
            "engine run: %d jobs (%d cached, %d resumed, %d executed, "
            "%d failed), %d properties (%d fresh, %d replayed, %d resumed), "
            "%d retries, %d timeouts, %.2fs wall on %d worker(s)"
            % (
                self.jobs_total,
                self.jobs_cached,
                self.jobs_resumed,
                self.jobs_executed,
                self.jobs_failed,
                self.properties_total,
                self.properties_evaluated,
                self.properties_replayed,
                self.properties_resumed,
                self.retries,
                self.timeouts,
                self.wall_seconds,
                self.workers,
            )
        )
        extras = []
        if self.cert_checked or self.cert_failures:
            extras.append(
                "%d certificate(s) checked" % self.cert_checked
            )
        if self.cert_failures:
            extras.append(
                "%d certification failure(s), %d uncaught"
                % (self.cert_failures, self.cert_uncaught)
            )
        if self.pool_rebuilds:
            extras.append("%d pool rebuild(s)" % self.pool_rebuilds)
        if self.jobs_quarantined:
            extras.append("%d job(s) quarantined" % self.jobs_quarantined)
        if self.rss_aborts:
            extras.append("%d RSS abort(s)" % self.rss_aborts)
        if self.cache_quarantined:
            extras.append(
                "%d cache entr%s quarantined"
                % (
                    self.cache_quarantined,
                    "y" if self.cache_quarantined == 1 else "ies",
                )
            )
        if extras:
            text += "; " + ", ".join(extras)
        return text
