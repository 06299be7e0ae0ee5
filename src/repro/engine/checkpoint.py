"""Run checkpointing: crash-durable records of completed job reports.

A checkpointed run owns a *run directory* containing
``checkpoint.jsonl``: a header record followed by one JSON record per
completed job -- its id, content key, encoded value, per-property
CheckResult dicts, attempt history, and error (for jobs that degraded
to a failure).  Unlike the proof cache, the checkpoint stores
*everything the run produced*, including non-cacheable UNDETERMINED
results and failed/quarantined jobs, because its contract is different:
the cache answers "is this verdict known forever?", the checkpoint
answers "what had this run already finished when it died?".

Durability is fsync-based and periodic: every record is written and
flushed immediately, and the file is fsynced every ``FSYNC_EVERY``
records or ``FSYNC_SECONDS`` seconds (whichever first) plus at close,
so a SIGKILL loses at most the tail written since the last sync.  A
hard kill can leave a truncated final line; :meth:`RunCheckpoint.open`
therefore rewrites the file from its parseable records before
appending, making resume-after-resume safe.

``python -m repro synth-all --resume <run-dir>`` replays these records
(skipping their jobs entirely) and continues the run; the scheduler
validates each record's content key against the job's current key so a
netlist / config change between runs invalidates stale records exactly
like it invalidates cache entries.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

__all__ = ["RunCheckpoint", "CHECKPOINT_FORMAT_VERSION"]

CHECKPOINT_FORMAT_VERSION = 1
FSYNC_EVERY = 8  # records between fsyncs ...
FSYNC_SECONDS = 1.0  # ... or seconds, whichever comes first


class RunCheckpoint:
    """Append-only ``checkpoint.jsonl`` writer/loader for one run dir."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.path = os.path.join(run_dir, "checkpoint.jsonl")
        self._handle = None
        self._since_sync = 0
        self._last_sync = time.monotonic()
        self.records_written = 0

    # ------------------------------------------------------------------ load
    @staticmethod
    def load_records(run_dir: str) -> Dict[str, Dict[str, Any]]:
        """Parse completed-job records, keyed by job_id (last wins).

        Tolerates a truncated trailing line (the signature a hard kill
        leaves) and skips records from other format versions.
        """
        path = os.path.join(run_dir, "checkpoint.jsonl")
        records: Dict[str, Dict[str, Any]] = {}
        try:
            handle = open(path, "r", encoding="utf-8")
        except OSError:
            return records
        with handle:
            fmt = None
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # partial write from an interrupted run
                if not isinstance(record, dict):
                    continue
                kind = record.get("record")
                if kind == "header":
                    fmt = record.get("format")
                    continue
                if fmt != CHECKPOINT_FORMAT_VERSION:
                    continue
                if kind == "job" and record.get("job_id"):
                    records[record["job_id"]] = record
        return records

    # ------------------------------------------------------------------ open
    def open(self, resume: bool = False) -> Dict[str, Dict[str, Any]]:
        """Start (or continue) the checkpoint; returns prior records.

        ``resume=False`` truncates any existing checkpoint.  ``resume=True``
        loads the prior records, rewrites the file from exactly those
        (dropping any torn tail), and appends from there.
        """
        os.makedirs(self.run_dir, exist_ok=True)
        records = self.load_records(self.run_dir) if resume else {}
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write(
            {
                "record": "header",
                "format": CHECKPOINT_FORMAT_VERSION,
                "created": round(time.time(), 6),
                "resumed_records": len(records),
            }
        )
        for record in records.values():
            self._write(record)
        self.sync()
        return records

    # ----------------------------------------------------------------- write
    def _write(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def record_job(
        self,
        job_id: str,
        key: Optional[str],
        payload: Any,
        results: List[Dict[str, Any]],
        attempts: List[Dict[str, Any]],
        error: Optional[str] = None,
        quarantined: bool = False,
    ) -> None:
        """Persist one completed job report (success or degraded failure)."""
        self._write(
            {
                "record": "job",
                "job_id": job_id,
                "key": key,
                "payload": payload,
                "results": results,
                "attempts": attempts,
                "error": error,
                "quarantined": quarantined,
            }
        )
        self.records_written += 1
        self._since_sync += 1
        if (
            self._since_sync >= FSYNC_EVERY
            or time.monotonic() - self._last_sync >= FSYNC_SECONDS
        ):
            self.sync()

    def sync(self) -> None:
        """fsync the checkpoint to disk (the durability point)."""
        if self._handle is None:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_sync = 0
        self._last_sync = time.monotonic()

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
