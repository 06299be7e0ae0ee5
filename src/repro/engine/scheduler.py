"""The verification job scheduler.

Executes a batch of independent verification jobs -- per-IUV RTL2MuPATH
synthesis runs, per-(transponder, transmitter, assumption, operand)
SynthLC classification runs, or any object following the job protocol --
across a ``ProcessPoolExecutor``, with:

* **proof-cache short-circuiting**: jobs whose content key hits the
  persistent cache replay their prior verdicts instantly (never for
  entries containing UNDETERMINED -- those are not stored);
* **per-job wall-clock deadlines**: a SIGALRM-based deadline inside the
  worker aborts a stuck attempt instead of hanging the run;
* **retry of failed attempts**: an attempt that times out, raises or
  crosses the RSS ceiling is re-run on the same recipe, up to
  ``max_attempts`` attempts.  An attempt that returns results is final,
  whatever its verdicts: UNDETERMINED is interpreted by the pipeline's
  ``undetermined_as`` (SS VII-B4), never retried;
* **reported certificate failures**: an attempt whose results carry a
  failed certificate (``--certify full``, DESIGN SS5j) is final too.
  Its failing bundles are dumped to ``$REPRO_CERT_ARTIFACTS``, each
  failure counts in the manifest's ``cert_failures`` and
  ``cert_uncaught``, and the job is never cached.  Nothing re-solves
  it: every engine path is deterministic, so a second execute would
  retrace the first;
* **crash-resilient dispatch**: a worker death (OOM-kill, segfault,
  SIGKILL, injected chaos) breaks the process pool; the scheduler
  catches it, rebuilds the pool with exponential backoff and seeded
  jitter, and re-dispatches the lost jobs.  Every job lost to a break
  gains a *poison* count; once a job has been implicated
  ``POISON_LIMIT`` times it runs in an isolation probe (a dedicated
  single-worker pool) that pinpoints repeat killers -- a probe death is
  definitive and the job is quarantined as a failed report (the
  UNDETERMINED-style graceful degradation of SS VII-B4) instead of
  looping, while innocent bystanders complete their probe and continue;
* **a per-worker RSS soft ceiling**: with ``max_rss_mb`` set, a watcher
  thread samples the worker's resident set during each attempt and
  aborts the attempt (recorded as ``rss_exceeded``) before the kernel's
  OOM killer would take the whole worker;
* **checkpoint/resume**: with ``run_dir`` set, every completed job
  report -- including non-cacheable UNDETERMINED results and degraded
  failures -- is appended to a periodically-fsynced
  ``checkpoint.jsonl``; a later run with ``resume=True`` replays those
  records and executes only the jobs the interrupted run never
  finished, bit-identically to an uninterrupted run;
* **exact accounting**: every per-property CheckResult -- fresh,
  cache-replayed, or checkpoint-resumed -- folds into the caller's
  PropertyStats, and the telemetry manifest reconciles against it
  (SS VII-B3);
* **same-design batching**: jobs sharing a ``group_key()`` are
  dispatched to one worker as a serial batch (split only to keep every
  worker busy), so the worker's memoized design, provider and SynthLC
  builds serve the whole group.

Job protocol (duck-typed; see :mod:`repro.engine.specs`):

* ``job_id`` -- unique string;
* ``execute() -> (value, results)`` -- run, returning the job value and
  its list of :class:`~repro.mc.outcomes.CheckResult`;
* ``cache_key() -> str | None`` -- content hash, or None to bypass;
* ``encode_value(value) / decode_value(payload)`` -- JSON round-trip;
* ``value_is_final(value) -> bool`` -- veto caching (e.g. truncated
  context families).

``jobs=1`` (or a single job) runs inline in the calling process -- no
pool, no pickling -- which is also the deterministic reference mode the
tests compare the parallel path against.  Inline mode simulates worker
deaths (see :class:`repro.faults.InjectedWorkerDeath`) through the same
poison/quarantine accounting, so the chaos suite can prove the failure
paths without real process churn.
"""

from __future__ import annotations

import _thread
import os
import random
import signal
import threading
import time
import traceback
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import faults, obs
from ..cert import failed_certificates
from ..faults import InjectedWorkerDeath
from ..mc.outcomes import UNDETERMINED
from ..obs.metrics import REGISTRY
from ..obs.tracer import SpanCollector, Tracer, replay_into
from .cache import ProofCache
from .checkpoint import RunCheckpoint
from .telemetry import RunManifest, TelemetryLog

__all__ = [
    "EngineConfig",
    "EngineError",
    "JobTimeout",
    "MemoryBudgetExceeded",
    "AttemptRecord",
    "WorkerReport",
    "RunOutcome",
    "JobScheduler",
    "current_rss_mb",
]


# parent-side run metrics: worker-process registries die with the worker,
# so the scheduler accounts jobs/properties from the folded reports
_ENGINE_JOBS = REGISTRY.counter(
    "repro_engine_jobs_total", "scheduler jobs, by disposition"
)
_ENGINE_PROPERTIES = REGISTRY.counter(
    "repro_engine_properties_total",
    "per-property results folded by the scheduler, by source",
)
_ENGINE_RUN_SECONDS = REGISTRY.histogram(
    "repro_engine_run_seconds", "scheduler run wall-clock seconds"
)
_ENGINE_REBUILDS = REGISTRY.counter(
    "repro_engine_pool_rebuilds_total",
    "process-pool rebuilds after worker deaths",
)
_ENGINE_RSS_ABORTS = REGISTRY.counter(
    "repro_engine_rss_aborts_total",
    "attempts aborted by the per-worker RSS soft ceiling",
)


class EngineError(RuntimeError):
    """A job failed every attempt and ``keep_going`` is off."""


class JobTimeout(Exception):
    """A job attempt exceeded its wall-clock deadline."""


class MemoryBudgetExceeded(Exception):
    """A job attempt exceeded the per-worker RSS soft ceiling."""


# pool-break implications before a job runs in an isolation probe
POISON_LIMIT = 2
# cap on the exponential pool-rebuild backoff, before jitter
BACKOFF_MAX_SECONDS = 5.0
# seeds the backoff jitter
BACKOFF_SEED = 0


@dataclass
class EngineConfig:
    """Scheduler knobs (the CLI's ``--jobs/--cache-dir/--trace`` map here)."""

    jobs: Optional[int] = None  # worker processes; None -> os.cpu_count()
    timeout_seconds: Optional[float] = None  # per-attempt deadline
    max_attempts: int = 3  # attempts per job; only failed attempts retry
    cache_dir: Optional[str] = None
    trace_path: Optional[str] = None
    keep_going: bool = False  # map failed jobs to None instead of raising
    # ---- fault tolerance (see module docs) ----
    max_rss_mb: Optional[float] = None  # per-worker RSS soft ceiling
    backoff_seconds: float = 0.1  # base delay between pool rebuilds
    fault_plan: Optional["faults.FaultPlan"] = None  # chaos injection
    run_dir: Optional[str] = None  # enables checkpoint.jsonl
    resume: bool = False  # replay the run_dir's prior checkpoint

    @property
    def workers(self) -> int:
        if self.jobs:
            return self.jobs
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1


@dataclass
class AttemptRecord:
    """One execution attempt of one job, as observed inside the worker."""

    attempt: int
    seconds: float
    properties: int = 0
    undetermined: int = 0
    timed_out: bool = False
    rss_exceeded: bool = False
    rss_mb: float = 0.0
    error: Optional[str] = None


@dataclass
class WorkerReport:
    """Everything a worker sends back about one job."""

    job_id: str
    value: Any = None
    results: List = field(default_factory=list)
    attempts: List[AttemptRecord] = field(default_factory=list)
    error: Optional[str] = None  # set only when no attempt produced a value
    quarantined: bool = False  # job repeatedly killed its worker
    spans: List = field(default_factory=list)  # collected (kind, fields) events
    # certificates that failed verification (repro.cert, DESIGN SS5j)
    cert_failures: int = 0


@dataclass
class RunOutcome:
    """Results of one scheduler run, keyed by job_id, plus the manifest."""

    results: Dict[str, Any]
    manifest: RunManifest

    def __getitem__(self, job_id: str) -> Any:
        return self.results[job_id]


# --------------------------------------------------------------- RSS ceiling
def current_rss_mb() -> Optional[float]:
    """This process's resident set size in MB, or None when unreadable."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0))
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        # ru_maxrss is the peak, not the current, RSS -- still a valid
        # trigger for a soft ceiling (it only ever overshoots earlier)
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except (ImportError, OSError, ValueError):
        return None


@contextmanager
def _rss_guard(max_rss_mb: Optional[float], tripped: List[float]):
    """Abort the body with :class:`MemoryBudgetExceeded` when this
    process's RSS crosses ``max_rss_mb``.

    A daemon watcher thread samples the RSS and interrupts the main
    thread (jobs run on the worker's / inline caller's main thread);
    the interrupt is translated here, and callers additionally check
    ``tripped`` to classify an interrupt delivered after the body
    finished.  A no-op when ``max_rss_mb`` is falsy.
    """
    if not max_rss_mb:
        yield
        return
    stop = threading.Event()

    def _watch():
        while not stop.wait(0.02):
            rss = current_rss_mb()
            if rss is not None and rss > max_rss_mb:
                tripped.append(rss)
                if not stop.is_set():
                    _thread.interrupt_main()
                return

    watcher = threading.Thread(target=_watch, name="rss-guard", daemon=True)
    watcher.start()
    try:
        yield
    except KeyboardInterrupt:
        if tripped:
            raise MemoryBudgetExceeded(
                "attempt RSS %.0f MB exceeded the %.0f MB soft ceiling"
                % (tripped[0], max_rss_mb)
            ) from None
        raise
    finally:
        stop.set()
        watcher.join(timeout=1.0)


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`JobTimeout` if the body runs longer than ``seconds``.

    SIGALRM-based: effective in worker processes and in inline mode (both
    run jobs on the main thread).  A no-op when ``seconds`` is None or the
    platform lacks SIGALRM.

    Nesting-safe: entering records the outer alarm's remaining time and
    exiting re-arms it minus the time the inner body consumed, so an
    inline job's deadline no longer clobbers an enclosing one.  (If the
    outer deadline expires while the inner is armed, the shared handler
    fires inside the inner body -- the timeout is then attributed to the
    inner scope, but it is never lost.)
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        # signal handlers can only be installed from the main thread; a job
        # run from any other thread runs without a deadline
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise JobTimeout()

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    outer_remaining, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if outer_remaining:
            elapsed = time.monotonic() - started
            signal.setitimer(
                signal.ITIMER_REAL, max(outer_remaining - elapsed, 1e-6)
            )


def _run_job_group(entries, **kwargs) -> List["WorkerReport"]:
    """Execute a batch of same-group jobs serially inside one worker.

    Jobs sharing a ``group_key()`` (same design) are dispatched as one
    unit so the worker's memoized design, provider and SynthLC builds
    serve the whole batch.
    """
    return [
        _run_job_with_retries(job, job_seq=seq, **kwargs)
        for seq, job in entries
    ]


def _group_batches(pending, workers: int):
    """Partition pending ``(seq, job, key)`` entries into dispatch units.

    Entries are grouped by ``job.group_key()`` (jobs without one group
    alone), preserving submission order within a group.  Groups larger
    than ``ceil(total / workers)`` are split into chunks of that size, so
    same-design batching never serializes a run below its worker count:
    with one design and N workers the group splits into ~N chunks, each
    still a same-design batch.
    """
    order: List[str] = []
    groups: Dict[str, List] = {}
    for entry in pending:
        job = entry[1]
        getter = getattr(job, "group_key", None)
        gk = getter() if callable(getter) else "job:%s" % job.job_id
        if gk not in groups:
            order.append(gk)
            groups[gk] = []
        groups[gk].append(entry)
    chunk = max(1, -(-len(pending) // max(1, workers)))
    batches = []
    for gk in order:
        entries = groups[gk]
        for start in range(0, len(entries), chunk):
            batches.append(entries[start : start + chunk])
    return batches


def _run_job_with_retries(
    job,
    max_attempts: int,
    timeout_seconds: Optional[float],
    collect_spans: bool = False,
    fault_plan=None,
    job_seq: Optional[int] = None,
    max_rss_mb: Optional[float] = None,
) -> WorkerReport:
    """Execute one job under the deadline and failed-attempt retries.

    Module-level so worker processes can unpickle it by reference.

    With ``collect_spans`` a fresh collector tracer is activated around
    the attempts, so every span the job's pipeline opens (phases, solver
    checks, property accounting) is recorded in memory and shipped back
    in the report for the parent to replay into its run trace.  The
    inline (jobs=1) path uses the identical mechanism, which is what
    makes serial and parallel runs produce the same span set.

    With ``fault_plan`` the plan is re-armed here, scoped to this job
    and its dispatch sequence number, so worker-side injection points
    (``worker.job_start``, ``worker.attempt``, ``job.execute``,
    ``solver.check``) fire deterministically.
    """
    report = WorkerReport(job_id=job.job_id)
    armed = previous_armed = None
    if fault_plan is not None:
        armed = faults.arm(fault_plan, job=job.job_id, job_seq=job_seq)
        previous_armed = faults.activate(armed)
    collector = tracer = None
    if collect_spans:
        collector = SpanCollector()
        tracer = Tracer(sink=collector)
        obs.activate(tracer)
    try:
        faults.injection_point("worker.job_start", job=job.job_id)
        _attempt_loop(
            job, report, max_attempts, timeout_seconds,
            max_rss_mb=max_rss_mb, collector=collector,
        )
    finally:
        if tracer is not None:
            obs.deactivate(tracer)
            report.spans = collector.records
        if armed is not None:
            faults.deactivate(previous_armed)
    return report


def _scrub_span_accounting(collector, start: int):
    """Demote per-property accounting attrs on span records from ``start``.

    An attempt whose results never reach the job's ``PropertyStats`` --
    it timed out, crashed or crossed the RSS ceiling -- must not leave
    ``properties``/``check_seconds`` attributes in the trace: the profile
    reconciliation identity sums those attrs across all spans and
    equates them with the stats accumulator's ``total_time``.  The
    values stay visible under ``discarded_*`` names so traces still show
    what the doomed attempt cost.
    """
    if collector is None:
        return
    for kind, fields in collector.records[start:]:
        if kind != "span_end":
            continue
        attrs = fields.get("attrs")
        if not attrs:
            continue
        for key in ("properties", "check_seconds"):
            if key in attrs:
                attrs["discarded_" + key] = attrs.pop(key)


def _attempt_loop(
    job,
    report: WorkerReport,
    max_attempts: int,
    timeout_seconds: Optional[float],
    max_rss_mb: Optional[float] = None,
    collector=None,
) -> None:
    last_error = None
    for attempt in range(max(1, max_attempts)):
        started = time.perf_counter()
        rss_trip: List[float] = []
        mark = len(collector.records) if collector is not None else 0
        try:
            faults.injection_point(
                "worker.attempt", job=job.job_id, attempt=attempt
            )
            with obs.span("job.attempt", job=job.job_id, attempt=attempt):
                with _rss_guard(max_rss_mb, rss_trip), _deadline(timeout_seconds):
                    value, results = job.execute()
        except JobTimeout:
            report.attempts.append(
                AttemptRecord(
                    attempt=attempt,
                    seconds=time.perf_counter() - started,
                    timed_out=True,
                )
            )
            last_error = "attempt %d timed out after %gs" % (
                attempt,
                timeout_seconds or 0.0,
            )
            _scrub_span_accounting(collector, mark)
            continue
        except (MemoryBudgetExceeded, KeyboardInterrupt) as exc:
            if isinstance(exc, KeyboardInterrupt) and not rss_trip:
                raise  # a real interrupt, not a late RSS-watcher trip
            report.attempts.append(
                AttemptRecord(
                    attempt=attempt,
                    seconds=time.perf_counter() - started,
                    rss_exceeded=True,
                    rss_mb=round(rss_trip[0], 3) if rss_trip else 0.0,
                    error=str(exc) or "RSS soft ceiling exceeded",
                )
            )
            last_error = "attempt %d exceeded the %s MB RSS soft ceiling" % (
                attempt,
                max_rss_mb,
            )
            _scrub_span_accounting(collector, mark)
            continue
        except InjectedWorkerDeath:
            raise  # simulated worker kill: handled by the dispatcher
        except Exception:
            trace = traceback.format_exc()
            report.attempts.append(
                AttemptRecord(
                    attempt=attempt,
                    seconds=time.perf_counter() - started,
                    error=trace.strip().splitlines()[-1],
                )
            )
            last_error = trace
            _scrub_span_accounting(collector, mark)
            continue
        undetermined = sum(1 for r in results if r.outcome == UNDETERMINED)
        report.attempts.append(
            AttemptRecord(
                attempt=attempt,
                seconds=time.perf_counter() - started,
                properties=len(results),
                undetermined=undetermined,
            )
        )
        # results are final, UNDETERMINED and failed certificates
        # included: a re-run on the same recipe reproduces them.  The
        # pipeline's undetermined_as interprets UNDETERMINED (SS VII-B4);
        # a failed certificate's bundle is dumped here, and the fold
        # counts it uncaught and keeps the job out of the cache
        report.value, report.results = value, results
        report.cert_failures = len(failed_certificates(results))
        if report.cert_failures:
            _dump_cert_artifacts(job.job_id, results)
        return
    report.error = last_error or "job produced no result"


def _dump_cert_artifacts(job_id: str, results) -> None:
    """Write failing certificate bundles to ``$REPRO_CERT_ARTIFACTS``.

    Best-effort post-mortem evidence (CI uploads the directory); never
    allowed to fail the run.
    """
    out_dir = os.environ.get("REPRO_CERT_ARTIFACTS")
    if not out_dir:
        return
    try:
        import json

        from ..cert import certificate_failed

        os.makedirs(out_dir, exist_ok=True)
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in job_id)
        bundle = {
            "job_id": job_id,
            "failures": [
                {
                    "query": r.query_name,
                    "outcome": r.outcome,
                    "engine": r.engine,
                    "certificate": r.certificate,
                }
                for r in results
                if certificate_failed(r)
            ],
        }
        path = os.path.join(out_dir, "cert-failure-%s.json" % safe)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, indent=2, sort_keys=True)
    except Exception:
        pass


class JobScheduler:
    """Fans verification jobs across worker processes; see module docs."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.last_manifest: Optional[RunManifest] = None

    # ------------------------------------------------------------------ run
    def run(
        self,
        jobs: Sequence,
        stats=None,
        telemetry: Optional[TelemetryLog] = None,
    ) -> RunOutcome:
        """Execute ``jobs``; returns values keyed by job_id.

        ``stats`` (a :class:`~repro.mc.stats.PropertyStats`) receives every
        per-property CheckResult, fresh and replayed alike.  ``telemetry``
        overrides the config's ``trace_path`` log.
        """
        cfg = self.config
        own_log = telemetry is None
        log = telemetry if telemetry is not None else TelemetryLog(cfg.trace_path)
        manifest = RunManifest(workers=cfg.workers)
        cache = ProofCache(cfg.cache_dir) if cfg.cache_dir else None
        checkpoint = RunCheckpoint(cfg.run_dir) if cfg.run_dir else None
        resumed = checkpoint.open(resume=cfg.resume) if checkpoint else {}
        results_by_id: Dict[str, Any] = {}
        started = time.perf_counter()
        run_tracer = run_span_ctx = run_span = None
        if log.enabled:
            run_tracer = Tracer(sink=log.event)
            obs.activate(run_tracer)
            run_span_ctx = run_tracer.span(
                "engine.run", jobs=len(jobs), workers=cfg.workers
            )
            run_span = run_span_ctx.__enter__()
        # parent-side arming covers parent points (cache.put corruption);
        # workers re-arm the plan per job for worker/solver points
        previous_armed = None
        if cfg.fault_plan is not None:
            previous_armed = faults.activate(faults.arm(cfg.fault_plan))
        try:
            log.event(
                "run_start",
                jobs=len(jobs),
                workers=cfg.workers,
                cache_dir=cfg.cache_dir,
                max_attempts=cfg.max_attempts,
                timeout_seconds=cfg.timeout_seconds,
                run_dir=cfg.run_dir,
                resume=bool(cfg.resume),
            )
            failures: List[str] = []
            pending: List[Tuple[int, Any, Optional[str]]] = []
            for seq, job in enumerate(jobs):
                manifest.jobs_total += 1
                key = (
                    job.cache_key()
                    if (cache is not None or checkpoint is not None)
                    else None
                )
                record = resumed.get(job.job_id)
                if record is not None:
                    if record.get("key") == key:
                        self._replay_checkpoint(
                            job, record, stats, manifest, log,
                            results_by_id, failures,
                        )
                        continue
                    # the job's content changed since the checkpoint was
                    # written (netlist / config edit): the record is stale
                    log.event(
                        "resume_stale",
                        job=job.job_id,
                        key=key,
                        recorded_key=record.get("key"),
                    )
                if cache is not None and key is not None:
                    entry = cache.get(key)
                    if entry is not None:
                        self._replay_hit(
                            job, key, entry, stats, manifest, log, results_by_id
                        )
                        continue
                    manifest.cache_misses += 1
                    log.event("cache_miss", job=job.job_id, key=key)
                pending.append((seq, job, key))

            run_span_id = run_span.span_id if run_span is not None else None
            try:
                for job, key, report in self._execute_iter(pending, log, manifest):
                    self._fold_report(
                        job, key, report, cache, stats, manifest, log,
                        results_by_id, failures, run_span_id=run_span_id,
                        checkpoint=checkpoint,
                    )
            except KeyboardInterrupt:
                # a clean Ctrl-C must never leave a torn run dir: every
                # report folded so far (including ones the dispatcher
                # salvaged from already-finished workers) is synced to the
                # checkpoint before the interrupt propagates, so a later
                # --resume replays exactly the completed prefix
                manifest.interrupted = True
                log.event(
                    "run_interrupted",
                    jobs_done=len(results_by_id),
                    jobs_total=manifest.jobs_total,
                )
                if checkpoint is not None:
                    checkpoint.sync()
                raise
            if cache is not None:
                manifest.cache_quarantined = cache.quarantined_session
            manifest.wall_seconds = time.perf_counter() - started
            finish_fields: Dict[str, Any] = {"manifest": manifest.to_dict()}
            if stats is not None:
                finish_fields["stats"] = {
                    "count": stats.count,
                    "total_time": round(stats.total_time, 9),
                    "outcomes": stats.outcome_histogram,
                }
            log.event("run_finish", **finish_fields)
            self._note_run_metrics(manifest)
            if failures and not cfg.keep_going:
                raise EngineError(
                    "%d job(s) failed:\n%s" % (len(failures), "\n".join(failures))
                )
        finally:
            self.last_manifest = manifest
            if cfg.fault_plan is not None:
                faults.deactivate(previous_armed)
            if checkpoint is not None:
                checkpoint.close()
            if run_span_ctx is not None:
                run_span_ctx.__exit__(None, None, None)
                obs.deactivate(run_tracer)
            if own_log:
                log.close()
            else:
                # externally owned logs stay open, but a crashed run must
                # still leave every buffered event on disk
                log.flush()
        return RunOutcome(results=results_by_id, manifest=manifest)

    @staticmethod
    def _note_run_metrics(manifest: RunManifest) -> None:
        _ENGINE_JOBS.inc(manifest.jobs_cached, disposition="cached")
        _ENGINE_JOBS.inc(manifest.jobs_resumed, disposition="resumed")
        _ENGINE_JOBS.inc(manifest.jobs_executed, disposition="executed")
        _ENGINE_JOBS.inc(manifest.jobs_failed, disposition="failed")
        _ENGINE_JOBS.inc(manifest.jobs_quarantined, disposition="quarantined")
        _ENGINE_PROPERTIES.inc(manifest.properties_evaluated, source="fresh")
        _ENGINE_PROPERTIES.inc(manifest.properties_replayed, source="replayed")
        _ENGINE_PROPERTIES.inc(manifest.properties_resumed, source="resumed")
        _ENGINE_REBUILDS.inc(manifest.pool_rebuilds)
        _ENGINE_RSS_ABORTS.inc(manifest.rss_aborts)
        _ENGINE_RUN_SECONDS.observe(manifest.wall_seconds)

    # ------------------------------------------------------------ internals
    def _replay_hit(self, job, key, entry, stats, manifest, log, results_by_id):
        from ..mc.outcomes import CheckResult

        from ..cert import checked_certificates

        value = job.decode_value(entry["payload"])
        replayed = [CheckResult.from_dict(d) for d in entry["results"]]
        if stats is not None:
            for result in replayed:
                stats.record(result)
        manifest.jobs_cached += 1
        manifest.cache_hits += 1
        manifest.note_results(replayed, replayed=True)
        manifest.cert_checked += checked_certificates(replayed)
        # replayed verdicts ran in an earlier run, so their checker time
        # appears on no span of this trace; the profile reads it from here
        log.event(
            "cache_hit",
            job=job.job_id,
            key=key,
            properties=len(replayed),
            replayed_seconds=round(sum(r.time_seconds for r in replayed), 9),
        )
        results_by_id[job.job_id] = value

    def _replay_checkpoint(
        self, job, record, stats, manifest, log, results_by_id, failures
    ):
        """Fold one resumed checkpoint record exactly like a live report."""
        from ..mc.outcomes import CheckResult

        replayed = [CheckResult.from_dict(d) for d in record.get("results") or []]
        error = record.get("error")
        if error is None:
            decode = getattr(job, "decode_value", None)
            payload = record.get("payload")
            value = decode(payload) if decode is not None else payload
        else:
            value = None
        if stats is not None:
            for result in replayed:
                stats.record(result)
        manifest.jobs_resumed += 1
        manifest.note_results(replayed, resumed=True)
        if error is not None:
            manifest.jobs_failed += 1
            if record.get("quarantined"):
                manifest.jobs_quarantined += 1
            failures.append("%s: %s (resumed)" % (job.job_id, error))
        # like cache_hit's replayed_seconds: resumed verdicts ran before
        # this trace began, so the profile reconciles them from this event
        log.event(
            "resume_replay",
            job=job.job_id,
            key=record.get("key"),
            properties=len(replayed),
            error=error,
            replayed_seconds=round(sum(r.time_seconds for r in replayed), 9),
        )
        results_by_id[job.job_id] = value

    # ------------------------------------------------------------- dispatch
    def _worker_kwargs(self, log) -> Dict[str, Any]:
        cfg = self.config
        return dict(
            max_attempts=cfg.max_attempts,
            timeout_seconds=cfg.timeout_seconds,
            collect_spans=log.enabled,
            fault_plan=cfg.fault_plan,
            max_rss_mb=cfg.max_rss_mb,
        )

    def _execute_iter(self, pending, log, manifest):
        """Yield ``(job, key, report)`` as each pending job completes."""
        cfg = self.config
        if not pending:
            return
        for _seq, job, _key in pending:
            log.event("job_start", job=job.job_id)
        workers = min(cfg.workers, len(pending))
        if workers <= 1:
            yield from self._execute_inline(pending, log, manifest)
        else:
            yield from self._execute_pool(pending, workers, log, manifest)

    def _execute_inline(self, pending, log, manifest):
        """Serial in-process dispatch, with simulated-death resilience."""
        kwargs = self._worker_kwargs(log)
        rng = random.Random(BACKOFF_SEED)
        poison: Dict[str, int] = {}
        # same-group jobs run consecutively, so the in-process memoized
        # builders serve each group back-to-back
        queue = [
            entry for batch in _group_batches(pending, 1) for entry in batch
        ]
        while queue:
            seq, job, key = queue.pop(0)
            try:
                report = _run_job_with_retries(job, job_seq=seq, **kwargs)
            except InjectedWorkerDeath as exc:
                count = poison[job.job_id] = poison.get(job.job_id, 0) + 1
                log.event(
                    "worker_death",
                    job=job.job_id,
                    poison=count,
                    simulated=True,
                    error=str(exc),
                )
                if count > POISON_LIMIT:
                    yield job, key, self._quarantined_report(job, count)
                    continue
                manifest.pool_rebuilds += 1
                self._backoff(manifest.pool_rebuilds, rng, log)
                queue.insert(0, (seq, job, key))
                continue
            yield job, key, report

    def _execute_pool(self, pending, workers, log, manifest):
        """Pool dispatch surviving worker deaths (see module docs)."""
        kwargs = self._worker_kwargs(log)
        rng = random.Random(BACKOFF_SEED)
        poison: Dict[str, int] = {}
        remaining = list(pending)
        while remaining:
            suspects = [
                entry for entry in remaining
                if poison.get(entry[1].job_id, 0) >= POISON_LIMIT
            ]
            if suspects:
                # isolation probe: a repeatedly implicated job runs alone
                # in a fresh single-worker pool, so a death is definitive
                # (and an innocent bystander clears its name)
                entry = suspects[0]
                remaining.remove(entry)
                seq, job, key = entry
                log.event(
                    "isolation_probe", job=job.job_id, poison=poison[job.job_id]
                )
                report = None
                with ProcessPoolExecutor(max_workers=1) as pool:
                    future = pool.submit(
                        _run_job_with_retries, job, job_seq=seq, **kwargs
                    )
                    try:
                        report = future.result()
                    except (BrokenProcessPool, CancelledError):
                        pass
                if report is None:
                    deaths = poison[job.job_id] + 1
                    log.event(
                        "worker_death", job=job.job_id, poison=deaths, probe=True
                    )
                    yield job, key, self._quarantined_report(job, deaths)
                else:
                    poison.pop(job.job_id, None)
                    yield job, key, report
                continue
            lost: List[Tuple[int, Any, Optional[str]]] = []
            batches = _group_batches(remaining, workers)
            with ProcessPoolExecutor(
                max_workers=min(workers, len(batches))
            ) as pool:
                submitted = [
                    (
                        pool.submit(
                            _run_job_group,
                            [(seq, job) for seq, job, _key in batch],
                            **kwargs,
                        ),
                        batch,
                    )
                    for batch in batches
                ]
                consumed = set()
                try:
                    for index, (future, batch) in enumerate(submitted):
                        consumed.add(index)
                        try:
                            reports = future.result()
                        except (BrokenProcessPool, CancelledError):
                            # a worker died; every job of every unfinished
                            # batch is implicated (the pool cannot name the
                            # actual killer)
                            lost.extend(batch)
                            continue
                        for (seq, job, key), report in zip(batch, reports):
                            yield job, key, report
                except KeyboardInterrupt:
                    # Ctrl-C drains, not discards: batches that finished
                    # before the interrupt are salvaged and yielded (the
                    # run loop folds and checkpoints them), queued work is
                    # cancelled, and the interrupt continues unwinding
                    pool.shutdown(wait=False, cancel_futures=True)
                    for index, (future, batch) in enumerate(submitted):
                        if index in consumed or not future.done():
                            continue
                        try:
                            reports = future.result()
                        except Exception:
                            continue
                        for (seq, job, key), report in zip(batch, reports):
                            yield job, key, report
                    raise
            remaining = lost
            if lost:
                manifest.pool_rebuilds += 1
                for _seq, job, _key in lost:
                    count = poison[job.job_id] = poison.get(job.job_id, 0) + 1
                    log.event("job_lost", job=job.job_id, poison=count)
                self._backoff(manifest.pool_rebuilds, rng, log)

    @staticmethod
    def _quarantined_report(job, deaths: int) -> WorkerReport:
        return WorkerReport(
            job_id=job.job_id,
            error="quarantined: job killed its worker %d time(s)" % deaths,
            quarantined=True,
        )

    def _backoff(self, rebuilds: int, rng: random.Random, log) -> float:
        """Exponential backoff with seeded jitter before a pool rebuild."""
        cfg = self.config
        if cfg.backoff_seconds <= 0:
            log.event("pool_rebuild", rebuilds=rebuilds, backoff_seconds=0.0)
            return 0.0
        delay = min(
            cfg.backoff_seconds * (2 ** max(0, rebuilds - 1)),
            BACKOFF_MAX_SECONDS,
        )
        delay *= 0.5 + rng.random()  # jitter in [0.5x, 1.5x), seeded
        log.event(
            "pool_rebuild", rebuilds=rebuilds, backoff_seconds=round(delay, 6)
        )
        time.sleep(delay)
        return delay

    # ----------------------------------------------------------------- fold
    def _fold_report(
        self, job, key, report, cache, stats, manifest, log, results_by_id,
        failures, run_span_id=None, checkpoint=None,
    ):
        if report.spans:
            # worker (or inline collector) span events, re-rooted under the
            # run span with their original worker-side timestamps
            replay_into(report.spans, log.event, reparent=run_span_id)
        manifest.attempts += len(report.attempts)
        manifest.retries += max(0, len(report.attempts) - 1)
        manifest.timeouts += sum(1 for a in report.attempts if a.timed_out)
        manifest.rss_aborts += sum(1 for a in report.attempts if a.rss_exceeded)
        for record in report.attempts:
            log.event(
                "job_attempt",
                job=report.job_id,
                attempt=record.attempt,
                seconds=round(record.seconds, 6),
                properties=record.properties,
                undetermined=record.undetermined,
                timed_out=record.timed_out,
                rss_exceeded=record.rss_exceeded,
                error=record.error,
            )
        if report.error is not None:
            manifest.jobs_failed += 1
            if report.quarantined:
                manifest.jobs_quarantined += 1
                log.event(
                    "job_quarantined", job=report.job_id, error=report.error
                )
            log.event("job_failed", job=report.job_id, error=report.error)
            failures.append("%s: %s" % (report.job_id, report.error))
            results_by_id[job.job_id] = None
            if checkpoint is not None:
                checkpoint.record_job(
                    job.job_id, key, None, [],
                    [asdict(a) for a in report.attempts],
                    error=report.error, quarantined=report.quarantined,
                )
            return
        if stats is not None:
            for result in report.results:
                stats.record(result)
        manifest.jobs_executed += 1
        manifest.note_results(report.results, replayed=False)
        from ..cert import checked_certificates, note_uncaught

        manifest.cert_checked += checked_certificates(report.results)
        if report.cert_failures:
            # nothing re-solves a failed certificate: each one is uncaught
            manifest.cert_failures += report.cert_failures
            manifest.cert_uncaught += report.cert_failures
            note_uncaught(report.cert_failures)
            log.event(
                "job_cert_uncaught",
                job=report.job_id,
                uncaught=report.cert_failures,
            )
        histogram: Dict[str, int] = {}
        for result in report.results:
            histogram[result.outcome] = histogram.get(result.outcome, 0) + 1
        log.event(
            "job_finish",
            job=report.job_id,
            properties=len(report.results),
            verdicts=histogram,
            retries=max(0, len(report.attempts) - 1),
            seconds=round(sum(a.seconds for a in report.attempts), 6),
        )
        if checkpoint is not None:
            from .serialize import check_results_to_dicts

            encode = getattr(job, "encode_value", None)
            payload = encode(report.value) if encode else report.value
            checkpoint.record_job(
                job.job_id, key, payload,
                check_results_to_dicts(report.results),
                [asdict(a) for a in report.attempts],
            )
        if cache is not None and key is not None:
            undetermined = histogram.get(UNDETERMINED, 0)
            final = (
                undetermined == 0
                and job.value_is_final(report.value)
                # a verdict whose certificate failed must never be
                # replayed from the cache as if it were proven
                and report.cert_failures == 0
            )
            if final:
                from .serialize import check_results_to_dicts

                cache.put(
                    key,
                    job.job_id,
                    job.encode_value(report.value),
                    check_results_to_dicts(report.results),
                    final=True,
                )
                manifest.cache_stores += 1
                log.event("cache_store", job=job.job_id, key=key)
            else:
                manifest.cache_skipped_nonfinal += 1
                log.event(
                    "cache_skip_nonfinal",
                    job=job.job_id,
                    key=key,
                    undetermined=undetermined,
                )
        results_by_id[job.job_id] = report.value
