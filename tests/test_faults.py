"""Chaos suite: deterministic fault injection against the job engine.

The paper's campaign treats solver crashes, timeouts, and memory
exhaustion as routine operating conditions (the UNDETERMINED lattice of
SS VII exists for exactly this).  These tests *prove* the engine's
failure paths by firing seeded :class:`repro.faults.FaultPlan` campaigns
at it and asserting the recovery invariants:

* worker kills (real ``os._exit(137)`` in pool mode, simulated inline)
  are survived by pool rebuilds, and the final verdicts are identical to
  a fault-free run;
* a job that repeatedly kills its worker is quarantined as a failed
  report after an isolation probe -- innocent bystanders complete;
* corrupt proof-cache entries are quarantined (moved, never served,
  never deleted) and transparently recomputed;
* the RSS soft ceiling aborts a runaway attempt as a degraded result
  instead of letting the kernel OOM-kill the worker;
* checkpoint/resume replays completed jobs bit-identically and
  re-executes only what an interrupted run never finished -- including
  after a hard SIGKILL mid-run (tested via a real subprocess).

Every scenario asserts ``RunManifest.reconciles(stats)``: chaos must not
break the SS VII-B3 property accounting.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace

import pytest

from repro import faults
from repro.core import Rtl2MuPath
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
from repro.engine import (
    EngineConfig,
    EngineError,
    JobScheduler,
    ProofCache,
    RunCheckpoint,
)
from repro.engine.cache import CACHE_FORMAT_VERSION, entry_checksum
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    injection_point,
)
from repro.mc.outcomes import REACHABLE, UNREACHABLE, CheckResult
from repro.mc.stats import PropertyStats
from repro.obs import TraceProfile, note_property

TINY_FAMILY = ContextFamilyConfig(
    horizon=24,
    neighbors=("DIV",),
    iuv_values=(0, 1),
    neighbor_values=(0, 1),
    include_deep=False,
)
INSTRS = ("ADD", "DIV", "LW")


def make_tool():
    design = build_core()
    provider = CoreContextProvider(xlen=design.config.xlen, config=TINY_FAMILY)
    return Rtl2MuPath(design, provider)


@pytest.fixture(scope="module")
def serial():
    """Fault-free serial reference run: the verdicts chaos must reproduce."""
    tool = make_tool()
    results = tool.synthesize_all(INSTRS)
    return tool, results


# ---------------------------------------------------------------- fake jobs
@dataclass(frozen=True)
class FakeJob:
    """Minimal cacheable job that visits the ``job.execute`` point."""

    job_id: str
    key: str = None
    outcome: str = REACHABLE

    def execute(self):
        injection_point("job.execute", job=self.job_id)
        return "value:" + self.job_id, [
            CheckResult("q:" + self.job_id, self.outcome, "fake",
                        time_seconds=0.01)
        ]

    def cache_key(self):
        return self.key

    @staticmethod
    def encode_value(value):
        return value

    @staticmethod
    def decode_value(payload):
        return payload

    @staticmethod
    def value_is_final(value):
        return True


@dataclass(frozen=True)
class NotingJob(FakeJob):
    """FakeJob that accounts its property into the active span, the way
    the real pipelines' ``_record`` sites do via ``obs.note_property``."""

    job_id: str = "fake:noting"

    def execute(self):
        note_property("reachable", 0.01)
        injection_point("job.execute", job=self.job_id)
        return "value:" + self.job_id, [
            CheckResult("q:" + self.job_id, self.outcome, "fake",
                        time_seconds=0.01)
        ]


@dataclass(frozen=True)
class CrashyJob(FakeJob):
    job_id: str = "fake:crashy"

    def execute(self):
        raise RuntimeError("boom")


@dataclass(frozen=True)
class FatJob(FakeJob):
    """Allocates ballast and lingers so the RSS watcher can catch it."""

    job_id: str = "fake:fat"
    mb: int = 192

    def execute(self):
        ballast = bytearray(self.mb * 1024 * 1024)
        ballast[::4096] = b"x" * len(ballast[::4096])  # fault the pages in
        time.sleep(2.0)
        return len(ballast), []


def fake_jobs(n, keyed=False):
    return [
        FakeJob(job_id="fake:%d" % i, key=("%02d" % i) * 32 if keyed else None)
        for i in range(n)
    ]


# ------------------------------------------------------------------ plan API
class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=42,
            specs=(
                FaultSpec(kind="kill_worker", point="job.execute", at_job=1),
                FaultSpec(kind="raise", point="solver.check", at_hit=3,
                          times=2, message="chaos"),
                FaultSpec(kind="delay", point="worker.attempt", seconds=0.5),
                FaultSpec(kind="corrupt_cache", point="cache.put"),
                FaultSpec(kind="memory_spike", point="worker.attempt", mb=64),
            ),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan
        # the committed chaos artifact is plain, diffable JSON
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["seed"] == 42

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor_strike", point="job.execute")
        assert "kill_worker" in FAULT_KINDS

    def test_spec_matching(self):
        spec = FaultSpec(kind="raise", point="solver.check", job="synth:ADD",
                         at_job=2)
        assert spec.matches("solver.check", "synth:ADD", 2)
        assert not spec.matches("solver.check", "synth:ADD", 3)
        assert not spec.matches("solver.check", "synth:DIV", 2)
        assert not spec.matches("cache.put", "synth:ADD", 2)

    def test_with_state_dir(self, tmp_path):
        plan = FaultPlan(seed=1)
        relocated = plan.with_state_dir(str(tmp_path))
        assert relocated.state_dir == str(tmp_path)
        assert plan.state_dir is None  # frozen original untouched


# ----------------------------------------------------------------- injector
class TestInjector:
    def test_no_active_plan_is_noop(self):
        injection_point("job.execute", job="anything")  # must not raise

    def test_raise_fires_at_hit_then_disarms(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="raise", point="p", at_hit=2, times=1,
                      message="second visit"),
        ))
        previous = faults.activate(faults.arm(plan))
        try:
            injection_point("p")  # first visit: below at_hit
            with pytest.raises(InjectedFault, match="second visit"):
                injection_point("p")
            injection_point("p")  # times budget exhausted
        finally:
            faults.deactivate(previous)

    def test_delay_sleeps(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="delay", point="p", seconds=0.1),
        ))
        previous = faults.activate(faults.arm(plan))
        try:
            started = time.perf_counter()
            injection_point("p")
            assert time.perf_counter() - started >= 0.09
        finally:
            faults.deactivate(previous)

    def test_firing_counts_persist_across_armings(self, tmp_path):
        # the property that keeps times=1 true across the very worker
        # respawn the fault causes: a fresh arming sees prior firings
        plan = FaultPlan(state_dir=str(tmp_path), specs=(
            FaultSpec(kind="raise", point="p", times=1),
        ))
        previous = faults.activate(faults.arm(plan))
        try:
            with pytest.raises(InjectedFault):
                injection_point("p")
        finally:
            faults.deactivate(previous)
        previous = faults.activate(faults.arm(plan))  # fresh arming
        try:
            injection_point("p")  # must NOT fire again
        finally:
            faults.deactivate(previous)

    def test_memory_spike_ballast_released_on_deactivate(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="memory_spike", point="p", mb=8),
        ))
        armed = faults.arm(plan)
        previous = faults.activate(armed)
        try:
            injection_point("p")
            assert sum(len(b) for b in armed.ballast) == 8 * 1024 * 1024
        finally:
            faults.deactivate(previous)
        assert armed.ballast == []

    def test_corrupt_cache_truncates_named_file(self, tmp_path):
        victim = tmp_path / "entry.json"
        victim.write_text("x" * 100)
        plan = FaultPlan(specs=(
            FaultSpec(kind="corrupt_cache", point="cache.put"),
        ))
        previous = faults.activate(faults.arm(plan))
        try:
            injection_point("cache.put", path=str(victim))
        finally:
            faults.deactivate(previous)
        assert victim.stat().st_size == 50


# ------------------------------------------------------- retry on raise fault
class TestInjectedSolverFault:
    def test_raised_fault_is_retried_like_any_attempt_error(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="raise", point="job.execute", times=1,
                      message="transient solver crash"),
        ))
        engine = JobScheduler(
            EngineConfig(jobs=1, max_attempts=2, fault_plan=plan)
        )
        stats = PropertyStats(label="t")
        outcome = engine.run([FakeJob(job_id="fake:0")], stats=stats)
        assert outcome["fake:0"] == "value:fake:0"
        manifest = outcome.manifest
        assert manifest.retries == 1
        assert manifest.jobs_failed == 0
        assert manifest.reconciles(stats)


class TestRetryTraceReconciliation:
    """Spans from attempts whose results never reach the stats must not
    keep accounting attrs, or ``profile --check`` fails after any retry."""

    def _traced_run(self, tmp_path, plan, job, max_attempts):
        trace = tmp_path / "trace.jsonl"
        engine = JobScheduler(EngineConfig(
            jobs=1, max_attempts=max_attempts, fault_plan=plan,
            trace_path=str(trace),
        ))
        stats = PropertyStats(label="t")
        outcome = engine.run([job], stats=stats)
        assert outcome.manifest.reconciles(stats)
        profile = TraceProfile.load(str(trace))
        assert profile.ok, profile.errors
        return profile, stats

    def test_crashed_attempt_accounting_is_discarded(self, tmp_path):
        plan = FaultPlan(specs=(
            FaultSpec(kind="raise", point="job.execute", times=1,
                      message="crash after property accounting"),
        ))
        profile, stats = self._traced_run(
            tmp_path, plan, NotingJob(), max_attempts=2
        )
        assert profile.reconciles_total_time(stats.total_time)
        discarded = [
            record for record in profile.spans
            if "discarded_check_seconds" in record.attrs
        ]
        assert len(discarded) == 1
        assert discarded[0].attrs["discarded_properties"] == 1


# -------------------------------------------------------------- worker kills
class TestWorkerKills:
    def test_inline_simulated_kill_recovers(self, tmp_path):
        plan = FaultPlan(state_dir=str(tmp_path / "state"), specs=(
            FaultSpec(kind="kill_worker", point="job.execute", at_job=1,
                      times=1),
        ))
        engine = JobScheduler(
            EngineConfig(jobs=1, fault_plan=plan, backoff_seconds=0.001)
        )
        stats = PropertyStats(label="t")
        outcome = engine.run(fake_jobs(3), stats=stats)
        assert [outcome["fake:%d" % i] for i in range(3)] == [
            "value:fake:0", "value:fake:1", "value:fake:2"
        ]
        assert outcome.manifest.pool_rebuilds == 1
        assert outcome.manifest.jobs_failed == 0
        assert outcome.manifest.reconciles(stats)

    def test_pool_kill_recovers_with_identical_results(self, tmp_path):
        baseline = JobScheduler(EngineConfig(jobs=1)).run(fake_jobs(4))
        plan = FaultPlan(state_dir=str(tmp_path / "state"), specs=(
            FaultSpec(kind="kill_worker", point="job.execute", at_job=2,
                      times=1),
        ))
        engine = JobScheduler(
            EngineConfig(jobs=2, fault_plan=plan, backoff_seconds=0.001)
        )
        stats = PropertyStats(label="t")
        outcome = engine.run(fake_jobs(4), stats=stats)
        assert outcome.results == baseline.results
        assert outcome.manifest.pool_rebuilds >= 1
        assert outcome.manifest.jobs_failed == 0
        assert outcome.manifest.reconciles(stats)

    def test_repeat_killer_quarantined_keep_going(self, tmp_path):
        plan = FaultPlan(state_dir=str(tmp_path / "state"), specs=(
            FaultSpec(kind="kill_worker", point="job.execute", job="fake:1",
                      times=50),
        ))
        engine = JobScheduler(
            EngineConfig(jobs=2, fault_plan=plan, backoff_seconds=0.001,
                         keep_going=True)
        )
        stats = PropertyStats(label="t")
        outcome = engine.run(fake_jobs(4), stats=stats)
        # the killer degrades to a failed report; bystanders complete
        assert outcome["fake:1"] is None
        for i in (0, 2, 3):
            assert outcome["fake:%d" % i] == "value:fake:%d" % i
        manifest = outcome.manifest
        assert manifest.jobs_quarantined == 1
        assert manifest.jobs_failed == 1
        assert manifest.jobs_executed == 3
        assert manifest.reconciles(stats)

    def test_repeat_killer_raises_without_keep_going(self, tmp_path):
        plan = FaultPlan(state_dir=str(tmp_path / "state"), specs=(
            FaultSpec(kind="kill_worker", point="job.execute", job="fake:0",
                      times=50),
        ))
        engine = JobScheduler(
            EngineConfig(jobs=1, fault_plan=plan, backoff_seconds=0.001)
        )
        with pytest.raises(EngineError, match="quarantined"):
            engine.run(fake_jobs(2))
        assert engine.last_manifest.jobs_quarantined == 1


# ------------------------------------------------------------ RSS soft ceiling
class TestRssCeiling:
    def test_runaway_attempt_aborts_as_degraded(self):
        from repro.engine.scheduler import current_rss_mb

        rss = current_rss_mb()
        if rss is None:
            pytest.skip("RSS not readable on this platform")
        engine = JobScheduler(
            EngineConfig(jobs=1, max_attempts=1, keep_going=True,
                         max_rss_mb=rss + 64)
        )
        stats = PropertyStats(label="t")
        started = time.perf_counter()
        outcome = engine.run([FatJob(mb=192)], stats=stats)
        # aborted by the watcher, well before the 2s sleep finished
        assert time.perf_counter() - started < 1.9
        assert outcome["fake:fat"] is None
        manifest = outcome.manifest
        assert manifest.rss_aborts == 1
        assert manifest.jobs_failed == 1
        assert manifest.reconciles(stats)

    def test_guard_interrupts_a_main_thread_blocked_in_sleep(self):
        from repro.engine.scheduler import (
            MemoryBudgetExceeded,
            _rss_guard,
            current_rss_mb,
        )

        rss = current_rss_mb()
        if rss is None:
            pytest.skip("RSS not readable on this platform")
        started = time.perf_counter()
        with pytest.raises(MemoryBudgetExceeded):
            # over the ceiling from the start: the first sample trips it
            with _rss_guard(rss / 2, []):
                time.sleep(2.0)
        assert time.perf_counter() - started < 1.0

    def test_memory_spike_fault_trips_the_ceiling(self):
        from repro.engine.scheduler import current_rss_mb

        rss = current_rss_mb()
        if rss is None:
            pytest.skip("RSS not readable on this platform")
        # the spike fires inside execute() (the job.execute point), i.e.
        # under the attempt's RSS guard, and lingers long enough for the
        # 20ms-period watcher to sample it
        plan = FaultPlan(specs=(
            FaultSpec(kind="memory_spike", point="job.execute", mb=192,
                      seconds=2.0),
        ))
        engine = JobScheduler(
            EngineConfig(jobs=1, max_attempts=1, keep_going=True,
                         max_rss_mb=rss + 64, fault_plan=plan)
        )
        outcome = engine.run([FakeJob(job_id="fake:0")])
        assert outcome.manifest.rss_aborts == 1

    def test_under_ceiling_runs_normally(self):
        engine = JobScheduler(
            EngineConfig(jobs=1, max_rss_mb=1024 * 1024)  # 1 TB: never trips
        )
        outcome = engine.run(fake_jobs(2))
        assert outcome.manifest.rss_aborts == 0
        assert outcome.manifest.jobs_executed == 2


# ------------------------------------------------------------ cache hardening
class TestCacheHardening:
    KEY = "ab" * 32

    def _seeded(self, tmp_path):
        cache = ProofCache(str(tmp_path / "cache"))
        cache.put(self.KEY, "job", {"x": 1},
                  [CheckResult("q", UNREACHABLE, "fake").to_dict()])
        return cache

    def test_entries_carry_checksums(self, tmp_path):
        cache = self._seeded(tmp_path)
        with open(cache._path(self.KEY), "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        assert entry["format"] == CACHE_FORMAT_VERSION
        assert entry["checksum"] == entry_checksum(entry)
        assert cache.get(self.KEY) is not None

    def test_truncated_entry_quarantined_not_served(self, tmp_path):
        cache = self._seeded(tmp_path)
        path = cache._path(self.KEY)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        assert cache.get(self.KEY) is None
        assert not os.path.exists(path)  # moved, not deleted in place
        assert cache.quarantined() == 1
        assert cache.quarantined_session == 1
        assert cache.entries() == 0  # quarantine/ is not entries
        assert self.KEY not in cache

    def test_bitflip_checksum_mismatch_quarantined(self, tmp_path):
        cache = self._seeded(tmp_path)
        path = cache._path(self.KEY)
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["payload"] = {"x": 2}  # valid JSON, silently altered payload
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert cache.get(self.KEY) is None
        assert cache.quarantined() == 1

    def test_stale_format_is_miss_not_quarantine(self, tmp_path):
        cache = self._seeded(tmp_path)
        path = cache._path(self.KEY)
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["format"] = CACHE_FORMAT_VERSION - 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert cache.get(self.KEY) is None
        assert os.path.exists(path)  # left in place for the next put
        assert cache.quarantined() == 0

    def test_contains_is_existence_only(self, tmp_path, monkeypatch):
        cache = self._seeded(tmp_path)
        # the satellite fix: __contains__ must not re-read + re-parse
        import repro.engine.cache as cache_mod

        def _fail(*a, **k):
            raise AssertionError("__contains__ parsed the entry")

        monkeypatch.setattr(cache_mod.json, "load", _fail)
        assert self.KEY in cache
        assert ("cd" * 32) not in cache

    def test_quarantine_name_collisions_get_suffixes(self, tmp_path):
        cache = self._seeded(tmp_path)
        for _ in range(3):
            path = cache._path(self.KEY)
            with open(path, "w") as handle:
                handle.write("{broken")
            assert cache.get(self.KEY) is None
            cache.put(self.KEY, "job", {"x": 1}, [])
        assert cache.quarantined() == 3
        assert cache.entries() == 1

    def test_engine_recovers_from_fault_corrupted_entry(self, tmp_path):
        # a corrupt_cache fault damages the entry as it lands; the next
        # run quarantines it, recomputes, and re-stores -- no stale replay
        cache_dir = str(tmp_path / "cache")
        plan = FaultPlan(state_dir=str(tmp_path / "state"), specs=(
            FaultSpec(kind="corrupt_cache", point="cache.put", times=1),
        ))
        job = FakeJob(job_id="fake:0", key="55" * 32)
        cold = JobScheduler(
            EngineConfig(jobs=1, cache_dir=cache_dir, fault_plan=plan)
        )
        cold.run([job])
        assert cold.last_manifest.cache_stores == 1

        warm = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        stats = PropertyStats(label="warm")
        outcome = warm.run([job], stats=stats)
        manifest = outcome.manifest
        assert manifest.cache_hits == 0
        assert manifest.cache_quarantined == 1
        assert manifest.jobs_executed == 1
        assert manifest.cache_stores == 1
        assert outcome["fake:0"] == "value:fake:0"
        assert manifest.reconciles(stats)

        # third run: the rewritten entry replays cleanly
        third = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        assert third.run([job]).manifest.cache_hits == 1


# ---------------------------------------------------------- checkpoint/resume
class TestCheckpointResume:
    def test_checkpoint_written_and_resumed_bit_identically(self, tmp_path):
        run_dir = str(tmp_path / "run")
        jobs = fake_jobs(3, keyed=True)
        stats = PropertyStats(label="cold")
        cold = JobScheduler(EngineConfig(jobs=1, run_dir=run_dir))
        outcome = cold.run(jobs, stats=stats)
        assert os.path.isfile(os.path.join(run_dir, "checkpoint.jsonl"))
        assert RunCheckpoint.load_records(run_dir).keys() == {
            j.job_id for j in jobs
        }

        stats2 = PropertyStats(label="resume")
        resumed = JobScheduler(
            EngineConfig(jobs=1, run_dir=run_dir, resume=True)
        )
        outcome2 = resumed.run(jobs, stats=stats2)
        assert outcome2.results == outcome.results
        manifest = outcome2.manifest
        assert manifest.jobs_resumed == 3
        assert manifest.jobs_executed == 0
        assert manifest.properties_resumed == stats2.count
        assert manifest.reconciles(stats2)
        # resumed accounting matches the original run exactly
        assert stats2.count == stats.count
        assert stats2.outcome_histogram == stats.outcome_histogram

    def test_resume_executes_only_missing_jobs(self, tmp_path):
        run_dir = str(tmp_path / "run")
        jobs = fake_jobs(4, keyed=True)
        JobScheduler(EngineConfig(jobs=1, run_dir=run_dir)).run(jobs[:2])

        resumed = JobScheduler(
            EngineConfig(jobs=1, run_dir=run_dir, resume=True)
        )
        outcome = resumed.run(jobs)
        assert outcome.manifest.jobs_resumed == 2
        assert outcome.manifest.jobs_executed == 2
        assert len(outcome.results) == 4

    def test_stale_checkpoint_key_reexecutes(self, tmp_path):
        run_dir = str(tmp_path / "run")
        job = FakeJob(job_id="fake:0", key="11" * 32)
        JobScheduler(EngineConfig(jobs=1, run_dir=run_dir)).run([job])

        changed = replace(job, key="22" * 32)  # content changed since
        resumed = JobScheduler(
            EngineConfig(jobs=1, run_dir=run_dir, resume=True)
        )
        outcome = resumed.run([changed])
        assert outcome.manifest.jobs_resumed == 0
        assert outcome.manifest.jobs_executed == 1

    def test_failed_jobs_checkpoint_and_resume_as_failures(self, tmp_path):
        run_dir = str(tmp_path / "run")
        jobs = [CrashyJob(), FakeJob(job_id="fake:ok", key="33" * 32)]
        cold = JobScheduler(
            EngineConfig(jobs=1, run_dir=run_dir, max_attempts=1,
                         keep_going=True)
        )
        cold.run(jobs)

        resumed = JobScheduler(
            EngineConfig(jobs=1, run_dir=run_dir, resume=True,
                         keep_going=True)
        )
        outcome = resumed.run(jobs)
        assert outcome.manifest.jobs_resumed == 2
        assert outcome.manifest.jobs_executed == 0
        assert outcome.manifest.jobs_failed == 1
        assert outcome["fake:crashy"] is None
        assert outcome["fake:ok"] == "value:fake:ok"

    def test_torn_tail_tolerated(self, tmp_path):
        run_dir = str(tmp_path / "run")
        jobs = fake_jobs(2, keyed=True)
        JobScheduler(EngineConfig(jobs=1, run_dir=run_dir)).run(jobs)
        path = os.path.join(run_dir, "checkpoint.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "job", "job_id": "fake:torn", "ke')
        records = RunCheckpoint.load_records(run_dir)
        assert set(records) == {"fake:0", "fake:1"}
        # resume rewrites the file from valid records, dropping the tear
        resumed = JobScheduler(
            EngineConfig(jobs=1, run_dir=run_dir, resume=True)
        )
        assert resumed.run(jobs).manifest.jobs_resumed == 2
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)  # every line parses now

    def test_hard_kill_mid_run_then_resume(self, tmp_path):
        """SIGKILL a real checkpointing run, then resume it to completion."""
        run_dir = str(tmp_path / "run")
        driver = tmp_path / "driver.py"
        driver.write_text(DRIVER_SCRIPT)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, str(driver), run_dir], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # wait until at least one job record is durably checkpointed
            path = os.path.join(run_dir, "checkpoint.jsonl")
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if RunCheckpoint.load_records(run_dir):
                    break
                if proc.poll() is not None:
                    pytest.fail("driver exited before it could be killed")
                time.sleep(0.02)
            else:
                pytest.fail("no checkpoint record appeared within 30s")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        survivors = RunCheckpoint.load_records(run_dir)
        assert survivors  # the kill landed after >=1 durable record

        jobs = [DriverJob(job_id="drv:%d" % i, key=("%02d" % i) * 32)
                for i in range(4)]
        stats = PropertyStats(label="resume")
        resumed = JobScheduler(
            EngineConfig(jobs=1, run_dir=run_dir, resume=True)
        )
        outcome = resumed.run(jobs, stats=stats)
        manifest = outcome.manifest
        assert manifest.jobs_resumed >= 1
        assert manifest.jobs_resumed + manifest.jobs_executed == 4
        assert outcome.results == {
            "drv:%d" % i: "value:drv:%d" % i for i in range(4)
        }
        assert manifest.reconciles(stats)


@dataclass(frozen=True)
class DriverJob(FakeJob):
    """The in-process twin of the subprocess driver's job (same ids/keys)."""

    def execute(self):
        return "value:" + self.job_id, [
            CheckResult("q:" + self.job_id, REACHABLE, "fake",
                        time_seconds=0.01)
        ]


DRIVER_SCRIPT = """\
import sys
from dataclasses import dataclass
import time

from repro.engine import EngineConfig, JobScheduler
from repro.mc.outcomes import REACHABLE, CheckResult


@dataclass(frozen=True)
class DriverJob:
    job_id: str
    key: str

    def execute(self):
        if self.job_id == "drv:3":
            time.sleep(60.0)  # parked: guarantees the kill lands mid-run
        return "value:" + self.job_id, [
            CheckResult("q:" + self.job_id, REACHABLE, "fake",
                        time_seconds=0.01)
        ]

    def cache_key(self):
        return self.key

    @staticmethod
    def encode_value(value):
        return value

    @staticmethod
    def decode_value(payload):
        return payload

    @staticmethod
    def value_is_final(value):
        return True


jobs = [DriverJob(job_id="drv:%d" % i, key=("%02d" % i) * 32)
        for i in range(4)]
engine = JobScheduler(
    EngineConfig(jobs=1, run_dir=sys.argv[1])
)
engine.run(jobs)
"""


# ----------------------------------------------------- acceptance: full chaos
class TestAcceptanceChaos:
    def test_seeded_campaign_matches_fault_free_run(self, serial, tmp_path):
        """The ISSUE's acceptance bar: >=2 worker kills + >=2 corrupted
        cache entries mid-run; synth-all completes with verdicts identical
        to a fault-free run, and the accounting reconciles."""
        serial_tool, serial_results = serial
        cache_dir = str(tmp_path / "cache")
        plan = FaultPlan(
            seed=2026,
            state_dir=str(tmp_path / "fault-state"),
            specs=(
                FaultSpec(kind="kill_worker", point="job.execute",
                          at_job=0, times=1),
                FaultSpec(kind="kill_worker", point="job.execute",
                          at_job=1, times=1),
                FaultSpec(kind="raise", point="solver.check", at_hit=5,
                          times=1, message="injected solver crash"),
                FaultSpec(kind="corrupt_cache", point="cache.put", times=2),
            ),
        )
        tool = make_tool()
        engine = JobScheduler(
            EngineConfig(jobs=2, cache_dir=cache_dir, fault_plan=plan,
                         backoff_seconds=0.001)
        )
        results = tool.synthesize_all(list(INSTRS), engine=engine)
        for name in INSTRS:
            assert results[name] == serial_results[name], name
        manifest = engine.last_manifest
        assert manifest.pool_rebuilds >= 1  # >=2 kills were absorbed
        assert manifest.jobs_failed == 0
        assert manifest.cache_stores == len(INSTRS)
        assert manifest.reconciles(tool.stats)
        assert tool.stats.count == serial_tool.stats.count
        assert tool.stats.outcome_histogram == serial_tool.stats.outcome_histogram

        # warm run: the two fault-corrupted entries are quarantined and
        # recomputed; verdicts still identical to the fault-free run
        warm_tool = make_tool()
        warm = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        warm_results = warm_tool.synthesize_all(list(INSTRS), engine=warm)
        for name in INSTRS:
            assert warm_results[name] == serial_results[name], name
        wm = warm.last_manifest
        assert wm.cache_quarantined == 2
        assert wm.jobs_executed == 2
        assert wm.cache_hits == 1
        assert wm.reconciles(warm_tool.stats)
        assert ProofCache(cache_dir).quarantined() == 2

    def test_faulted_run_checkpoint_resumes_to_zero_work(self, tmp_path):
        run_dir = str(tmp_path / "run")
        plan = FaultPlan(
            seed=7,
            state_dir=str(tmp_path / "fault-state"),
            specs=(
                FaultSpec(kind="kill_worker", point="job.execute",
                          at_job=1, times=1),
            ),
        )
        tool = make_tool()
        engine = JobScheduler(
            EngineConfig(jobs=2, run_dir=run_dir, fault_plan=plan,
                         backoff_seconds=0.001)
        )
        results = tool.synthesize_all(["ADD", "DIV"], engine=engine)
        assert engine.last_manifest.pool_rebuilds >= 1

        resumed_tool = make_tool()
        resumed = JobScheduler(
            EngineConfig(jobs=2, run_dir=run_dir, resume=True)
        )
        resumed_results = resumed_tool.synthesize_all(
            ["ADD", "DIV"], engine=resumed
        )
        manifest = resumed.last_manifest
        assert manifest.jobs_resumed == 2
        assert manifest.jobs_executed == 0
        assert manifest.reconciles(resumed_tool.stats)
        for name in ("ADD", "DIV"):
            assert resumed_results[name] == results[name], name
