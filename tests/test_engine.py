"""Tests for the parallel verification job engine (repro.engine).

Covers the four scenarios the engine must get right:

* parallel ``synthesize_all`` is bit-identical to the serial reference;
* a warm proof cache re-checks zero properties, and the telemetry trace
  proves it (cache_hit events, no job_start events);
* the cache auto-invalidates when the netlist or the tool config changes;
* UNDETERMINED outcomes trigger the retry/escalation ladder and are never
  cached as final.

Plus a two-process pool against the serial reference for SynthLC labels
and the fuzz-corpus reach campaign, the clean-interrupt checkpoint (a
Ctrl-C mid-fold leaves a resumable run dir), the ``repro cache-info``
CLI, and unit coverage for the content hashing, JSON round-trips, and
the PropertyStats satellite fixes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace

import pytest

from repro.core import Rtl2MuPath, SynthLC
from repro.core.rtl2mupath import Rtl2MuPathConfig
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
from repro.designs.core import CoreConfig
from repro.engine import (
    EngineConfig,
    EngineError,
    JobScheduler,
    ProofCache,
    canonical_json,
    content_key,
    netlist_fingerprint,
    synthesis_jobs_for,
)
from repro.engine.cache import CACHE_FORMAT_VERSION
from repro.engine.serialize import (
    mupath_result_from_dict,
    mupath_result_to_dict,
)
from repro.engine.specs import reach_jobs_for_corpus
from repro.mc.outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult
from repro.mc.stats import PropertyStats

TINY_FAMILY = ContextFamilyConfig(
    horizon=24,
    neighbors=("DIV",),
    iuv_values=(0, 1),
    neighbor_values=(0, 1),
    include_deep=False,
)
INSTRS = ("ADD", "DIV", "LW")
CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "fuzz_corpus")


def make_tool(design=None, config=None):
    design = design or build_core()
    provider = CoreContextProvider(xlen=design.config.xlen, config=TINY_FAMILY)
    return Rtl2MuPath(design, provider, config=config)


@pytest.fixture(scope="module")
def serial():
    tool = make_tool()
    results = tool.synthesize_all(INSTRS)
    return tool, results


# ----------------------------------------------------------- parallel == serial
class TestParallelIdentical:
    def test_parallel_matches_serial_bit_for_bit(self, serial):
        serial_tool, serial_results = serial
        tool = make_tool()
        engine = JobScheduler(EngineConfig(jobs=2))
        results = tool.synthesize_all(INSTRS, engine=engine)
        assert set(results) == set(serial_results)
        for name in INSTRS:
            assert results[name] == serial_results[name], name
        # exact SS VII-B3 accounting: same property count and verdicts
        assert tool.stats.count == serial_tool.stats.count
        assert tool.stats.outcome_histogram == serial_tool.stats.outcome_histogram
        manifest = engine.last_manifest
        assert manifest.jobs_executed == len(INSTRS)
        assert manifest.reconciles(tool.stats)

    def test_inline_jobs1_matches_serial(self, serial):
        _, serial_results = serial
        tool = make_tool()
        engine = JobScheduler(EngineConfig(jobs=1))
        results = tool.synthesize_all(INSTRS, engine=engine)
        for name in INSTRS:
            assert results[name] == serial_results[name], name

    def test_reach_corpus_jobs2_matches_jobs1(self):
        jobs = reach_jobs_for_corpus(CORPUS_DIR, horizon=4, k=2)
        assert len({job.group_key() for job in jobs}) == 16
        runs = {}
        for workers in (1, 2):
            stats = PropertyStats(label="jobs%d" % workers)
            outcome = JobScheduler(EngineConfig(jobs=workers)).run(
                jobs, stats=stats
            )
            assert outcome.manifest.reconciles(stats)
            assert outcome.manifest.jobs_executed == len(jobs)
            runs[workers] = outcome, stats
        (serial, serial_stats), (pooled, pooled_stats) = runs[1], runs[2]
        for job in jobs:
            assert pooled[job.job_id] == serial[job.job_id], job.job_id
        assert pooled_stats.count == serial_stats.count
        assert pooled_stats.outcome_histogram == serial_stats.outcome_histogram


# ------------------------------------------------------------------ warm cache
class TestProofCache:
    def test_warm_cache_rechecks_zero_properties(self, serial, tmp_path):
        _, serial_results = serial
        cache_dir = str(tmp_path / "cache")

        cold_tool = make_tool()
        cold_engine = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        cold_tool.synthesize_all(INSTRS, engine=cold_engine)
        cold = cold_engine.last_manifest
        assert cold.cache_hits == 0
        assert cold.cache_stores == len(INSTRS)
        assert cold.properties_evaluated == cold_tool.stats.count

        trace = tmp_path / "warm.jsonl"
        warm_tool = make_tool()
        warm_engine = JobScheduler(
            EngineConfig(jobs=1, cache_dir=cache_dir, trace_path=str(trace))
        )
        results = warm_tool.synthesize_all(INSTRS, engine=warm_engine)
        warm = warm_engine.last_manifest

        # zero fresh model-checking work, everything replayed
        assert warm.properties_evaluated == 0
        assert warm.jobs_executed == 0
        assert warm.cache_hits == len(INSTRS)
        assert warm.properties_replayed == cold.properties_evaluated
        # replayed verdicts still fold into PropertyStats identically
        assert warm_tool.stats.count == cold_tool.stats.count
        assert warm.reconciles(warm_tool.stats)
        # and the replayed values survive the JSON round-trip exactly
        for name in INSTRS:
            assert results[name] == serial_results[name], name

        # the telemetry trace proves it: cache_hit per job, no job_start
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds.count("cache_hit") == len(INSTRS)
        assert "job_start" not in kinds
        assert "cache_miss" not in kinds
        hit_props = sum(
            e["properties"] for e in events if e["event"] == "cache_hit"
        )
        assert hit_props == warm.properties_replayed

    def test_netlist_change_invalidates(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        tool = make_tool()
        engine = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        tool.synthesize_all(["ADD"], engine=engine)
        assert engine.last_manifest.cache_stores == 1

        # same instruction, different RTL (bug-fixed core) -> cache miss
        patched = make_tool(design=build_core(CoreConfig(fixed_bugs=True)))
        engine2 = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        patched.synthesize_all(["ADD"], engine=engine2)
        assert engine2.last_manifest.cache_hits == 0
        assert engine2.last_manifest.cache_misses == 1
        assert engine2.last_manifest.jobs_executed == 1

    def test_config_change_invalidates(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        tool = make_tool()
        engine = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        tool.synthesize_all(["ADD"], engine=engine)

        retuned = make_tool(
            config=Rtl2MuPathConfig(induction_conflict_budget=12345)
        )
        engine2 = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        retuned.synthesize_all(["ADD"], engine=engine2)
        assert engine2.last_manifest.cache_hits == 0
        assert engine2.last_manifest.cache_misses == 1

    def test_job_cache_keys_differ_per_iuv(self, serial):
        tool, _ = serial
        jobs = synthesis_jobs_for(tool, INSTRS)
        keys = {job.cache_key() for job in jobs}
        assert len(keys) == len(INSTRS)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        cache.put("ab" * 32, "job", {"x": 1}, [], final=True)
        assert cache.get("ab" * 32) is not None
        with open(cache._path("ab" * 32), "w") as fh:
            fh.write("{not json")
        assert cache.get("ab" * 32) is None

    def test_put_refuses_nonfinal(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        assert cache.put("cd" * 32, "job", {}, [], final=False) is False
        assert cache.entries() == 0
        assert cache.get("cd" * 32) is None


# --------------------------------------------------------------- fake-job rigs
@dataclass(frozen=True)
class EscalatingJob:
    """Returns UNDETERMINED until ``determined_at``; records its budget."""

    job_id: str = "fake:escalate"
    attempt: int = 0
    budget: int = 100
    determined_at: int = 99

    def execute(self):
        outcome = (
            REACHABLE if self.attempt >= self.determined_at else UNDETERMINED
        )
        value = {"attempt": self.attempt, "budget": self.budget}
        return value, [CheckResult("q", outcome, "fake")]

    def escalated(self, attempt, factor):
        return replace(self, attempt=attempt, budget=self.budget * factor ** attempt)

    def cache_key(self):
        return None


@dataclass(frozen=True)
class CacheableJob:
    """Constant-outcome job with a fixed cache key."""

    job_id: str
    key: str
    outcome: str

    def execute(self):
        return "value:" + self.outcome, [CheckResult("q", self.outcome, "fake")]

    def escalated(self, attempt, factor):
        return self

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
class SleepyJob:
    job_id: str = "fake:sleepy"
    seconds: float = 5.0

    def execute(self):
        time.sleep(self.seconds)
        return "done", []

    def escalated(self, attempt, factor):
        return self

    def cache_key(self):
        return None


@dataclass(frozen=True)
class EchoJob:
    """A trivial job with one UNREACHABLE verdict, for scheduler-policy
    tests."""

    name: str
    group: str = "echo"

    @property
    def job_id(self):
        return "echo:%s" % self.name

    def group_key(self):
        return "grp:%s" % self.group

    def execute(self):
        result = CheckResult(
            query_name="q_%s" % self.name,
            outcome=UNREACHABLE,
            engine="echo",
            time_seconds=0.001,
        )
        return "value:%s" % self.name, [result]

    def escalated(self, attempt, factor):
        return self

    def cache_key(self):
        return hashlib.sha256(self.job_id.encode("utf-8")).hexdigest()

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
class CrashyJob:
    job_id: str = "fake:crashy"

    def execute(self):
        raise RuntimeError("boom")

    def escalated(self, attempt, factor):
        return self

    def cache_key(self):
        return None


# -------------------------------------------------------------- retry ladder
class TestRetryEscalation:
    def test_undetermined_escalates_until_determined(self):
        engine = JobScheduler(
            EngineConfig(jobs=1, max_attempts=4, escalation_factor=4)
        )
        stats = PropertyStats(label="t")
        outcome = engine.run([EscalatingJob(determined_at=2)], stats=stats)
        value = outcome["fake:escalate"]
        # determined on the third attempt with a 4**2-escalated budget
        assert value == {"attempt": 2, "budget": 1600}
        manifest = outcome.manifest
        assert manifest.attempts == 3
        assert manifest.retries == 2
        # only the winning attempt's verdicts fold into the stats
        assert stats.count == 1
        assert stats.outcome_histogram == {REACHABLE: 1}
        assert manifest.reconciles(stats)

    def test_exhausted_ladder_degrades_to_best_attempt(self):
        engine = JobScheduler(EngineConfig(jobs=1, max_attempts=3))
        outcome = engine.run([EscalatingJob(determined_at=99)])
        # all attempts UNDETERMINED: keep the last result, do not fail
        assert outcome["fake:escalate"]["attempt"] == 2
        assert outcome.manifest.attempts == 3
        assert outcome.manifest.jobs_executed == 1
        assert outcome.manifest.jobs_failed == 0

    def test_undetermined_never_cached(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        job = CacheableJob(job_id="u", key="11" * 32, outcome=UNDETERMINED)
        engine = JobScheduler(
            EngineConfig(jobs=1, cache_dir=cache_dir, max_attempts=1)
        )
        engine.run([job])
        assert engine.last_manifest.cache_stores == 0
        assert engine.last_manifest.cache_skipped_nonfinal == 1
        assert ProofCache(cache_dir).entries() == 0
        # a second run misses and re-executes -- no stale replay
        engine2 = JobScheduler(
            EngineConfig(jobs=1, cache_dir=cache_dir, max_attempts=1)
        )
        engine2.run([job])
        assert engine2.last_manifest.cache_misses == 1
        assert engine2.last_manifest.jobs_executed == 1

    def test_determined_job_cached_and_replayed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        job = CacheableJob(job_id="r", key="22" * 32, outcome=UNREACHABLE)
        engine = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        engine.run([job])
        assert engine.last_manifest.cache_stores == 1
        engine2 = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        outcome = engine2.run([job])
        assert engine2.last_manifest.cache_hits == 1
        assert engine2.last_manifest.jobs_executed == 0
        assert outcome["r"] == "value:" + UNREACHABLE

    def test_timeout_aborts_attempts(self):
        engine = JobScheduler(
            EngineConfig(jobs=1, max_attempts=2, timeout_seconds=0.1)
        )
        with pytest.raises(EngineError):
            engine.run([SleepyJob(seconds=5.0)])
        manifest = engine.last_manifest
        assert manifest.timeouts == 2
        assert manifest.jobs_failed == 1

    def test_keep_going_maps_failures_to_none(self):
        engine = JobScheduler(
            EngineConfig(jobs=1, max_attempts=2, keep_going=True)
        )
        outcome = engine.run(
            [CrashyJob(), CacheableJob(job_id="ok", key="33" * 32,
                                      outcome=REACHABLE)]
        )
        assert outcome["fake:crashy"] is None
        assert outcome["ok"] == "value:" + REACHABLE
        assert outcome.manifest.jobs_failed == 1
        assert outcome.manifest.jobs_executed == 1


# ------------------------------------------------------------------- SynthLC
@pytest.fixture(scope="module")
def synthlc_serial(serial):
    """DIV-as-transmitter SynthLC labels from the serial (no engine) path."""
    _, mup = serial
    design = build_core()
    provider = CoreContextProvider(
        xlen=design.config.xlen,
        config=replace(TINY_FAMILY, instrumented=True),
    )
    work = {"DIV": mup["DIV"]}
    ref_tool = SynthLC(design, provider)
    ref = ref_tool.classify(work, transmitters=["DIV"])
    return design, provider, work, ref_tool, ref


class TestSynthLCEngine:
    def test_engine_classification_matches_serial_and_caches(
        self, synthlc_serial, tmp_path
    ):
        design, provider, work, ref_tool, ref = synthlc_serial

        cache_dir = str(tmp_path / "cache")
        eng_tool = SynthLC(design, provider)
        engine = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        out = eng_tool.classify(work, transmitters=["DIV"], engine=engine)

        assert out.tags_by_decision == ref.tags_by_decision
        assert out.transmitters == ref.transmitters
        assert [s.render() for s in out.signatures] == [
            s.render() for s in ref.signatures
        ]
        assert eng_tool.stats.count == ref_tool.stats.count
        assert engine.last_manifest.reconciles(eng_tool.stats)

        # warm replay: zero fresh properties, identical classification
        warm_tool = SynthLC(design, provider)
        warm_engine = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        warm = warm_tool.classify(work, transmitters=["DIV"], engine=warm_engine)
        assert warm_engine.last_manifest.properties_evaluated == 0
        assert warm_engine.last_manifest.jobs_executed == 0
        assert warm.tags_by_decision == ref.tags_by_decision
        assert warm.transmitters == ref.transmitters

    def test_two_process_pool_matches_serial(self, synthlc_serial):
        design, provider, work, ref_tool, ref = synthlc_serial
        tool = SynthLC(design, provider)
        engine = JobScheduler(EngineConfig(jobs=2))
        out = tool.classify(work, transmitters=["DIV"], engine=engine)
        manifest = engine.last_manifest
        # more than one job, so the run really went through the pool
        assert manifest.workers == 2 and manifest.jobs_executed >= 2
        assert out.tags_by_decision == ref.tags_by_decision
        assert out.transmitters == ref.transmitters
        assert [s.render() for s in out.signatures] == [
            s.render() for s in ref.signatures
        ]
        assert tool.stats.count == ref_tool.stats.count
        assert tool.stats.outcome_histogram == ref_tool.stats.outcome_histogram
        assert manifest.reconciles(tool.stats)


# ------------------------------------------------------- interrupt checkpoint
class InterruptingStats(PropertyStats):
    """Simulates Ctrl-C landing mid-fold, after ``after`` results."""

    def __init__(self, after):
        super().__init__(label="interrupting")
        self.after = after

    def record(self, result):
        super().record(result)
        if self.count >= self.after:
            raise KeyboardInterrupt()


class TestGracefulInterrupt:
    def test_interrupt_syncs_checkpoint_and_resume_completes(self, tmp_path):
        run_dir = str(tmp_path / "run")
        jobs = [EchoJob(name="k%d" % i, group="g%d" % i) for i in range(3)]
        engine = JobScheduler(EngineConfig(jobs=1, run_dir=run_dir))
        with pytest.raises(KeyboardInterrupt):
            engine.run(jobs, stats=InterruptingStats(after=2))
        manifest = engine.last_manifest
        assert manifest.interrupted is True
        assert manifest.to_dict()["interrupted"] is True
        # the interrupted run dir is NOT torn: --resume replays the
        # completed prefix and executes only the remainder
        stats = PropertyStats(label="resumed")
        resumed = JobScheduler(
            EngineConfig(jobs=1, run_dir=run_dir, resume=True)
        )
        outcome = resumed.run(jobs, stats=stats)
        assert outcome.manifest.interrupted is False
        assert outcome.manifest.jobs_resumed >= 1
        assert (
            outcome.manifest.jobs_resumed + outcome.manifest.jobs_executed
            == len(jobs)
        )
        for job in jobs:
            assert outcome[job.job_id] == "value:" + job.name
        assert outcome.manifest.reconciles(stats)


# ----------------------------------------------------------- cache-info CLI
class TestCacheInfoCLI:
    def test_stats_and_cli_output(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        store = ProofCache(cache_dir)
        result = CheckResult(
            query_name="q", outcome=UNREACHABLE, engine="t"
        ).to_dict()
        store.put("ab" * 32, "job:a", "v", [result], final=True)
        store.put("cd" * 32, "job:b", "w", [result], final=True)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["quarantined"] == 0
        assert stats["format"] == CACHE_FORMAT_VERSION
        assert stats["entry_bytes"] > 0
        assert stats["oldest_entry"] is not None
        assert stats["newest_entry"] >= stats["oldest_entry"]

        from repro import cli

        assert cli.main(["cache-info", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "proof cache" in out and "entries" in out
        assert cli.main(["cache-info", cache_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["cache_dir"] == cache_dir
        assert cli.main(["cache-info", str(tmp_path / "missing")]) == 2
        capsys.readouterr()

    def test_stats_counts_quarantined_entries(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        store = ProofCache(cache_dir)
        result = CheckResult(
            query_name="q", outcome=UNREACHABLE, engine="t"
        ).to_dict()
        store.put("ab" * 32, "job:a", "v", [result], final=True)
        # corrupt the entry on disk; the next read quarantines it
        path = store._path("ab" * 32)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        assert store.get("ab" * 32) is None
        stats = store.stats()
        assert stats["entries"] == 0
        assert stats["quarantined"] == 1
        assert stats["quarantined_bytes"] > 0


# --------------------------------------------------------- hashing/serializing
class TestContentHashing:
    def test_netlist_fingerprint_stable_across_builds(self):
        assert netlist_fingerprint(build_core().netlist) == netlist_fingerprint(
            build_core().netlist
        )

    def test_netlist_fingerprint_sees_rtl_changes(self):
        base = netlist_fingerprint(build_core().netlist)
        fixed = netlist_fingerprint(
            build_core(CoreConfig(fixed_bugs=True)).netlist
        )
        assert base != fixed

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 2, "a": 1}) == canonical_json({"a": 1, "b": 2})
        assert canonical_json({"s": {3, 1, 2}}) == canonical_json({"s": [1, 2, 3]})

    def test_content_key_sensitivity(self):
        base = content_key(netlist="n", config={"k": 1})
        assert base == content_key(netlist="n", config={"k": 1})
        assert base != content_key(netlist="m", config={"k": 1})
        assert base != content_key(netlist="n", config={"k": 2})

    def test_mupath_result_json_roundtrip(self, serial):
        _, results = serial
        for name in INSTRS:
            payload = json.loads(json.dumps(mupath_result_to_dict(results[name])))
            assert mupath_result_from_dict(payload) == results[name], name


# --------------------------------------------------------- deadline nesting
class TestDeadlineNesting:
    """Regression tests: ``_deadline`` must restore an enclosing alarm.

    The original implementation armed SIGALRM unconditionally and
    cancelled it on exit, so an inner deadline silently disarmed an
    outer one -- an inline job with its own timeout would erase the
    enclosing run's deadline.
    """

    def test_outer_deadline_survives_inner_scope(self):
        from repro.engine.scheduler import JobTimeout, _deadline

        with pytest.raises(JobTimeout):
            with _deadline(0.3):
                with _deadline(10.0):
                    time.sleep(0.05)  # inner exits cleanly
                # the outer alarm must be re-armed with its remaining time
                time.sleep(5.0)  # the outer ~0.25s fires here

    def test_inner_timeout_leaves_outer_armed(self):
        import signal as _signal

        from repro.engine.scheduler import JobTimeout, _deadline

        with _deadline(30.0):
            with pytest.raises(JobTimeout):
                with _deadline(0.05):
                    time.sleep(5.0)
            remaining = _signal.getitimer(_signal.ITIMER_REAL)[0]
            assert 0.0 < remaining <= 30.0
        # and the outermost exit cancels the alarm entirely
        assert _signal.getitimer(_signal.ITIMER_REAL)[0] == 0.0

    def test_single_deadline_cancels_on_clean_exit(self):
        import signal as _signal

        from repro.engine.scheduler import _deadline

        with _deadline(30.0):
            pass
        assert _signal.getitimer(_signal.ITIMER_REAL)[0] == 0.0


# ------------------------------------------------------------ stats satellites
class TestPropertyStatsSatellites:
    def test_merged_label_skips_empty_sides(self):
        named = PropertyStats(label="bmc")
        assert PropertyStats().merged(named).label == "bmc"
        assert named.merged(PropertyStats()).label == "bmc"
        assert named.merged(PropertyStats(label="ind")).label == "bmc+ind"
        assert PropertyStats().merged(PropertyStats()).label == ""

    def test_to_dict_roundtrip(self):
        stats = PropertyStats(label="x")
        stats.record(
            CheckResult("q1", REACHABLE, "bmc", witness=[{"a": 1}],
                        time_seconds=0.5, detail="d")
        )
        stats.record(CheckResult("q2", UNDETERMINED, "kind"))
        back = PropertyStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert back.label == stats.label
        assert back.results == stats.results
        assert back.outcome_histogram == stats.outcome_histogram
