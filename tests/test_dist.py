"""Localhost integration suite for the distributed campaign runner.

The contract under test: a broker plus worker nodes on localhost is an
*implementation detail* -- every campaign must produce the same values,
property verdicts, and reconciling manifests as the in-process
scheduler, including across mid-campaign worker death.  Covers:

* wire protocol round-trips (jobs rebuild ``==``-equal with identical
  ``cache_key()``; reports fold byte-identically) and protocol fuzz
  (garbage frames get an ``error`` reply, never a broker crash);
* verdict parity: a reach campaign and a core μPATH synthesis /
  SynthLC classification over a broker + two nodes vs ``--jobs 2``;
* node fault policy: an injected worker death resharding the group and
  quarantining the node; a poisonous job degrading to a quarantined
  verdict; a real SIGKILL of a ``repro worker`` subprocess mid-campaign;
* backpressure: the inflight bound, parked submits releasing when
  capacity appears, and shed submits raising :class:`BrokerShed`;
* the shared proof cache: write-behind durability across a broker
  restart (checksums intact, warm replay re-checks zero properties)
  and rejection of corrupt puts;
* the scheduler's clean-interrupt checkpoint (a Ctrl-C mid-fold leaves
  a resumable run dir) and the ``repro cache-info`` CLI.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core import Rtl2MuPath, SynthLC
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
from repro.dist import (
    Broker,
    BrokerClient,
    BrokerConfig,
    BrokerShed,
    CacheOnlyScheduler,
    DistScheduler,
    RemoteProofCache,
    WorkerNode,
)
from repro.dist.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    decode_job,
    encode_frame,
    encode_job,
    register_job_type,
    report_from_wire,
    report_to_wire,
    worker_options,
)
from repro.dist.scheduler import parse_broker_address
from repro.engine import EngineConfig, JobScheduler, ProofCache
from repro.engine.cache import CACHE_FORMAT_VERSION, entry_checksum
from repro.engine.scheduler import AttemptRecord, WorkerReport
from repro.engine.specs import reach_jobs_for_corpus
from repro.faults import FaultPlan, FaultSpec
from repro.mc.outcomes import REACHABLE, UNREACHABLE, CheckResult
from repro.mc.stats import PropertyStats

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "fuzz_corpus")

TINY_FAMILY = ContextFamilyConfig(
    horizon=24,
    neighbors=("DIV",),
    iuv_values=(0, 1),
    neighbor_values=(0, 1),
    include_deep=False,
)
INSTRS = ("ADD", "DIV")


# ------------------------------------------------------------------ helpers
def wait_for(predicate, timeout=30.0, interval=0.005, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("timed out waiting for %s" % message)


class BrokerHarness:
    """A live broker on an ephemeral port, served from a daemon thread."""

    def __init__(self, **overrides):
        overrides.setdefault("host", "127.0.0.1")
        overrides.setdefault("port", 0)
        overrides.setdefault("heartbeat_seconds", 0.5)
        self.broker = Broker(BrokerConfig(**overrides))
        self.loop = None
        self.port = None
        self._ready = threading.Event()
        self._stop = None
        self._thread = None

    def start(self):
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        assert self._ready.wait(15), "broker failed to start"
        return self

    def _serve(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self._stop = asyncio.Event()

        async def main():
            await self.broker.start()
            self.port = self.broker.port
            self._ready.set()
            await self._stop.wait()
            await self.broker.stop()

        try:
            self.loop.run_until_complete(main())
        finally:
            self.loop.close()

    def stop(self):
        if self._thread is None or not self._thread.is_alive():
            return
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(90)
        assert not self._thread.is_alive(), "broker thread failed to stop"

    def stats(self):
        async def _snap():
            return self.broker.stats_dict()

        return asyncio.run_coroutine_threadsafe(_snap(), self.loop).result(15)

    def counts(self):
        return self.stats()["counts"]

    def address(self):
        return "127.0.0.1:%d" % self.port

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()


class WorkerHarness:
    """An inline-mode worker node served from a daemon thread."""

    def __init__(self, port, node_id, slots=1, fault_plan=None):
        self.node = WorkerNode(
            "127.0.0.1",
            port,
            slots=slots,
            mode="inline",
            fault_plan=fault_plan,
            node_id=node_id,
            heartbeat_seconds=0.1,
        )
        self._thread = None

    def start(self):
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.node.run()), daemon=True
        )
        self._thread.start()
        return self

    def join(self, timeout=30.0):
        if self._thread is not None:
            self._thread.join(timeout)


@register_job_type
@dataclasses.dataclass(frozen=True)
class EchoJob:
    """A trivial wire-transportable job for broker-policy tests."""

    name: str
    group: str = "echo"
    seconds: float = 0.0
    outcome: str = UNREACHABLE

    @property
    def job_id(self):
        return "echo:%s" % self.name

    def group_key(self):
        return "grp:%s" % self.group

    def execute(self):
        from repro.faults import injection_point

        injection_point("job.execute", job=self.job_id)
        if self.seconds:
            time.sleep(self.seconds)
        result = CheckResult(
            query_name="q_%s" % self.name,
            outcome=self.outcome,
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


@register_job_type
@dataclasses.dataclass(frozen=True)
class GnarlyJob:
    """Nested tuples and a frozenset: the shapes JSON silently mangles."""

    pairs: tuple = (("a", (1, 2)), ("b", (3,)))
    names: frozenset = frozenset({"x", "y"})

    @property
    def job_id(self):
        return "gnarly"

    def cache_key(self):
        return hashlib.sha256(repr(self.pairs).encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class UnregisteredJob:
    name: str = "nope"

    @property
    def job_id(self):
        return "unregistered"


# ------------------------------------------------------------------ fixtures
@pytest.fixture(scope="module")
def corpus_jobs():
    """Reach jobs for the first four corpus designs (four shard groups)."""
    all_jobs = reach_jobs_for_corpus(CORPUS_DIR, horizon=4, k=2)
    by_group = {}
    for job in all_jobs:
        by_group.setdefault(job.group_key(), []).append(job)
    jobs, kept = [], 0
    for group_jobs in by_group.values():
        jobs.extend(group_jobs)
        kept += 1
        if kept >= 4 and len(jobs) >= 10:
            break
    assert kept >= 4 and len(jobs) >= 10, "fuzz corpus too small"
    return jobs


@pytest.fixture(scope="module")
def reach_serial(corpus_jobs):
    """The in-process reference run every distributed variant must match."""
    stats = PropertyStats(label="serial")
    outcome = JobScheduler(EngineConfig(jobs=1)).run(corpus_jobs, stats=stats)
    return outcome, stats


@pytest.fixture(scope="module")
def core_synth():
    """μPATHs for ADD/DIV on the xlen-4 core via the in-process engine."""
    design = build_core()
    provider = CoreContextProvider(xlen=design.config.xlen, config=TINY_FAMILY)
    tool = Rtl2MuPath(design, provider)
    engine = JobScheduler(EngineConfig(jobs=2))
    results = tool.synthesize_all(INSTRS, engine=engine)
    return tool, results


# ------------------------------------------------------------------ protocol
class TestProtocol:
    def test_frame_round_trip(self):
        message = {"type": "hello", "role": "client", "n": 3}
        assert decode_frame(encode_frame(message)) == message

    def test_malformed_frames_raise_protocol_error(self):
        for raw in (
            b"",
            b"not json\n",
            b"[1, 2]\n",
            b'"just a string"\n',
            b"{\"no\": \"type\"}\n",
            b"{\"type\": 3}\n",
            b"\xff\xfe\n",
        ):
            with pytest.raises(ProtocolError):
                decode_frame(raw)

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_unencodable_frame_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame({"type": "x", "bad": object()})

    def test_reach_job_round_trip_preserves_cache_key(self, corpus_jobs):
        for job in corpus_jobs[:3]:
            wire = json.loads(json.dumps(encode_job(job)))
            rebuilt = decode_job(wire)
            assert rebuilt == job
            assert rebuilt.cache_key() == job.cache_key()
            assert wire["group"] == job.group_key()

    def test_nested_tuples_and_frozensets_survive_the_wire(self):
        job = GnarlyJob()
        rebuilt = decode_job(json.loads(json.dumps(encode_job(job))))
        assert rebuilt == job
        assert isinstance(rebuilt.pairs, tuple)
        assert isinstance(rebuilt.pairs[0][1], tuple)
        assert isinstance(rebuilt.names, frozenset)
        assert rebuilt.cache_key() == job.cache_key()
        # no group_key() on this spec: the broker gets a per-job group
        assert encode_job(job)["group"] == "job:gnarly"

    def test_unregistered_job_type_rejected_both_ways(self):
        with pytest.raises(ProtocolError):
            encode_job(UnregisteredJob())
        with pytest.raises(ProtocolError):
            decode_job({"job_id": "x", "spec": {"kind": "Nope", "fields": {}}})

    def test_job_id_cross_checked_against_rebuilt_spec(self):
        wire = encode_job(EchoJob(name="a"))
        wire["job_id"] = "echo:tampered"
        with pytest.raises(ProtocolError):
            decode_job(wire)

    def test_report_round_trip(self):
        job = EchoJob(name="rt")
        result = CheckResult(
            query_name="q",
            outcome=REACHABLE,
            engine="bmc",
            time_seconds=0.5,
            detail="found at depth 3",
            depth=3,
        )
        report = WorkerReport(
            job_id=job.job_id,
            value="value:rt",
            results=[result],
            attempts=[AttemptRecord(attempt=0, seconds=0.5, properties=1)],
            spans=[("span_start", {"name": "job.attempt"})],
        )
        wire = json.loads(json.dumps(report_to_wire(report, job)))
        back = report_from_wire(wire, job)
        assert back.job_id == report.job_id
        assert back.value == report.value
        assert back.error is None and back.quarantined is False
        assert [r.to_dict() for r in back.results] == [result.to_dict()]
        assert back.attempts == report.attempts
        assert back.spans == [("span_start", {"name": "job.attempt"})]

    def test_worker_options_whitelist_drops_fault_plans(self):
        kwargs = {
            "max_attempts": 2,
            "timeout_seconds": 1.5,
            "escalation_factor": 4,
            "collect_spans": True,
            "max_rss_mb": None,
            "fault_plan": FaultPlan(seed=1),
            "log": object(),
        }
        options = worker_options(kwargs)
        assert options == {
            "max_attempts": 2,
            "timeout_seconds": 1.5,
            "escalation_factor": 4,
            "collect_spans": True,
            "max_rss_mb": None,
        }

    def test_parse_broker_address(self):
        assert parse_broker_address("10.0.0.1:7340") == ("10.0.0.1", 7340)
        assert parse_broker_address("7340") == ("127.0.0.1", 7340)
        with pytest.raises(ValueError):
            parse_broker_address("nope")


class TestProtocolFuzz:
    def test_garbage_peers_never_kill_the_broker(self):
        rng = random.Random(0xD157)
        payloads = [
            bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
            for _ in range(8)
        ]
        payloads += [
            b"[1,2,3]",
            b"\"string\"",
            b"{\"no\":\"type\"}",
            b"{\"type\":\"hello\",\"role\":\"client\",\"version\":999}",
            b"{\"type\":\"hello\",\"role\":\"alien\",\"version\":%d}"
            % PROTOCOL_VERSION,
            b"{\"type\":\"submit\"}",
        ]
        with BrokerHarness() as harness:
            for payload in payloads:
                sock = socket.create_connection(
                    ("127.0.0.1", harness.port), timeout=5
                )
                try:
                    sock.settimeout(5)
                    sock.sendall(payload.replace(b"\n", b" ") + b"\n")
                    try:
                        sock.recv(65536)  # error frame or EOF; either is fine
                    except socket.timeout:
                        pass
                finally:
                    sock.close()
            # a malformed frame on a *registered* client connection too
            sock = socket.create_connection(
                ("127.0.0.1", harness.port), timeout=5
            )
            try:
                sock.sendall(
                    b"{\"type\":\"hello\",\"role\":\"client\",\"version\":%d}\n"
                    % PROTOCOL_VERSION
                )
                sock.recv(65536)
                sock.sendall(b"<<<garbage>>>\n")
                sock.recv(65536)
            finally:
                sock.close()
            # the broker is still serving real traffic afterwards
            with BrokerClient("127.0.0.1", harness.port) as client:
                assert client.stats()["counts"]["submitted"] == 0


# -------------------------------------------------------------------- parity
class TestDistParity:
    def test_reach_campaign_two_nodes_matches_serial(
        self, corpus_jobs, reach_serial
    ):
        serial_outcome, serial_stats = reach_serial
        with BrokerHarness() as harness:
            WorkerHarness(harness.port, "n1").start()
            WorkerHarness(harness.port, "n2").start()
            wait_for(
                lambda: len(harness.stats()["nodes"]) == 2,
                message="both nodes registered",
            )
            stats = PropertyStats(label="dist")
            engine = DistScheduler(
                EngineConfig(jobs=2), broker=harness.address()
            )
            try:
                outcome = engine.run(corpus_jobs, stats=stats)
            finally:
                engine.close()
            snapshot = harness.stats()
        for job in corpus_jobs:
            assert outcome[job.job_id] == serial_outcome[job.job_id], job.job_id
        assert stats.count == serial_stats.count
        assert stats.outcome_histogram == serial_stats.outcome_histogram
        assert outcome.manifest.reconciles(stats)
        assert outcome.manifest.jobs_executed == len(corpus_jobs)
        # both nodes really did work, and every group was sticky-sharded
        nodes = snapshot["nodes"]
        assert len(nodes) == 2
        assert all(node["completed"] > 0 for node in nodes.values())
        groups = {job.group_key() for job in corpus_jobs}
        assert set(snapshot["shards"]) == groups
        assert set(snapshot["shards"].values()) <= set(nodes)
        assert snapshot["counts"]["completed"] == len(corpus_jobs)
        assert snapshot["counts"]["requeued"] == 0

    def test_synthesize_all_matches_jobs2(self, core_synth):
        ref_tool, ref = core_synth
        design = build_core()
        provider = CoreContextProvider(
            xlen=design.config.xlen, config=TINY_FAMILY
        )
        tool = Rtl2MuPath(design, provider)
        with BrokerHarness() as harness:
            WorkerHarness(harness.port, "s1").start()
            WorkerHarness(harness.port, "s2").start()
            wait_for(
                lambda: len(harness.stats()["nodes"]) == 2,
                message="both nodes registered",
            )
            engine = DistScheduler(
                EngineConfig(jobs=2), broker=harness.address()
            )
            try:
                results = tool.synthesize_all(INSTRS, engine=engine)
            finally:
                engine.close()
        assert set(results) == set(ref)
        for name in INSTRS:
            assert results[name] == ref[name], name
        assert tool.stats.count == ref_tool.stats.count
        assert tool.stats.outcome_histogram == ref_tool.stats.outcome_histogram
        assert engine.last_manifest.reconciles(tool.stats)

    def test_synthlc_labels_match(self, core_synth):
        _, mup = core_synth
        design = build_core()
        provider = CoreContextProvider(
            xlen=design.config.xlen,
            config=replace(TINY_FAMILY, instrumented=True),
        )
        work = {"DIV": mup["DIV"]}
        ref = SynthLC(design, provider).classify(work, transmitters=["DIV"])
        with BrokerHarness() as harness:
            WorkerHarness(harness.port, "lc1").start()
            WorkerHarness(harness.port, "lc2").start()
            wait_for(
                lambda: len(harness.stats()["nodes"]) == 2,
                message="both nodes registered",
            )
            engine = DistScheduler(
                EngineConfig(jobs=2), broker=harness.address()
            )
            try:
                out = SynthLC(design, provider).classify(
                    work, transmitters=["DIV"], engine=engine
                )
            finally:
                engine.close()
        assert out.tags_by_decision == ref.tags_by_decision
        assert out.transmitters == ref.transmitters
        assert [s.render() for s in out.signatures] == [
            s.render() for s in ref.signatures
        ]


# -------------------------------------------------------------- fault policy
class TestNodeFaultPolicy:
    def test_node_crash_reshards_group_and_quarantines_node(self, tmp_path):
        # "bad" kills its first job at worker.job_start; the broker must
        # quarantine it and re-shard the implicated job onto "good"
        plan = FaultPlan(
            state_dir=str(tmp_path),
            specs=(
                FaultSpec(
                    kind="kill_worker",
                    point="worker.job_start",
                    job="echo:q0",
                    times=1,
                ),
            ),
        )
        jobs = [
            EchoJob(name="q%d" % i, group="g%d" % (i % 2)) for i in range(4)
        ]
        with BrokerHarness(node_poison_limit=1, pipeline_depth=1) as harness:
            WorkerHarness(harness.port, "bad", fault_plan=plan).start()
            WorkerHarness(harness.port, "good").start()
            wait_for(
                lambda: len(harness.stats()["nodes"]) == 2,
                message="both nodes registered",
            )
            stats = PropertyStats(label="chaos")
            engine = DistScheduler(
                EngineConfig(jobs=2), broker=harness.address()
            )
            try:
                outcome = engine.run(jobs, stats=stats)
            finally:
                engine.close()
            snapshot = harness.stats()
        for job in jobs:
            assert outcome[job.job_id] == "value:" + job.name
        assert outcome.manifest.reconciles(stats)
        counts = snapshot["counts"]
        assert counts["quarantined_nodes"] == 1
        assert counts["requeued"] >= 1
        assert counts["quarantined_jobs"] == 0
        assert snapshot["nodes"]["bad"]["quarantined"] is True
        assert snapshot["nodes"]["good"]["quarantined"] is False
        # every shard now points at the surviving node
        assert set(snapshot["shards"].values()) == {"good"}

    def test_poisonous_job_degrades_to_quarantined_verdict(self, tmp_path):
        # the only node kills this job on every dispatch: after
        # job_poison_limit implications the *job* is quarantined while
        # the node (and the rest of the campaign) keeps going
        plan = FaultPlan(
            state_dir=str(tmp_path),
            specs=(
                FaultSpec(
                    kind="kill_worker",
                    point="worker.job_start",
                    job="echo:victim",
                    times=5,
                ),
            ),
        )
        jobs = [EchoJob(name="victim", group="gv"),
                EchoJob(name="bystander", group="gb")]
        with BrokerHarness(
            node_poison_limit=100, job_poison_limit=2, pipeline_depth=1
        ) as harness:
            WorkerHarness(harness.port, "only", fault_plan=plan).start()
            wait_for(
                lambda: len(harness.stats()["nodes"]) == 1,
                message="node registered",
            )
            engine = DistScheduler(
                EngineConfig(jobs=1, keep_going=True), broker=harness.address()
            )
            try:
                outcome = engine.run(jobs)
            finally:
                engine.close()
            counts = harness.counts()
        assert outcome["echo:victim"] is None
        assert outcome["echo:bystander"] == "value:bystander"
        assert outcome.manifest.jobs_quarantined == 1
        assert outcome.manifest.jobs_failed == 1
        assert counts["quarantined_jobs"] == 1
        assert counts["quarantined_nodes"] == 0
        assert counts["requeued"] >= 1


class TestWorkerKillMidCampaign:
    def _spawn_worker(self, address, node_id, log_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        log = open(log_path, "w")
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--broker", address,
                "--mode", "inline",
                "--node-id", node_id,
                "--heartbeat", "0.1",
            ],
            cwd=REPO_ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )

    def test_sigkill_mid_campaign_requeues_and_parity_holds(
        self, corpus_jobs, reach_serial, tmp_path
    ):
        serial_outcome, serial_stats = reach_serial
        box = {}
        done = threading.Event()
        with BrokerHarness(node_poison_limit=1) as harness:
            victim = self._spawn_worker(
                harness.address(), "victim", str(tmp_path / "victim.log")
            )
            survivor = None
            try:
                wait_for(
                    lambda: "victim" in harness.stats()["nodes"],
                    timeout=60,
                    message="victim worker registered",
                )

                def campaign():
                    engine = DistScheduler(
                        EngineConfig(jobs=2), broker=harness.address()
                    )
                    stats = PropertyStats(label="failover")
                    try:
                        box["outcome"] = engine.run(corpus_jobs, stats=stats)
                        box["stats"] = stats
                    except BaseException as exc:  # surfaced after join
                        box["error"] = exc
                    finally:
                        engine.close()
                        done.set()

                threading.Thread(target=campaign, daemon=True).start()
                wait_for(
                    lambda: done.is_set()
                    or harness.stats()["nodes"]
                    .get("victim", {})
                    .get("inflight", 0)
                    > 0,
                    timeout=120,
                    interval=0.002,
                    message="victim holding in-flight work",
                )
                assert not done.is_set(), "campaign finished before the kill"
                victim.kill()
                victim.wait(30)
                survivor = self._spawn_worker(
                    harness.address(), "survivor", str(tmp_path / "survivor.log")
                )
                assert done.wait(300), "campaign did not finish after failover"
                counts = harness.counts()
                nodes = harness.stats()["nodes"]
            finally:
                for proc in (victim, survivor):
                    if proc is not None and proc.poll() is None:
                        proc.kill()
                        proc.wait(30)
        assert "error" not in box, repr(box.get("error"))
        outcome, stats = box["outcome"], box["stats"]
        for job in corpus_jobs:
            assert outcome[job.job_id] == serial_outcome[job.job_id], job.job_id
        assert stats.count == serial_stats.count
        assert stats.outcome_histogram == serial_stats.outcome_histogram
        assert outcome.manifest.reconciles(stats)
        assert outcome.manifest.jobs_quarantined == 0
        assert counts["requeued"] >= 1
        assert counts["quarantined_nodes"] == 1
        assert nodes["survivor"]["completed"] > 0


# --------------------------------------------------------------- backpressure
class TestBackpressure:
    def test_inflight_bounded_by_slots_times_pipeline_depth(self):
        jobs = [
            EchoJob(name="b%d" % i, group="same", seconds=0.02)
            for i in range(6)
        ]
        with BrokerHarness(pipeline_depth=1) as harness:
            WorkerHarness(harness.port, "solo").start()
            wait_for(
                lambda: len(harness.stats()["nodes"]) == 1,
                message="node registered",
            )
            with BrokerClient("127.0.0.1", harness.port) as client:
                verdicts = dict(
                    client.submit_iter([encode_job(j) for j in jobs])
                )
            counts = harness.counts()
        assert len(verdicts) == len(jobs)
        assert counts["completed"] == len(jobs)
        assert counts["max_inflight_observed"] == 1  # slots(1) * depth(1)

    def test_submit_shed_when_queue_cannot_absorb_it(self):
        with BrokerHarness(max_queue=2, high_water=100) as harness:
            with BrokerClient("127.0.0.1", harness.port) as client:
                jobs = [encode_job(EchoJob(name="s%d" % i)) for i in range(3)]
                with pytest.raises(BrokerShed):
                    list(client.submit_iter(jobs))
            assert harness.counts()["shed"] == 1
            assert harness.counts()["submitted"] == 0

    def test_parked_submit_times_out_as_shed(self):
        # high_water=0 parks every submit; with no worker to drain the
        # queue the client's park loop must give up at its deadline
        with BrokerHarness(high_water=0) as harness:
            with BrokerClient("127.0.0.1", harness.port) as client:
                jobs = [encode_job(EchoJob(name="p0"))]
                with pytest.raises(BrokerShed):
                    list(client.submit_iter(jobs, park_timeout=0.3))
            assert harness.counts()["parked"] >= 1

    def test_parked_submit_released_when_queue_drains(self):
        first = [EchoJob(name="f%d" % i, group="fg") for i in range(2)]
        second = [EchoJob(name="g0", group="gg")]
        results = {}
        with BrokerHarness(high_water=1) as harness:
            def consume(label, jobs):
                with BrokerClient("127.0.0.1", harness.port) as client:
                    results[label] = dict(
                        client.submit_iter(
                            [encode_job(j) for j in jobs], park_timeout=60
                        )
                    )

            # no workers yet: client A's jobs sit queued past high_water
            thread_a = threading.Thread(
                target=consume, args=("a", first), daemon=True
            )
            thread_a.start()
            wait_for(
                lambda: harness.counts()["submitted"] == 2,
                message="first submit queued",
            )
            # client B parks against the full queue...
            thread_b = threading.Thread(
                target=consume, args=("b", second), daemon=True
            )
            thread_b.start()
            wait_for(
                lambda: harness.counts()["parked"] >= 1,
                message="second submit parked",
            )
            # ...until a worker drains the queue and the retry lands
            WorkerHarness(harness.port, "late").start()
            thread_a.join(60)
            thread_b.join(60)
            assert not thread_a.is_alive() and not thread_b.is_alive()
            counts = harness.counts()
        assert len(results["a"]) == 2
        assert len(results["b"]) == 1
        assert counts["completed"] == 3
        assert counts["parked"] >= 1
        assert counts["shed"] == 0


# ------------------------------------------------------------- shared cache
class TestSharedCache:
    def test_write_behind_survives_restart_with_warm_replay(self, tmp_path):
        cache_dir = str(tmp_path / "shared-cache")
        jobs = [EchoJob(name="c%d" % i, group="g%d" % (i % 2)) for i in range(4)]
        with BrokerHarness(cache_dir=cache_dir) as harness:
            WorkerHarness(harness.port, "n1").start()
            wait_for(
                lambda: len(harness.stats()["nodes"]) == 1,
                message="node registered",
            )
            engine = DistScheduler(EngineConfig(jobs=2), broker=harness.address())
            try:
                outcome = engine.run(jobs)
            finally:
                engine.close()
        # broker stopped: the write-behind queue was flushed before exit,
        # and every entry on disk passes the local checksum validation
        assert outcome.manifest.cache_stores == len(jobs)
        store = ProofCache(cache_dir)
        assert store.entries() == len(jobs)
        for job in jobs:
            entry = store.get(job.cache_key())
            assert entry is not None, job.job_id
            assert entry["job_id"] == job.job_id
            assert entry["checksum"] == entry_checksum(entry)
        # a RESTARTED broker over the same store serves a fully warm run:
        # zero jobs dispatched, zero properties re-checked
        with BrokerHarness(cache_dir=cache_dir) as harness2:
            WorkerHarness(harness2.port, "n2").start()
            stats = PropertyStats(label="warm")
            engine2 = DistScheduler(
                EngineConfig(jobs=2), broker=harness2.address()
            )
            try:
                warm = engine2.run(jobs, stats=stats)
            finally:
                engine2.close()
            counts = harness2.counts()
        assert warm.manifest.cache_hits == len(jobs)
        assert warm.manifest.jobs_executed == 0
        assert warm.manifest.properties_evaluated == 0
        assert warm.manifest.properties_replayed == len(jobs)
        assert counts["submitted"] == 0  # nothing ever reached the queue
        assert counts["cache_hits"] == len(jobs)
        for job in jobs:
            assert warm[job.job_id] == outcome[job.job_id]
        assert warm.manifest.reconciles(stats)

    def test_corrupt_put_rejected_never_stored(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with BrokerHarness(cache_dir=cache_dir) as harness:
            with BrokerClient("127.0.0.1", harness.port) as client:
                entry = {
                    "format": CACHE_FORMAT_VERSION,
                    "key": "ab" * 32,
                    "job_id": "echo:x",
                    "created": 1.0,
                    "final": True,
                    "payload": "v",
                    "results": [],
                }
                bad = dict(entry, checksum="0" * 64)
                client.cache_put(bad)
                wait_for(
                    lambda: harness.counts()["cache_puts_rejected"] >= 1,
                    message="corrupt put rejected",
                )
                good = dict(entry)
                good["checksum"] = entry_checksum(good)
                client.cache_put(good)
                wait_for(
                    lambda: harness.counts()["cache_puts"] >= 1,
                    message="valid put persisted",
                )
                remote_stats = client.cache_stats()
            assert remote_stats["stats"]["entries"] == 1
        assert ProofCache(cache_dir).entries() == 1

    def test_remote_cache_validates_reads_client_side(self):
        key = "cd" * 32
        entry = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "job_id": "echo:r",
            "created": 1.0,
            "final": True,
            "payload": "v",
            "results": [],
        }
        entry["checksum"] = entry_checksum(entry)

        class StubClient:
            def __init__(self, served):
                self.served = served

            def cache_get(self, _key):
                return self.served

        cache = RemoteProofCache(StubClient(dict(entry)))
        assert cache.get(key) == entry
        assert cache.quarantined_session == 0
        # flipped payload byte: checksum mismatch degrades to a miss
        tampered = dict(entry, payload="w")
        cache = RemoteProofCache(StubClient(tampered))
        assert cache.get(key) is None
        assert cache.quarantined_session == 1
        # wrong format version and non-final entries are plain misses
        assert RemoteProofCache(
            StubClient(dict(entry, format=99))
        ).get(key) is None
        nonfinal = dict(entry, final=False)
        nonfinal["checksum"] = entry_checksum(nonfinal)
        assert RemoteProofCache(StubClient(nonfinal)).get(key) is None

    def test_cache_only_scheduler_local_dispatch_remote_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        jobs = [EchoJob(name="co%d" % i) for i in range(3)]
        with BrokerHarness(cache_dir=cache_dir) as harness:
            # note: no workers at all -- dispatch stays local
            engine = CacheOnlyScheduler(
                EngineConfig(jobs=1), broker=harness.address()
            )
            try:
                outcome = engine.run(jobs)
            finally:
                engine.close()
            assert harness.counts()["submitted"] == 0
        assert outcome.manifest.jobs_executed == len(jobs)
        assert ProofCache(cache_dir).entries() == len(jobs)
        with BrokerHarness(cache_dir=cache_dir) as harness2:
            engine2 = CacheOnlyScheduler(
                EngineConfig(jobs=1), broker=harness2.address()
            )
            try:
                warm = engine2.run(jobs)
            finally:
                engine2.close()
        assert warm.manifest.cache_hits == len(jobs)
        assert warm.manifest.jobs_executed == 0
        for job in jobs:
            assert warm[job.job_id] == outcome[job.job_id]


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
