"""Tests for the observability subsystem (repro.obs).

Covers the tracer (span pairing, nesting, attributes, the active-tracer
stack, cross-process replay), the metrics registry (counters, gauges,
histograms, Prometheus exposition, the JSON snapshot), the solver /
engine deep counters on :class:`CheckResult`, telemetry-log buffering,
and -- most load-bearing -- the trace-integrity and reconciliation
properties of real traced runs: every event timestamped, span
begin/end balanced and nested, jobs=1 and jobs=2 producing the same
span set, and span-accounted checker time equal to
``PropertyStats.total_time``.
"""

from __future__ import annotations

import json
import threading
from collections import Counter as TallyCounter

import pytest

from repro import cli, obs
from repro.core import Rtl2MuPath
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
from repro.engine import EngineConfig, JobScheduler
from repro.engine import telemetry as telemetry_module
from repro.engine.telemetry import TelemetryLog
from repro.mc.outcomes import REACHABLE, UNREACHABLE, CheckResult
from repro.obs import (
    MetricsRegistry,
    SpanCollector,
    TraceProfile,
    Tracer,
)
from repro.obs.tracer import NULL_SPAN
from repro.solver.sat import SAT, UNSAT, SatSolver

TINY_FAMILY = ContextFamilyConfig(
    horizon=24,
    neighbors=("DIV",),
    iuv_values=(0, 1),
    neighbor_values=(0, 1),
    include_deep=False,
)
INSTRS = ("ADD", "DIV")


def make_tool():
    design = build_core()
    provider = CoreContextProvider(xlen=design.config.xlen, config=TINY_FAMILY)
    return Rtl2MuPath(design, provider)


# ------------------------------------------------------------------- tracer
class TestTracer:
    def test_span_pairs_nest_and_merge_attrs(self):
        sink = SpanCollector()
        tracer = Tracer(sink=sink)
        with tracer.span("outer", iuv="DIV") as outer:
            with tracer.span("inner") as inner:
                inner.set("hits", 3)
                inner.inc("check_seconds", 0.5)
                inner.inc("check_seconds", 0.25)
        kinds = [kind for kind, _ in sink.records]
        assert kinds == ["span_begin", "span_begin", "span_end", "span_end"]
        outer_begin = sink.records[0][1]
        inner_begin = sink.records[1][1]
        inner_end = sink.records[2][1]
        outer_end = sink.records[3][1]
        assert outer_begin["parent"] is None
        assert inner_begin["parent"] == outer_begin["span"]
        assert outer_begin["attrs"] == {"iuv": "DIV"}
        assert inner_end["attrs"] == {"hits": 3, "check_seconds": 0.75}
        assert inner_end["dur"] >= 0.0
        assert outer_end["dur"] >= inner_end["dur"]
        assert outer.span_id != inner.span_id

    def test_ids_unique_and_prefixed(self):
        tracer = Tracer(sink=SpanCollector())
        ids = set()
        for _ in range(100):
            with tracer.span("x") as sp:
                ids.add(sp.span_id)
        assert len(ids) == 100
        assert all(sid.startswith(tracer.prefix + ":") for sid in ids)

    def test_error_flag_set_and_exception_propagates(self):
        sink = SpanCollector()
        tracer = Tracer(sink=sink)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        kind, fields = sink.records[-1]
        assert kind == "span_end"
        assert fields["error"] is True

    def test_module_helpers_inactive_are_noops(self):
        assert obs.current_tracer() is None
        assert obs.current_span() is NULL_SPAN
        ctx = obs.span("nothing", attr=1)
        assert ctx is NULL_SPAN
        with ctx as sp:
            sp.set("k", "v")  # must not raise
            sp.inc("n")

    def test_activate_stack_nesting(self):
        lower, upper = SpanCollector(), SpanCollector()
        t_lower, t_upper = Tracer(sink=lower), Tracer(sink=upper)
        obs.activate(t_lower)
        try:
            with obs.span("a"):
                obs.activate(t_upper)
                try:
                    with obs.span("b") as sp_b:
                        assert obs.current_span() is sp_b
                finally:
                    obs.deactivate(t_upper)
                with obs.span("c"):
                    pass
        finally:
            obs.deactivate(t_lower)
        assert [f["name"] for k, f in lower.records if k == "span_begin"] == [
            "a", "c",
        ]
        assert [f["name"] for k, f in upper.records if k == "span_begin"] == [
            "b",
        ]
        assert obs.current_tracer() is None

    def test_replay_reparents_roots_only(self):
        sink = SpanCollector()
        tracer = Tracer(sink=sink)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        out = []
        obs.replay_into(
            sink.records, lambda kind, **f: out.append((kind, f)),
            reparent="RUNSPAN",
        )
        begins = {f["name"]: f for k, f in out if k == "span_begin"}
        assert begins["root"]["parent"] == "RUNSPAN"
        assert begins["child"]["parent"] == begins["root"]["span"]
        # timestamps travel unchanged
        assert [f["ts"] for _, f in out] == [f["ts"] for _, f in sink.records]

    def test_thread_safety_separate_stacks(self):
        sink = SpanCollector()
        tracer = Tracer(sink=sink)
        errors = []

        def work(tag):
            try:
                for _ in range(50):
                    with tracer.span("t-%s" % tag) as sp:
                        with tracer.span("inner") as child:
                            assert child.parent_id == sp.span_id
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        ids = [f["span"] for k, f in sink.records if k == "span_begin"]
        assert len(ids) == len(set(ids)) == 4 * 50 * 2
        # every thread's roots are parentless: stacks never leaked across
        roots = [
            f for k, f in sink.records
            if k == "span_begin" and f["name"].startswith("t-")
        ]
        assert all(f["parent"] is None for f in roots)


# ------------------------------------------------------------------ metrics
class TestMetrics:
    def test_counter_labels_and_monotonicity(self):
        reg = MetricsRegistry()
        c = reg.counter("props_total", "properties")
        c.inc(outcome="reachable")
        c.inc(2, outcome="reachable")
        c.inc(outcome="unreachable")
        assert c.value(outcome="reachable") == 3
        assert c.value(outcome="unreachable") == 1
        assert c.value(outcome="undetermined") == 0
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_up_and_down(self):
        reg = MetricsRegistry()
        g = reg.gauge("inflight")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4

    def test_histogram_buckets_sum_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(55.55)
        text = reg.to_prometheus()
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1.0"} 2' in text
        assert 'lat_bucket{le="10.0"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_count 4" in text

    def test_registry_memoizes_and_type_checks(self):
        reg = MetricsRegistry()
        a = reg.counter("x", "help")
        assert reg.counter("x") is a
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "jobs by kind").inc(3, kind="synth")
        reg.gauge("workers", "pool size").set(8)
        text = reg.to_prometheus()
        assert "# HELP jobs_total jobs by kind" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{kind="synth"} 3' in text
        assert "# TYPE workers gauge" in text
        assert "workers 8" in text
        assert text.endswith("\n")

    def test_snapshot_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.counter("b").inc(1, k="v")
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["a"] == 2
        assert snap["b"] == [{"labels": {"k": "v"}, "value": 1}]
        assert snap["h"]["count"] == 1


# -------------------------------------------------------- solver deep counters
class TestSolverCounters:
    def _formula(self):
        solver = SatSolver()
        a, b, c = solver.new_var(), solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a, c])
        solver.add_clause([-b, -c])
        return solver

    def test_last_solve_delta_per_call(self):
        solver = self._formula()
        assert solver.solve() == SAT
        first = dict(solver.last_solve)
        for key in (
            "conflicts", "decisions", "propagations", "restarts",
            "learned", "clauses", "learned_db", "vars",
        ):
            assert key in first, key
        assert first["vars"] == 3
        assert first["clauses"] >= 3
        assert solver.solves == 1
        # a second solve reports its own delta, not the running totals
        assert solver.solve() == SAT
        assert solver.solves == 2
        assert solver.last_solve["decisions"] <= first["decisions"] + 3

    def test_unsat_delta_counts_conflicts(self):
        solver = SatSolver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.solve() == UNSAT
        assert solver.last_solve["conflicts"] >= 0
        assert solver.last_solve["vars"] == 1

    def test_counters_monotonic(self):
        solver = self._formula()
        before = solver.counters()
        solver.solve()
        after = solver.counters()
        assert all(after[k] >= before[k] for k in before)


# --------------------------------------------------- CheckResult effort fields
class TestCheckResultEffortFields:
    def test_roundtrip_with_depth_and_solver(self):
        result = CheckResult(
            "q", REACHABLE, "bmc", time_seconds=0.25, depth=12,
            solver={"conflicts": 3, "decisions": 7},
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["depth"] == 12
        assert payload["solver"] == {"conflicts": 3, "decisions": 7}
        assert CheckResult.from_dict(payload) == result

    def test_old_payloads_still_load(self):
        legacy = {
            "query_name": "q",
            "outcome": UNREACHABLE,
            "engine": "bmc",
            "witness": None,
            "time_seconds": 0.5,
            "detail": "",
        }
        result = CheckResult.from_dict(legacy)
        assert result.depth is None
        assert result.solver is None
        # and a fieldless result emits the legacy payload byte-for-byte
        assert result.to_dict() == legacy


# ------------------------------------------------------- telemetry buffering
class TestTelemetryBuffering:
    def test_events_buffer_until_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setattr(telemetry_module, "FLUSH_EVERY", 10)
        monkeypatch.setattr(telemetry_module, "FLUSH_SECONDS", 3600.0)
        path = tmp_path / "t.jsonl"
        log = TelemetryLog(str(path))
        for i in range(9):
            log.event("tick", i=i)
        assert path.read_text() == ""  # still buffered
        log.event("tick", i=9)  # 10th event crosses the threshold
        assert len(path.read_text().splitlines()) == 10
        log.event("tail")
        log.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 11
        assert all(
            {"ts", "event"} <= set(json.loads(line)) for line in lines
        )

    def test_explicit_ts_override(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryLog(str(path)) as log:
            log.event("old", ts=123.456789)
        record = json.loads(path.read_text())
        assert record["ts"] == 123.456789

    def test_disabled_log_is_inert(self):
        log = TelemetryLog(None)
        assert not log.enabled
        log.event("anything")
        log.flush()
        log.close()


# ----------------------------------------------------- traced runs, end to end
@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("traces")
    runs = {}
    for jobs in (1, 2):
        trace = base / ("run_j%d.jsonl" % jobs)
        tool = make_tool()
        engine = JobScheduler(
            EngineConfig(jobs=jobs, trace_path=str(trace))
        )
        tool.synthesize_all(INSTRS, engine=engine)
        runs[jobs] = (str(trace), tool, engine)
    return runs


class TestTraceIntegrity:
    def test_trace_validates_clean(self, traced_runs):
        for jobs, (trace, _tool, _engine) in traced_runs.items():
            profile = TraceProfile.load(trace)
            assert profile.ok, (jobs, profile.errors)

    def test_every_event_has_ts_and_kind(self, traced_runs):
        for trace, _tool, _engine in traced_runs.values():
            with open(trace) as handle:
                for line in handle:
                    event = json.loads(line)
                    assert isinstance(event["ts"], float)
                    assert isinstance(event["event"], str) and event["event"]

    def test_spans_balance_and_nest(self, traced_runs):
        for trace, _tool, _engine in traced_runs.values():
            events = [json.loads(l) for l in open(trace)]
            begins = [e for e in events if e["event"] == "span_begin"]
            ends = [e for e in events if e["event"] == "span_end"]
            assert len(begins) == len(ends) > 0
            assert {e["span"] for e in begins} == {e["span"] for e in ends}
            # structural nesting is what TraceProfile validates
            assert TraceProfile.load(trace).ok

    def test_parallel_run_produces_same_span_set(self, traced_runs):
        names = {}
        for jobs, (trace, _tool, _engine) in traced_runs.items():
            profile = TraceProfile.load(trace)
            names[jobs] = TallyCounter(r.name for r in profile.spans)
        assert names[1] == names[2]

    def test_worker_spans_hang_off_run_span(self, traced_runs):
        trace, _tool, _engine = traced_runs[2]
        profile = TraceProfile.load(trace)
        by_name = {}
        for record in profile.spans:
            by_name.setdefault(record.name, []).append(record)
        (run_span,) = by_name["engine.run"]
        assert run_span.parent_id is None
        for attempt in by_name["job.attempt"]:
            assert attempt.parent_id == run_span.span_id
        for synth in by_name["rtl2mupath.synthesize"]:
            assert profile._by_id[synth.parent_id].name == "job.attempt"

    def test_span_time_reconciles_with_stats(self, traced_runs):
        for jobs, (trace, tool, _engine) in traced_runs.items():
            profile = TraceProfile.load(trace)
            assert profile.reconciles_total_time(tool.stats.total_time), jobs
            # and the run_finish event carries the same stats
            assert profile.stats["count"] == tool.stats.count

    def test_manifest_still_reconciles_under_tracing(self, traced_runs):
        for _trace, tool, engine in traced_runs.values():
            assert engine.last_manifest.reconciles(tool.stats)

    def test_kinduction_results_carry_effort_fields(self, tmp_path):
        trace = tmp_path / "duv.jsonl"
        tool = make_tool()
        with TelemetryLog(str(trace)) as log:
            tracer = Tracer(sink=log.event)
            obs.activate(tracer)
            try:
                with tracer.span("duv"):
                    tool.duv_pl_reachability(["ADD"])
            finally:
                obs.deactivate(tracer)
        induction = [
            r for r in tool.stats.results if r.engine == "k-induction"
        ]
        assert induction
        for result in induction:
            assert result.depth is not None
            assert isinstance(result.solver, dict)
            assert "conflicts" in result.solver
        profile = TraceProfile.load(str(trace))
        assert profile.ok, profile.errors
        totals = profile.phase_totals()
        for phase in (
            "rtl2mupath.duv_pl_reachability", "phase.cover.duv_pls",
            "phase.induction", "mc.kinduction", "mc.kinduction.base",
        ):
            assert phase in totals, phase
        # every property recorded during the walk is accounted on spans
        assert profile.reconciles_total_time(tool.stats.total_time)

    def test_phase_breakdown_covers_pipeline(self, traced_runs):
        trace, _tool, _engine = traced_runs[1]
        totals = TraceProfile.load(trace).phase_totals()
        for phase in (
            "engine.run", "job.attempt", "rtl2mupath.synthesize",
            "phase.elaborate", "phase.cover.iuv_pls", "phase.cover.pruning",
            "phase.cover.plsets", "phase.cover.structure", "phase.decisions",
        ):
            assert phase in totals, phase
        per_instr = TraceProfile.load(trace).per_instruction()
        assert set(per_instr) == set(INSTRS)

    def test_warm_cache_replayed_seconds_reconcile(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold_tool = make_tool()
        cold_engine = JobScheduler(EngineConfig(jobs=1, cache_dir=cache_dir))
        cold_tool.synthesize_all(INSTRS, engine=cold_engine)

        trace = tmp_path / "warm.jsonl"
        warm_tool = make_tool()
        warm_engine = JobScheduler(
            EngineConfig(jobs=1, cache_dir=cache_dir, trace_path=str(trace))
        )
        warm_tool.synthesize_all(INSTRS, engine=warm_engine)
        profile = TraceProfile.load(str(trace))
        assert profile.ok, profile.errors
        assert profile.checked_seconds() == 0.0
        assert profile.replayed_seconds() > 0.0
        assert profile.reconciles_total_time(warm_tool.stats.total_time)


class TestChromeTraceExport:
    def test_chrome_trace_structure(self, traced_runs):
        trace, _tool, _engine = traced_runs[2]
        profile = TraceProfile.load(trace)
        chrome = json.loads(json.dumps(profile.to_chrome_trace()))
        events = chrome["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(profile.spans)
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert {"name", "pid", "tid", "args"} <= set(event)
        metadata = [e for e in events if e["ph"] == "M"]
        assert metadata and all(
            e["name"] == "thread_name" for e in metadata
        )


class TestProfileCli:
    def test_profile_check_passes_on_good_trace(self, traced_runs, capsys):
        trace, _tool, _engine = traced_runs[1]
        assert cli.main(["profile", trace, "--check"]) == 0
        out = capsys.readouterr().out
        assert "integrity: ok" in out
        assert "reconciles" in out
        assert "per-phase" in out

    def test_profile_exports_chrome_trace(self, traced_runs, tmp_path):
        trace, _tool, _engine = traced_runs[1]
        out_path = tmp_path / "chrome.json"
        assert cli.main(
            ["profile", trace, "--export-chrome-trace", str(out_path)]
        ) == 0
        chrome = json.loads(out_path.read_text())
        assert chrome["traceEvents"]

    def test_profile_check_fails_on_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "\n".join(
                [
                    json.dumps({"ts": 1.0, "event": "run_start"}),
                    json.dumps(
                        {
                            "ts": 2.0, "event": "span_begin", "span": "x:1",
                            "parent": None, "name": "orphan", "attrs": {},
                        }
                    ),
                    "{not json",
                ]
            )
            + "\n"
        )
        assert cli.main(["profile", str(bad), "--check"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_profile_missing_file_errors(self, tmp_path, capsys):
        assert cli.main(["profile", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().out
