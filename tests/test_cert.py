"""Tests for certified verdicts (repro.cert + the engine's failure accounting).

Four layers, mirroring the trust chain:

* the pure-Python DRAT checker rejects forged, truncated, and
  model-corrupting mutations (the checker itself must not be gameable);
* the seeded solver-soundness mutation -- a conflict analysis that
  drops a non-asserting literal from the learned clause, planted by
  monkeypatching ``SatSolver._analyze`` -- flips a crafted SAT instance
  to UNSAT, and the DRAT check of that refutation catches it;
* certify-full verdicts are byte-identical to uncertified ones on the
  fuzz corpus (certification observes, never decides);
* the scheduler reports a failed certificate after one execute --
  counted once in ``cert_failures`` and once in ``cert_uncaught``,
  dumped as a bundle, never cached, never re-solved -- end to end
  through the real :class:`JobScheduler`, for a fake job, a reach job
  and a real synthesis job whose every cover replay is refuted.

Plus the backward-compat pins: cache entries written before
certificates existed, by the retired multi-node workers (a ``node``
key inside the checksum), and by a reach job under the retired
``--certify spot`` mode (a digest-only DRAT bundle over the proof
shape) still load as valid hits with an unchanged format version; and
a certificate payload edited under a re-sealed checksum is quarantined
as ``certificate_mismatch``.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
from dataclasses import dataclass, replace

import pytest

import repro.cert as cert_mod
from repro.cert import (
    certificate_failed,
    certify_flag,
    payload_digest,
    verify_certificate_digest,
)
from repro.cert.drat import check_proof, verify_model
from repro.engine import EngineConfig, JobScheduler, ProofCache
from repro.engine.cache import CACHE_FORMAT_VERSION
from repro.engine.specs import ReachJob, reach_jobs_for_corpus
from repro.fuzz.campaign import load_reproducer
from repro.fuzz.gen import build_design
from repro.mc import BmcContext
from repro.mc.kinduction import prove_unreachable_kinduction
from repro.mc.outcomes import REACHABLE, UNREACHABLE, CheckResult
from repro.props import Eventually, Query, sig
from repro.solver.sat import SAT, UNSAT, SatSolver
from tests.test_solver_diff import drop_learned_literal

CORPUS = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _corpus_paths(limit=None):
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.json")))
    return paths[:limit] if limit else paths


def _unsat_proof():
    """A small real proof log: pigeonhole-ish UNSAT instance."""
    s = SatSolver(proof=True)
    a, b, c = (s.new_var() for _ in range(3))
    s.add_clause([a, b])
    s.add_clause([a, -b, c])
    s.add_clause([-a, c])
    s.add_clause([-c, b])
    s.add_clause([-b, -c])
    assert s.solve() == UNSAT
    entries = list(s.proof_entries())
    final = s.final_lemma()
    assert final is not None
    return entries, tuple(final)


# --------------------------------------------------------- checker mutations
class TestDratCheckerMutations:
    def test_valid_proof_accepted(self):
        entries, final = _unsat_proof()
        outcome = check_proof(entries, final)
        assert outcome.ok, outcome.detail

    def test_forged_addition_rejected(self):
        """A load-bearing non-RUP addition must fail its own check."""
        # hand-build a log whose terminal lemma depends on a forged unit:
        # inputs (a ∨ b), (¬a ∨ b); the forged addition (¬b) is NOT
        # implied, yet makes the empty clause propagate
        entries = [
            ("i", (1, 2)),
            ("i", (-1, 2)),
            ("a", (-2,)),  # forged: not RUP against the inputs
        ]
        outcome = check_proof(entries, final=())
        assert not outcome.ok
        assert "not RUP" in outcome.detail or "not implied" in outcome.detail

    def test_truncated_proof_rejected(self):
        entries, final = _unsat_proof()
        additions = [i for i, (tag, _) in enumerate(entries) if tag == "a"]
        assert additions, "workload produced no learned clauses"
        truncated = entries[: additions[0]]  # drop every derivation
        outcome = check_proof(truncated, final)
        assert not outcome.ok

    def test_flipped_bit_model_rejected(self):
        s = SatSolver(proof=True)
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, b])
        assert s.solve() == SAT
        entries = list(s.proof_entries())
        model = {v: s.model_value(v) for v in (a, b)}
        ok, _ = verify_model(entries, model)
        assert ok
        flipped = dict(model)
        flipped[b] = not flipped[b]  # b is forced true: flipping it lies
        ok, detail = verify_model(entries, flipped)
        assert not ok
        assert "falsified" in detail

    def test_budget_skip_is_not_a_failure(self):
        entries, final = _unsat_proof()
        outcome = check_proof(entries, final, max_seconds=0.0)
        assert outcome.status in ("ok", "budget")
        assert outcome.status != "failed"


class TestWitnessMutations:
    @pytest.fixture(scope="class")
    def reachable_case(self):
        """A corpus query that BMC answers REACHABLE with a certificate."""
        for path in _corpus_paths():
            design = build_design(load_reproducer(path))
            for probe in design.probe_names:
                ctx = BmcContext(design.netlist, horizon=4, certify=True)
                result = ctx.check(
                    Query("reach_%s" % probe, Eventually(sig(probe)))
                )
                cert = result.certificate
                if result.outcome == REACHABLE and cert is not None:
                    return design.netlist, probe, cert
        pytest.skip("corpus produced no REACHABLE witness")

    def test_witness_verified_and_digest_intact(self, reachable_case):
        _netlist, _probe, cert = reachable_case
        assert cert["kind"] == "witness"
        assert cert["verified"] is True
        assert verify_certificate_digest(cert)

    def test_wrong_depth_replay_fails(self, reachable_case):
        from repro.cert import replay_witness
        from repro.props.views import ConcreteOps

        netlist, probe, cert = reachable_case
        payload = cert["payload"]
        truncated = dict(payload, inputs=[], depth=0)
        prop = Eventually(sig(probe))

        def fires(view):
            return bool(prop.evaluate(view, ConcreteOps))

        # the full-depth replay fires; the zero-depth one cannot
        assert replay_witness(netlist, payload, fires)
        assert not replay_witness(netlist, truncated, fires)

    def test_forged_payload_digest_mismatch(self, reachable_case):
        _netlist, _probe, cert = reachable_case
        forged = dict(cert, payload=dict(cert["payload"], depth=99))
        assert not verify_certificate_digest(forged)


# -------------------------------------------- seeded solver soundness mutation
#: crafted instance, satisfiable (e.g. 1 true, 2-4 false): the clean
#: search learns (1 ∨ 2) on its way to a model; the mutant learns the
#: unit (2) instead, which wipes out every model
_CRAFTED_CLAUSES = ((-4, 2, 1), (3, 1, 2), (-2, -3, -4), (-2, 3), (-3, 4))


def _solve_crafted():
    s = SatSolver(proof=True)
    top = max(abs(l) for clause in _CRAFTED_CLAUSES for l in clause)
    for _ in range(top):
        s.new_var()
    for clause in _CRAFTED_CLAUSES:
        s.add_clause(list(clause))
    return s, s.solve()


class TestSeededSolverMutation:
    def test_clean_solver_answers_sat(self):
        s, verdict = _solve_crafted()
        assert verdict == SAT
        model = {v: s.model_value(v) for v in (1, 2, 3, 4)}
        ok, detail = verify_model(s.proof_entries(), model)
        assert ok, detail

    def test_mutation_flips_verdict_and_certification_catches_it(
        self, monkeypatch
    ):
        monkeypatch.setattr(SatSolver, "_analyze", drop_learned_literal)
        s, verdict = _solve_crafted()
        assert verdict == UNSAT  # the soundness bug fires
        outcome = check_proof(s.proof_entries(), s.final_lemma())
        assert not outcome.ok  # ...and the DRAT check refutes the proof
        assert "not RUP" in outcome.detail

    def test_mutation_does_not_break_witness_replay_path(self, monkeypatch):
        """Corpus REACHABLE witnesses still replay under the mutation:
        replay uses the simulator, which the solver bug cannot touch."""
        monkeypatch.setattr(SatSolver, "_analyze", drop_learned_literal)
        for path in _corpus_paths(limit=2):
            design = build_design(load_reproducer(path))
            for probe in design.probe_names:
                ctx = BmcContext(design.netlist, horizon=4, certify=True)
                result = ctx.check(
                    Query("reach_%s" % probe, Eventually(sig(probe)))
                )
                if result.certificate is not None:
                    assert result.certificate["verified"] is not False


# ------------------------------------------------------- certify-off parity
class TestCertifyParity:
    def test_full_matches_off_on_corpus(self):
        """Certification must observe the verdict, never change it."""
        for path in _corpus_paths(limit=3):
            design = build_design(load_reproducer(path))
            for probe in design.probe_names:
                query = Query("reach_%s" % probe, Eventually(sig(probe)))
                plain = BmcContext(design.netlist, horizon=4).check(query)
                certified = BmcContext(
                    design.netlist, horizon=4, certify=True
                ).check(query)
                assert (plain.outcome, plain.detail, plain.depth) == (
                    certified.outcome,
                    certified.detail,
                    certified.depth,
                ), "certify=full changed a BMC verdict for %s" % probe
                if certified.outcome in (REACHABLE, UNREACHABLE):
                    cert = certified.certificate
                    assert cert is not None and cert["verified"] is not False

    def test_kinduction_certificates_cover_both_legs(self):
        for path in _corpus_paths():
            design = build_design(load_reproducer(path))
            for probe in design.probe_names:
                if not design.netlist.registers:
                    continue
                proof = prove_unreachable_kinduction(
                    design.netlist, sig(probe), k=2, certify=True
                )
                if proof.outcome != UNREACHABLE:
                    continue
                cert = proof.certificate
                assert cert is not None
                assert cert["kind"] == "drat"
                assert cert["verified"] is True
                assert set(cert["payload"]["legs"]) == {"base", "step"}
                return
        pytest.skip("corpus produced no UNREACHABLE induction proof")


# ------------------------------------------------------ cache backward compat
class TestCacheBackwardCompat:
    @pytest.mark.parametrize(
        "fixture_name",
        [
            "cache_entry_pre_cert.json",
            # written by a retired multi-node worker: an extra "node"
            # key that the entry checksum covers
            "cache_entry_fleet_node.json",
        ],
        ids=["pre_cert", "fleet_node"],
    )
    def test_pre_cert_fixture_still_hits(self, tmp_path, fixture_name):
        """Entries from older writers stay valid hits without a format bump."""
        fixture_path = os.path.join(FIXTURES, fixture_name)
        with open(fixture_path, "r", encoding="utf-8") as handle:
            fixture = json.load(handle)
        # the pin itself: the on-disk format was NOT bumped for
        # certificates or for the retired node provenance, so the
        # fixture's version must still be current
        assert fixture["format"] == CACHE_FORMAT_VERSION
        assert "certificate" not in json.dumps(fixture)
        cache = ProofCache(str(tmp_path))
        dest = cache._path(fixture["key"])
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copyfile(fixture_path, dest)
        entry = cache.get(fixture["key"])
        assert entry is not None, "older writer's entry must stay a hit"
        results = [CheckResult.from_dict(r) for r in entry["results"]]
        assert all(r.certificate is None for r in results)
        report = cache.verify_store()
        assert report["checked"] == report["ok"] == 1
        assert report["quarantined"] == 0

    def test_spot_certified_entry_still_hits(self, tmp_path):
        """An entry a reach job wrote under the retired ``--certify spot``
        -- its DRAT bundle unsampled, so digest-only over the proof shape
        with status ``skipped`` -- replays as a hit: the certify mode
        never entered the cache key, and a bundle without a payload has
        nothing left to mismatch."""
        fixture_path = os.path.join(FIXTURES, "cache_entry_certify_spot.json")
        with open(fixture_path, "r", encoding="utf-8") as handle:
            fixture = json.load(handle)
        assert fixture["format"] == CACHE_FORMAT_VERSION
        (result,) = fixture["results"]
        assert result["certificate"]["status"] == "skipped"
        assert result["certificate"]["payload"] is None
        job = next(
            j for j in reach_jobs_for_corpus(CORPUS, certify="full")
            if j.job_id == fixture["job_id"]
        )
        assert job.cache_key() == fixture["key"]
        cache = ProofCache(str(tmp_path))
        dest = cache._path(fixture["key"])
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copyfile(fixture_path, dest)
        outcome = JobScheduler(
            EngineConfig(jobs=1, cache_dir=str(tmp_path))
        ).run([job])
        manifest = outcome.manifest
        assert (manifest.cache_hits, manifest.jobs_executed) == (1, 0)
        assert manifest.cert_checked == 0  # a skipped bundle is unchecked
        assert outcome.results[job.job_id] == tuple(fixture["payload"])
        report = cache.verify_store()
        assert report["checked"] == report["ok"] == 1

    def test_certified_and_uncertified_jobs_share_cache_keys(self):
        job = ReachJob(design_json="{}", probe="p", design_label="d")
        assert job.cache_key() == replace(job, certify="full").cache_key()

    def test_verify_store_quarantines_refuted_certificates(self, tmp_path):
        cache = ProofCache(str(tmp_path))
        bad_cert = {
            "kind": "witness",
            "status": "failed",
            "verified": False,
            "digest": payload_digest({"depth": 0}),
            "payload": {"depth": 0},
        }
        cache.put(
            "badkey", "j1", {"v": 1},
            [CheckResult("q", REACHABLE, "bmc", certificate=bad_cert).to_dict()],
        )
        cache.put(
            "goodkey", "j2", {"v": 2},
            [CheckResult("q", UNREACHABLE, "bmc").to_dict()],
        )
        report = cache.verify_store()
        assert report["checked"] == 2
        assert report["quarantined"] == 1
        assert report["quarantined_by_reason"] == {"certificate_failed": 1}
        assert cache.get("badkey") is None
        assert cache.get("goodkey") is not None

    def test_tampered_certificate_payload_is_a_mismatch(self, tmp_path):
        """Intact bytes, edited payload: only the certificate digest can
        tell, so ``get`` and ``verify_store`` must both check it."""
        from repro.engine import cache as cache_mod
        from repro.engine.cache import entry_checksum

        payload = {"legs": {"proof": {"entries": [["i", [1, -2]]], "final": []}}}
        cert = {
            "kind": "drat",
            "status": "verified",
            "verified": True,
            "digest": payload_digest(payload),
            "payload": payload,
        }
        cache = ProofCache(str(tmp_path / "cache"))
        cache.put(
            "tamperkey", "j1", {"v": 1},
            [CheckResult("q", UNREACHABLE, "bmc", certificate=cert).to_dict()],
        )
        assert cache.get("tamperkey") is not None
        path = cache._path("tamperkey")
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["results"][0]["certificate"]["payload"]["legs"]["proof"][
            "final"
        ] = [7]
        # re-seal the entry so its byte checksum passes
        entry["checksum"] = entry_checksum(entry)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        tampered = str(tmp_path / "tampered.json")
        shutil.copyfile(path, tampered)

        mismatches = cache_mod._QUARANTINED.value(reason="certificate_mismatch")
        assert cache.get("tamperkey") is None
        assert cache_mod._QUARANTINED.value(
            reason="certificate_mismatch"
        ) == mismatches + 1
        assert not os.path.exists(path)
        assert cache.quarantined() == 1

        shutil.copyfile(tampered, path)
        report = cache.verify_store()
        assert report["checked"] == 1 and report["ok"] == 0
        assert report["quarantined_by_reason"] == {"certificate_mismatch": 1}
        assert cache.get("tamperkey") is None


# ------------------------------------------------ engine failure accounting
@dataclass(frozen=True)
class CertFailingJob:
    """Every execute yields a REACHABLE verdict whose certificate is
    refuted."""

    job_id: str = "fake:certfail"
    key: str = "certfail-key"

    def execute(self):
        payload = {"depth": 1}
        cert = {
            "kind": "witness",
            "status": "failed",
            "verified": False,
            "digest": payload_digest(payload),
            "payload": payload,
        }
        return "fast", [
            CheckResult("q", REACHABLE, "fake", certificate=cert)
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


class TestSchedulerDegradeRung:
    """A failed certificate is reported, not re-solved: the job runs
    once, every failure is uncaught, and nothing is cached."""

    def test_uncaught_failure_is_surfaced_and_never_cached(self, tmp_path):
        engine = JobScheduler(EngineConfig(jobs=1, cache_dir=str(tmp_path)))
        outcome = engine.run([CertFailingJob()])
        manifest = outcome.manifest
        assert outcome.results["fake:certfail"] == "fast"
        assert manifest.cert_failures == 1
        assert manifest.cert_uncaught == 1
        assert manifest.jobs_failed == 0
        # an untrusted verdict must never become a future cache hit
        engine2 = JobScheduler(EngineConfig(jobs=1, cache_dir=str(tmp_path)))
        outcome2 = engine2.run([CertFailingJob()])
        assert outcome2.manifest.cache_hits == 0
        assert outcome2.manifest.cert_uncaught == 1

    def test_failure_bundles_dumped_for_ci(self, tmp_path, monkeypatch):
        art_dir = tmp_path / "artifacts"
        monkeypatch.setenv("REPRO_CERT_ARTIFACTS", str(art_dir))
        JobScheduler(EngineConfig(jobs=1)).run([CertFailingJob()])
        bundles = list(art_dir.glob("cert-failure-*.json"))
        assert bundles, "failing bundle was not written"
        with open(bundles[0], "r", encoding="utf-8") as handle:
            bundle = json.load(handle)
        assert bundle["failures"][0]["certificate"]["verified"] is False

    def test_manifest_summary_mentions_certification(self):
        outcome = JobScheduler(EngineConfig(jobs=1)).run([CertFailingJob()])
        text = outcome.manifest.summary()
        assert "1 certification failure(s), 1 uncaught" in text

    def test_failed_reach_certificate_is_uncaught_after_one_solve(
        self, tmp_path, monkeypatch
    ):
        """Reach jobs solve on fresh solvers, so a second solve would
        retrace the same deterministic path.  A failed certificate is
        surfaced as uncaught after exactly one execute."""
        job = next(
            j
            for j in reach_jobs_for_corpus(CORPUS, certify="full")
            if j.execute()[0][0] == REACHABLE
        )
        executes = []
        real_execute = ReachJob.execute

        def counting_execute(self):
            executes.append(self.job_id)
            return real_execute(self)

        monkeypatch.setattr(ReachJob, "execute", counting_execute)
        # a replay that refutes every witness fails the REACHABLE
        # verdict's certificate
        monkeypatch.setattr(cert_mod, "replay_witness", lambda *args: False)
        engine = JobScheduler(EngineConfig(jobs=1, cache_dir=str(tmp_path)))
        manifest = engine.run([job]).manifest
        assert manifest.cert_failures == 1
        assert manifest.cert_uncaught == 1
        assert executes == [job.job_id]

    def test_failed_synthesis_certificates_reported_after_one_execute(
        self, tmp_path, monkeypatch
    ):
        """A real synthesis job whose every cover replay is refuted runs
        once: each refuted certificate counts once in ``cert_failures``
        and once in ``cert_uncaught``, nothing is cached, and the run's
        trace passes ``profile --check``."""
        from repro import cli
        from repro.core.mhb import CycleAccuratePath
        from repro.core.rtl2mupath import (
            Rtl2MuPath,
            Rtl2MuPathConfig,
            _CoverCertifier,
        )
        from repro.designs import (
            ContextFamilyConfig,
            CoreContextProvider,
            build_core,
        )
        from repro.engine.specs import SynthesisJob, synthesis_jobs_for
        from repro.mc.stats import PropertyStats

        # the design and family tests/test_engine.py's jobs build, so the
        # job's memoized worker builds serve both files
        family = ContextFamilyConfig(
            horizon=24, neighbors=("DIV",), iuv_values=(0, 1),
            neighbor_values=(0, 1), include_deep=False,
        )
        design = build_core()
        tool = Rtl2MuPath(
            design,
            CoreContextProvider(xlen=design.config.xlen, config=family),
            config=Rtl2MuPathConfig(certify="full"),
        )
        (job,) = synthesis_jobs_for(tool, ["ADD"])
        executes = []
        real_execute = SynthesisJob.execute

        def counting_execute(self):
            executes.append(self.job_id)
            return real_execute(self)

        monkeypatch.setattr(SynthesisJob, "execute", counting_execute)
        # a replay that reproduces no visit refutes every cover witness
        monkeypatch.setattr(
            _CoverCertifier, "_replayed",
            lambda self, db, idx, iuv_pc: CycleAccuratePath(
                iuv="ADD", visits=()
            ),
        )
        trace = tmp_path / "trace.jsonl"
        stats = PropertyStats(label="t")
        engine = JobScheduler(EngineConfig(
            jobs=1, cache_dir=str(tmp_path / "cache"), trace_path=str(trace),
        ))
        manifest = engine.run([job], stats=stats).manifest
        refuted = sum(1 for r in stats.results if certificate_failed(r))
        assert refuted > 0
        assert executes == [job.job_id]
        assert manifest.attempts == 1
        assert manifest.cert_failures == manifest.cert_uncaught == refuted
        assert manifest.cache_stores == 0
        assert manifest.cache_skipped_nonfinal == 1
        assert manifest.reconciles(stats)
        assert cli.main(["profile", str(trace), "--check"]) == 0


class TestEndToEndCertifiedCampaign:
    def test_corpus_campaign_full_certify_clean(self, tmp_path):
        """Certified corpus campaign: checked certs, zero failures, and a
        warm-cache replay that re-verifies them on read-through."""
        jobs = reach_jobs_for_corpus(CORPUS, certify="full")[:6]
        engine = JobScheduler(EngineConfig(jobs=1, cache_dir=str(tmp_path)))
        stats_outcome = engine.run(jobs)
        manifest = stats_outcome.manifest
        assert manifest.cert_checked > 0
        assert manifest.cert_failures == 0
        assert manifest.cert_uncaught == 0
        engine2 = JobScheduler(EngineConfig(jobs=1, cache_dir=str(tmp_path)))
        replayed = engine2.run(jobs)
        assert replayed.manifest.cache_hits == len(jobs)
        assert replayed.manifest.cert_checked == manifest.cert_checked
        assert replayed.results == stats_outcome.results
        assert replayed.manifest.cache_quarantined == 0

    def test_uncertified_manifest_keeps_pre_cert_shape(self, tmp_path):
        jobs = reach_jobs_for_corpus(CORPUS)[:2]
        outcome = JobScheduler(
            EngineConfig(jobs=1, cache_dir=str(tmp_path))
        ).run(jobs)
        payload = outcome.manifest.to_dict()
        assert not any(k.startswith("cert") for k in payload)


# -------------------------------------------------------------------- policy
class TestCertifyPolicy:
    """The ``--certify`` modes and what each one certifies."""

    def test_modes(self):
        """``--certify`` is ``off`` or ``full``; any other mode raises,
        ``spot`` included, wherever a config or job carries it."""
        from repro.core.rtl2mupath import Rtl2MuPathConfig

        assert certify_flag("off") is False
        assert certify_flag("full") is True
        for mode in ("spot", "sometimes"):
            with pytest.raises(ValueError):
                certify_flag(mode)
            with pytest.raises(ValueError):
                Rtl2MuPathConfig(certify=mode).certified
        job = reach_jobs_for_corpus(CORPUS)[0]
        with pytest.raises(ValueError):
            replace(job, certify="spot").execute()

    def test_undetermined_never_certified(self):
        """A budget-starved solve yields UNDETERMINED with no certificate."""
        for path in _corpus_paths():
            design = build_design(load_reproducer(path))
            for probe in design.probe_names:
                ctx = BmcContext(
                    design.netlist, horizon=4, conflict_budget=1, certify=True
                )
                result = ctx.check(
                    Query("reach_%s" % probe, Eventually(sig(probe)))
                )
                if result.outcome not in (REACHABLE, UNREACHABLE):
                    assert result.certificate is None
                    return
        pytest.skip("conflict_budget=1 still decided every corpus query")


# ---------------------------------------------------- cover-witness replay
class TestCoverWitnessCertificates:
    """Enumerative cover verdicts certify by context replay (DESIGN SS5j)."""

    @pytest.fixture(scope="class")
    def certified_synthesis(self, core_design, core_provider):
        from repro.core.rtl2mupath import Rtl2MuPath, Rtl2MuPathConfig

        tool = Rtl2MuPath(
            core_design,
            core_provider,
            config=Rtl2MuPathConfig(certify="full"),
        )
        result = tool.synthesize("ADD")
        return tool, result

    def test_full_mode_covers_carry_verified_certs(self, certified_synthesis):
        tool, _result = certified_synthesis
        covers = [
            r for r in tool.stats.results
            if r.certificate is not None
            and r.certificate["kind"] == "cover-witness"
        ]
        assert covers, "full mode produced no cover-witness certificates"
        for r in covers:
            assert r.outcome == REACHABLE  # only witnessed verdicts certify
            assert r.certificate["verified"] is True
            assert verify_certificate_digest(r.certificate)
        # no finite witness exists for enumerative UNREACHABLE/UNDETERMINED
        assert all(
            r.certificate is None
            for r in tool.stats.results
            if r.outcome != REACHABLE
        )

    def test_off_mode_covers_carry_none(self, mupath_tool, mupath_add):
        assert all(r.certificate is None for r in mupath_tool.stats.results)

    def test_parity_with_uncertified_run(
        self, certified_synthesis, mupath_add
    ):
        _tool, result = certified_synthesis
        assert {u.pl_set for u in result.upaths} == {
            u.pl_set for u in mupath_add.upaths
        }

    def test_tampered_cover_witness_fails(self, core_design, core_provider):
        from repro.core.mhb import CycleAccuratePath
        from repro.core.rtl2mupath import VisitIndex, _CoverCertifier
        from repro.mc.enumerative import TraceDB

        group = core_provider.mupath_groups("ADD")[0]
        db = TraceDB(core_design.netlist, group.contexts, group.complete)
        index = VisitIndex(db, core_design.metadata, group.iuv_pc)
        certifier = _CoverCertifier(
            core_design.netlist, core_design.metadata.pls, True
        )
        certifier.add_index(db, index)
        witness = next(p for p in index.paths if p.pl_set)
        pred = lambda p, want=witness.pl_set: want <= p.pl_set

        good = certifier.certify("cover_ok", witness, pred)
        assert good["verified"] is True

        # forge the witness: claim one extra visit cycle the replayed
        # context does not reproduce
        doctored = CycleAccuratePath(
            iuv=witness.iuv,
            visits=witness.visits + (frozenset({"IF"}),),
        )
        certifier._src[doctored] = certifier._src[witness]
        bad = certifier.certify("cover_forged", doctored, pred)
        assert bad["verified"] is False
        assert certificate_failed(bad)
