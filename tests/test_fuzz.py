"""repro.fuzz subsystem tests: generator, oracle, shrinker, campaign.

The injected-mutation tests monkeypatch ``repro.sim.simulator.compile_netlist``
so every *newly constructed* Simulator (the oracle builds fresh ones per
check) sees a corrupted step function, while the independent RefModel and
the bit-blaster keep computing the true semantics -- exactly the failure
the differential oracle exists to catch.
"""

import glob
import json
import os
import random
from dataclasses import replace

import pytest

import repro.fuzz.campaign as campaign_module
import repro.mc.bmc as bmc_module
import repro.sim.simulator as simulator_mod
from repro.fuzz import (
    GenProfile,
    OracleConfig,
    build_design,
    check_design,
    sample_spec,
    shrink_spec,
    spec_from_json,
    spec_to_json,
)
from repro.fuzz.campaign import (
    CampaignConfig,
    focused_predicate,
    load_reproducer,
    run_campaign,
)
from repro.fuzz.metamorphic import TRANSFORMS
from repro.mc import REACHABLE, UNREACHABLE
from repro.mc.incremental import InductionPool
from repro.sim.simulator import Simulator

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")
# the e2e fuzz-oracle workload's corpus: the first 28 designs of the
# seed-7 campaign (86 k-induction probes)
E2E_FUZZ_SEEDS = [7 * 1000003 + i for i in range(28)]

_real_compile = simulator_mod.compile_netlist


def _corrupting_compile(netlist):
    """Like compile_netlist, but the first observable's bit 0 is flipped."""
    step, names = _real_compile(netlist)

    def bad_step(state, inputs):
        next_state, obs = step(state, inputs)
        if obs:
            obs = (obs[0] ^ 1,) + obs[1:]
        return next_state, obs

    return bad_step, names


@pytest.fixture
def broken_simulator(monkeypatch):
    monkeypatch.setattr(simulator_mod, "compile_netlist", _corrupting_compile)


class TestGenerator:
    def test_sampling_is_deterministic(self):
        for seed in range(20):
            a = sample_spec(seed)
            b = sample_spec(seed)
            assert spec_to_json(a) == spec_to_json(b)
            assert repr(build_design(a).netlist) == repr(build_design(b).netlist)

    def test_specs_round_trip_through_json(self):
        for seed in range(20):
            spec = sample_spec(seed)
            again = spec_from_json(spec_to_json(spec))
            assert again == spec
            assert repr(build_design(again).netlist) == \
                repr(build_design(spec).netlist)

    def test_profile_bounds_are_respected(self):
        profile = GenProfile(min_width=2, max_width=4, max_inputs=2,
                             max_regs=2, min_ops=3, max_ops=6)
        for seed in range(30):
            spec = sample_spec(seed, profile)
            spec.validate()
            assert 2 <= spec.width <= 4
            assert len(spec.inputs) <= 2
            assert len(spec.registers) <= 2
            # the FSM pattern may append up to 4 helper ops past max_ops
            assert 3 <= len(spec.ops) <= 6 + 4

    def test_reference_model_matches_compiled_simulator(self):
        rng = random.Random(7)
        for seed in range(12):
            design = build_design(sample_spec(seed))
            sim = Simulator(design.netlist)
            ref = design.ref()
            sim.reset()
            ref.reset()
            for _ in range(12):
                cycle = {
                    inp.name: rng.choice(inp.alphabet)
                    for inp in design.spec.inputs if inp.tied is None
                }
                assert sim.step(cycle) == ref.step(cycle)


class TestOracle:
    def test_clean_designs_produce_no_disagreements(self):
        for seed in range(8):
            report = check_design(build_design(sample_spec(seed)))
            assert report.ok, report.disagreements

    def test_undetermined_is_recorded_but_never_a_disagreement(self):
        # seed 32's k-induction punts (UNDETERMINED) while the bounded
        # engines answer definitely; the lattice bottom must not count
        # as a contradiction
        report = check_design(build_design(sample_spec(32)))
        assert report.undetermined >= 1
        assert report.ok

    def test_oracle_catches_injected_simulator_mutation(self, broken_simulator):
        report = check_design(build_design(sample_spec(2)))
        assert not report.ok
        assert report.disagreements[0].kind == "ref-sim"

    def test_focused_config_restricts_check_kinds(self):
        config = OracleConfig().only("ref")
        assert config.check_kinds == ("ref",)
        report = check_design(build_design(sample_spec(0)), config)
        assert report.ok
        assert not report.verdicts  # engine families never ran


@pytest.fixture(scope="module")
def e2e_corpus():
    profile = CampaignConfig().profile
    return [build_design(sample_spec(seed, profile)) for seed in E2E_FUZZ_SEEDS]


class TestOracleInductionPool:
    """The k-induction leg proves through ``InductionPool``, the prover
    DUV PL pruning runs, with one pool per design."""

    def test_planted_pool_flip_is_caught(self, e2e_corpus, monkeypatch):
        real_prove = InductionPool.prove

        def flipped(self, *args, **kwargs):
            result = real_prove(self, *args, **kwargs)
            if result.outcome == REACHABLE:  # MUTANT: a witness reads as a proof
                return replace(result, outcome=UNREACHABLE)
            return result

        monkeypatch.setattr(InductionPool, "prove", flipped)
        caught = []
        for design in e2e_corpus:
            report = check_design(design)
            if report.disagreements:
                first = report.disagreements[0]
                assert first.kind == "verdict"
                assert first.verdicts["kinduction"] == UNREACHABLE
                caught.append(design.spec.name)
        # a flipped witness contradicts the bounded engines wherever they
        # reach the same probe: 22 of the 23 designs with a base-case witness
        assert len(caught) == 22, caught

    def test_one_pool_per_design_shared_by_its_probes(self, e2e_corpus,
                                                      monkeypatch):
        pools = []
        real_prove = InductionPool.prove

        def spy(self, *args, **kwargs):
            pools.append(self)
            return real_prove(self, *args, **kwargs)

        monkeypatch.setattr(InductionPool, "prove", spy)
        per_design = []
        for design in e2e_corpus:
            before = len(pools)
            report = check_design(design)
            assert report.ok, report.disagreements
            proved = pools[before:]
            assert len(proved) == sum(
                count for key, count in report.verdicts.items()
                if key.startswith("kinduction:"))
            assert len({id(pool) for pool in proved}) <= 1
            per_design += proved[:1]
        assert len(pools) == 86
        assert len({id(pool) for pool in per_design}) == len(per_design)


class TestSharedUnrolling:
    """BMC, both k-induction provers and the blast leg unroll through one
    ``repro.mc.bmc.Unrolling``, so a bug in it moves every SAT leg at
    once and the parity suite cannot see it; the oracle's simulator legs
    must."""

    def test_planted_unchained_frames_are_caught(self, e2e_corpus, monkeypatch):
        assert all(check_design(design).ok for design in e2e_corpus)
        real_blast = bmc_module.blast_frame
        initial = {}

        def from_initial(builder, netlist, state, inputs):
            # MUTANT: every frame is blasted from the initial state
            state = initial.setdefault(builder, state)
            return real_blast(builder, netlist, state, inputs)

        monkeypatch.setattr(bmc_module, "blast_frame", from_initial)
        caught = {}
        for design in e2e_corpus:
            report = check_design(design)
            if report.disagreements:
                caught[design.spec.name] = report.disagreements[0].kind
        # 13 of the 28 designs fail the blast leg first, 2 more a
        # verdict check
        assert len(caught) == 15, caught
        assert set(caught.values()) == {"sim-blast", "verdict"}


class TestShrink:
    def test_shrunk_reproducer_still_fails_and_is_no_larger(
            self, broken_simulator):
        spec = sample_spec(2)
        design = build_design(spec)
        report = check_design(design)
        assert not report.ok
        predicate = focused_predicate(report.disagreements[0], OracleConfig())
        shrunk = shrink_spec(spec, predicate, max_evals=200)
        shrunk.validate()
        assert predicate(shrunk), "shrunk spec no longer reproduces"
        assert build_design(shrunk).num_cells <= design.num_cells

    def test_shrink_is_identity_on_unshrinkable_failures(self):
        spec = sample_spec(0)
        shrunk = shrink_spec(spec, lambda candidate: False, max_evals=50)
        assert shrunk == spec


class TestCampaign:
    def test_clean_campaign_writes_nothing(self, tmp_path):
        config = CampaignConfig(seed=0, budget_seconds=30.0, max_designs=3,
                                out_dir=str(tmp_path / "out"))
        result = run_campaign(config)
        assert result.ok
        assert result.designs == 3
        assert not result.reproducers
        assert not (tmp_path / "out").exists()

    def test_campaign_shrinks_and_persists_disagreements(
            self, tmp_path, broken_simulator, monkeypatch):
        monkeypatch.setattr(campaign_module, "SHRINK_BUDGET_SECONDS", 10.0)
        out = tmp_path / "out"
        config = CampaignConfig(seed=0, budget_seconds=60.0, max_designs=2,
                                out_dir=str(out))
        result = run_campaign(config)
        assert not result.ok
        assert result.reproducers
        assert "DISAGREEMENTS" in result.summary()
        for path in result.reproducers:
            payload = json.loads(open(path).read())
            assert payload["version"] == 1
            assert payload["disagreement"]["kind"] == "ref-sim"
            spec = load_reproducer(path)
            spec.validate()
            build_design(spec)


class TestMetamorphicRandomDesigns:
    def test_transforms_preserve_named_signal_semantics(self):
        rng = random.Random(21)
        for seed in (3, 7, 11):
            design = build_design(sample_spec(seed))
            cycles = [
                {
                    inp.name: rng.choice(inp.alphabet)
                    for inp in design.spec.inputs if inp.tied is None
                }
                for _ in range(8)
            ]
            base = Simulator(design.netlist)
            base.reset()
            baseline = [base.step(cycle) for cycle in cycles]
            for name, transform in sorted(TRANSFORMS.items()):
                variant = Simulator(transform(design.netlist, seed=seed))
                variant.reset()
                for t, cycle in enumerate(cycles):
                    got = variant.step(cycle)
                    for signal, want in baseline[t].items():
                        assert got[signal] == want, (
                            "%s diverged on %s at cycle %d for seed %d"
                            % (name, signal, t, seed))


class TestCorpusReplay:
    def test_corpus_is_seeded(self):
        files = glob.glob(os.path.join(CORPUS_DIR, "*.json"))
        assert len(files) >= 10

    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(CORPUS_DIR, "*.json"))),
        ids=lambda p: os.path.splitext(os.path.basename(p))[0])
    def test_corpus_design_replays_clean(self, path):
        spec = load_reproducer(path)
        spec.validate()
        report = check_design(build_design(spec))
        assert report.ok, report.disagreements


class TestCli:
    def test_fuzz_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fuzz-out"
        rc = main(["fuzz", "--seed", "0", "--budget", "20",
                   "--max-designs", "3", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "no oracle disagreements" in captured
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ok"] is True
        assert summary["designs"] == 3

    def test_fuzz_spans_and_counters_reach_profile(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "fuzz.jsonl"
        metrics = tmp_path / "metrics.prom"
        rc = main(["fuzz", "--seed", "0", "--budget", "20",
                   "--max-designs", "2", "--out", str(tmp_path / "o"),
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        capsys.readouterr()
        spans = {json.loads(line).get("name")
                 for line in trace.read_text().splitlines()}
        assert {"fuzz.campaign", "fuzz.design", "fuzz.oracle"} <= spans
        assert "repro_fuzz_checks_total" in metrics.read_text()

        rc = main(["profile", str(trace)])
        assert rc == 0
        assert "fuzz.oracle" in capsys.readouterr().out
