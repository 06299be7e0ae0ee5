"""Perf-model tests: golden tables, differential agreement, mutation oracle.

The three layers under test:

* the model compiler (``repro.perf.model``) -- per-instruction latency
  tables calibrated from solo μPATH probes must match the RTL's known
  timing behavior on every corpus design;
* the cycle predictor (``repro.perf.predict``) -- exact cycle agreement
  with :mod:`repro.sim` across hundreds of seeded fuzzed sequences per
  design (the zero-false-positive bar the differential oracle needs);
* the oracle (``repro.perf.oracle``) -- injected model defects (a wrong
  latency; a deleted μPATH) must be caught, classified on the right side
  of the model-bug / missed-μPATH lattice, and shrunk to tiny
  reproducers deterministically.
"""

import dataclasses
import json
import os

import pytest

from repro.core.mhb import CycleAccuratePath
from repro.designs import build_core, build_cva6_mul, build_fixed_core
from repro.designs.core import CoreConfig
from repro.designs.harness import STRAIGHT_LINE_POOL, sample_sequence
from repro.perf import (
    CLASS_MISSED_UPATH,
    CLASS_MODEL_BUG,
    PerfCampaignConfig,
    check_sequence,
    collect_upath_summaries,
    compile_model,
    load_perf_reproducer,
    mutate_latency,
    predict_program,
    run_perf_campaign,
    shrink_mismatch,
    write_perf_reproducer,
)
from repro.perf import model as perf_model
from repro.perf.model import replace_model
from repro.sim import Simulator

XLEN = 4
CALIBRATION_IUVS = ["ADD", "MUL", "DIV", "DIVU", "LW", "SW"]
DESIGN_BUILDERS = {
    "core": lambda: build_core(CoreConfig(xlen=XLEN)),
    "cva6-mul": lambda: build_cva6_mul(xlen=XLEN),
    "fixed": lambda: build_fixed_core(xlen=XLEN),
}

_cache = {}


def _calibrated(design):
    """``design``'s perf model, from the calibration IUVs' probes."""
    summaries = collect_upath_summaries(design, CALIBRATION_IUVS)
    return compile_model(design, summaries, names=STRAIGHT_LINE_POOL)


def _compiled(name):
    """(design, sim, model) for a corpus design, compiled once per run."""
    if name not in _cache:
        design = DESIGN_BUILDERS[name]()
        _cache[name] = (design, Simulator(design.netlist), _calibrated(design))
    return _cache[name]


class TestGoldenTables:
    """Compiled latency tables vs the RTL's documented timing."""

    def test_add_is_single_cycle_constant_time(self):
        _, _, model = _compiled("core")
        timing = model.instrs["ADD"]
        assert timing.features == ()
        assert dict(timing.latency_table) == {(): 1}
        assert timing.observed_latencies == frozenset({1})

    def test_load_is_single_cycle_unstalled(self):
        _, _, model = _compiled("core")
        timing = model.instrs["LW"]
        assert dict(timing.latency_table) == {(): 1}
        # the synthesized set still carries the stalled-load μPATH evidence
        assert "ldStall" in model.upath_run_lengths("LW")

    def test_store_occupies_no_unit_cycles(self):
        _, _, model = _compiled("core")
        assert dict(model.instrs["SW"].latency_table) == {(): 0}

    def test_baseline_mul_is_constant_time(self):
        _, _, model = _compiled("core")
        timing = model.instrs["MUL"]
        assert timing.features == ()
        assert dict(timing.latency_table) == {(): 2}

    def test_zero_skip_mul_is_operand_dependent(self):
        _, _, model = _compiled("cva6-mul")
        timing = model.instrs["MUL"]
        assert timing.features == ("zero_any",)
        assert dict(timing.latency_table) == {(1,): 1, (0,): 4}
        assert timing.operand_dependent

    def test_div_table_tracks_dividend_magnitude_and_signs(self):
        _, _, model = _compiled("core")
        div, divu = model.instrs["DIV"], model.instrs["DIVU"]
        assert div.features == ("rs1_zero", "rs1_msb", "rs2_neg")
        assert divu.features == ("rs1_zero", "rs1_msb")
        # zero dividend short-circuits; otherwise latency grows with msb
        assert div.min_latency == 1 and div.max_latency == 6
        assert divu.max_latency == 5
        assert div.latency(0, 3, XLEN) == 1
        assert divu.latency(1, 1, XLEN) < divu.latency(8, 1, XLEN)

    def test_class_representatives_cover_whole_pool(self):
        _, _, model = _compiled("core")
        assert set(STRAIGHT_LINE_POOL) <= model.supported
        # non-probed members inherit their representative's table
        assert (
            dict(model.instrs["SUB"].latency_table)
            == dict(model.instrs["ADD"].latency_table)
        )
        assert model.instrs["REM"].source == "DIV"

    def test_hazard_rules_compiled(self):
        _, _, model = _compiled("core")
        assert model.hazard("raw") is not None
        assert model.hazard("scoreboard") is not None
        for unit in ("mul", "div", "load", "store"):
            assert model.hazard("structural", unit) is not None, unit
        assert model.hazard("st_ld_offset") is not None
        assert model.hazard("st_drain_port") is not None
        div_rule = model.hazard("structural", "div")
        assert div_rule.operand_dependent


#: every compiled model of the designs below, ``to_dict()`` as JSON
PINNED_MODELS = os.path.join(os.path.dirname(__file__), "fixtures", "perf_models.json")


def _as_json(model):
    """``model.to_dict()`` as its JSON fixture holds it."""
    return json.loads(json.dumps(model.to_dict()))


def _model_dict(name):
    if name == "core-xlen8":
        return _as_json(_calibrated(build_core(CoreConfig(xlen=8))))
    return _as_json(_compiled("core" if name == "core-xlen4" else name)[2])


class TestPinnedModels:
    """Each compiled model whole: every latency table, observed-latency
    set, hazard rule and source run length, against the models recorded
    before the probes read their paths with ``extract_path``."""

    @pytest.fixture(scope="class")
    def pinned(self):
        with open(PINNED_MODELS, encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("name", ["core-xlen4", "core-xlen8", "cva6-mul", "fixed"])
    def test_compiled_model_matches_fixture(self, pinned, name):
        assert _model_dict(name) == pinned[name]

    def test_planted_late_issue_read_is_caught(self, pinned, monkeypatch):
        """A probe that reads the issue visit one row late."""
        real = perf_model.extract_path

        def late_issue(*args, **kwargs):
            visits = real(*args, **kwargs).visits + (frozenset(),)
            return CycleAccuratePath.from_cycles("late", [
                visit - {"issue"} | ({"issue"} if t and "issue" in visits[t - 1] else set())
                for t, visit in enumerate(visits)
            ])

        monkeypatch.setattr(perf_model, "extract_path", late_issue)
        model = _calibrated(DESIGN_BUILDERS["core"]())
        assert _as_json(model) != pinned["core-xlen4"]


class TestDifferentialAgreement:
    """Predictor vs RTL simulation: exact cycle agreement, per design."""

    SEQUENCES = 500

    @pytest.mark.parametrize("name", sorted(DESIGN_BUILDERS))
    def test_exact_agreement_on_seeded_corpus(self, name):
        design, sim, model = _compiled(name)
        for seed in range(self.SEQUENCES):
            program, arf_init = sample_sequence(seed, xlen=XLEN)
            mismatch = check_sequence(design, sim, model, program, arf_init,
                                      seed=seed)
            assert mismatch is None, (name, seed, mismatch and mismatch.brief())

    @pytest.mark.parametrize("name", sorted(DESIGN_BUILDERS))
    def test_store_load_store_agrees(self, name):
        """The predictor's stalled load waits on older stores only, as
        the core's does, so these runs quiesce on both sides."""
        from repro.designs import isa

        design, sim, model = _compiled(name)
        for names in (("SB", "LW", "SW"), ("SW", "LW", "SW")):
            program = [isa.encode(n) for n in names]
            mismatch = check_sequence(design, sim, model, program, [0] * 8)
            assert mismatch is None, (name, names, mismatch and mismatch.brief())

    def test_prediction_reports_per_instruction_retires(self):
        design, sim, model = _compiled("core")
        from repro.designs import run_program

        program, arf_init = sample_sequence(11, xlen=XLEN, min_len=4)
        run = run_program(sim, program, arf_init)
        pred = predict_program(model, program, arf_init)
        assert pred.cycles == run.cycles
        assert pred.retire == run.retire
        assert pred.arf == run.arf and pred.mem == run.mem

    def test_stall_accounting_sums_to_observed_slowdown(self):
        _, _, model = _compiled("core")
        from repro.designs import isa

        dep = [
            isa.encode("ADDI", rd=1, rs1=0, rs2=7),
            isa.encode("DIV", rd=2, rs1=1, rs2=1),
        ]
        pred = predict_program(model, dep)
        assert pred.stalls["raw"] > 0
        assert pred.stall_cycles == sum(pred.stalls.values())


def _delete_div_upath(model, lat=6):
    """Simulate an incomplete synthesis: DIV's longest μPATH was missed."""
    timing = model.instrs["DIV"]
    mutated = dataclasses.replace(
        timing,
        latency_table={
            key: val for key, val in timing.latency_table.items() if val != lat
        },
        observed_latencies=frozenset(timing.observed_latencies - {lat}),
    )
    instrs = dict(model.instrs)
    instrs["DIV"] = mutated
    sources = {iuv: dict(pls) for iuv, pls in model.sources.items()}
    runs = sources.get("DIV", {}).get("divU")
    if runs:
        sources["DIV"]["divU"] = tuple(r for r in runs if r != lat)
    return replace_model(model, instrs=instrs, sources=sources)


def _first_mismatch(design, sim, model, want_class, max_seeds=300):
    for seed in range(max_seeds):
        program, arf_init = sample_sequence(seed, xlen=XLEN)
        mismatch = check_sequence(design, sim, model, program, arf_init,
                                  seed=seed)
        if mismatch is not None and mismatch.classification == want_class:
            return mismatch
    return None


class TestMutationOracle:
    """Injected defects must be caught, classified, and shrunk small."""

    def test_wrong_latency_classified_as_model_bug(self):
        design, sim, model = _compiled("core")
        mutated = mutate_latency(model, "MUL", +1)
        mismatch = _first_mismatch(design, sim, mutated, CLASS_MODEL_BUG)
        assert mismatch is not None, "wrong-latency mutation went undetected"
        assert mismatch.predicted_cycles != mismatch.actual_cycles
        shrunk = shrink_mismatch(design, sim, mutated, mismatch)
        assert shrunk.classification == CLASS_MODEL_BUG
        assert len(shrunk.program) <= 8
        assert any(
            name.startswith("MUL") for name in shrunk.to_dict()["asm"]
        ), shrunk.to_dict()["asm"]

    def test_deleted_upath_classified_as_missed_upath(self):
        design, sim, model = _compiled("core")
        mutated = _delete_div_upath(model)
        mismatch = _first_mismatch(design, sim, mutated, CLASS_MISSED_UPATH)
        assert mismatch is not None, "deleted-μPATH mutation went undetected"
        # the reproducer carries the (incomplete) synthesized μPATH set
        assert mismatch.upath_set, mismatch.brief()
        shrunk = shrink_mismatch(design, sim, mutated, mismatch)
        assert shrunk.classification == CLASS_MISSED_UPATH
        assert len(shrunk.program) <= 8

    def test_shrinker_is_deterministic(self):
        design, sim, model = _compiled("core")
        mutated = mutate_latency(model, "MUL", +1)
        mismatch = _first_mismatch(design, sim, mutated, CLASS_MODEL_BUG)
        assert mismatch is not None
        a = shrink_mismatch(design, sim, mutated, mismatch)
        b = shrink_mismatch(design, sim, mutated, mismatch)
        assert a.program == b.program
        assert a.arf_init == b.arf_init
        assert a.classification == b.classification

    def test_reproducer_roundtrip(self, tmp_path):
        design, sim, model = _compiled("core")
        mutated = mutate_latency(model, "MUL", +1)
        mismatch = _first_mismatch(design, sim, mutated, CLASS_MODEL_BUG)
        shrunk = shrink_mismatch(design, sim, mutated, mismatch)
        path = write_perf_reproducer(
            str(tmp_path), shrunk, xlen=XLEN, shrunk_from=len(mismatch.program)
        )
        program, arf_init, payload = load_perf_reproducer(path)
        assert program == list(shrunk.program)
        assert arf_init == list(shrunk.arf_init)
        assert payload["kind"] == "perf" and payload["xlen"] == XLEN
        assert payload["shrunk_from"] == len(mismatch.program)
        # the reproducer still reproduces
        replay = check_sequence(design, sim, mutated, program, arf_init)
        assert replay is not None
        assert replay.classification == CLASS_MODEL_BUG


class TestCampaign:
    def test_clean_campaign_agrees(self, tmp_path):
        design, _, model = _compiled("cva6-mul")
        result = run_perf_campaign(
            design,
            model,
            PerfCampaignConfig(
                seed=1,
                budget_seconds=30.0,
                max_sequences=60,
                out_dir=str(tmp_path),
            ),
        )
        assert result.ok
        assert result.sequences == result.agreements == 60
        assert result.unclassified == 0
        assert "exact cycle agreement" in result.summary()

    def test_campaign_predicts_each_sequence_once(self, tmp_path, monkeypatch):
        """The stall accounting reuses ``check_sequence``'s prediction."""
        import repro.perf.oracle as oracle

        design, _, model = _compiled("cva6-mul")
        programs = []
        real = oracle.predict_program

        def counting(model, program, arf_init):
            programs.append(list(program))
            return real(model, program, arf_init)

        monkeypatch.setattr(oracle, "predict_program", counting)
        result = run_perf_campaign(
            design, model,
            PerfCampaignConfig(seed=1, budget_seconds=30.0, max_sequences=20,
                               out_dir=str(tmp_path), shrink=False),
        )
        monkeypatch.undo()
        assert result.sequences == len(programs) == 20
        stalls = {}
        for index in range(20):
            program, arf_init = sample_sequence(
                oracle._SEED_STRIDE + index, xlen=model.xlen, nregs=model.nregs
            )
            assert program == programs[index]
            for cls, count in predict_program(model, program, arf_init).stalls.items():
                if count:
                    stalls[cls] = stalls.get(cls, 0) + count
        assert stalls and result.predicted_stalls == stalls

    def test_buggy_campaign_reports_and_writes_reproducers(self, tmp_path):
        design, _, model = _compiled("core")
        mutated = mutate_latency(model, "MUL", +1)
        result = run_perf_campaign(
            design,
            mutated,
            PerfCampaignConfig(
                seed=0,
                budget_seconds=30.0,
                max_sequences=80,
                out_dir=str(tmp_path),
            ),
        )
        assert not result.ok
        assert result.by_class.get(CLASS_MODEL_BUG, 0) > 0
        assert result.reproducers
        for path in result.reproducers:
            program, _, payload = load_perf_reproducer(path)
            assert payload["version"] >= 1
            assert len(program) <= 8


class TestTimingVariability:
    def test_timing_variability_matches_synthlc_labels(self):
        from repro.report import timing_variability_rows

        _, _, baseline = _compiled("core")
        _, _, zeroskip = _compiled("cva6-mul")
        base = {r[0]: r[4] for r in timing_variability_rows(baseline)}
        fast = {r[0]: r[4] for r in timing_variability_rows(zeroskip)}
        # operand transmitters show nonzero deltas, constant-time show zero
        assert base["ADD"] == 0 and fast["ADD"] == 0
        assert base["MUL"] == 0  # baseline multiplier is constant-time
        assert fast["MUL"] > 0  # zero-skip multiplier leaks operand info
        assert base["DIV"] > 0 and fast["DIV"] > 0
