"""Differential tests of the distinct-observation cover evaluators.

Covers are answered once per distinct observation (DESIGN SS5n): synthesis
scans distinct μPATHs, the enumerative engine distinct traces, and the
induction pool takes every signal's support from one pass.  Each is
checked here against the per-context loop it replaced, kept below as the
reference:

* ``reference_synthesize`` -- the per-path cover loops of
  ``Rtl2MuPath._synthesize``; results and property records (certificates
  included, under ``certify="full"``) must be identical;
* ``reference_check`` -- the per-context scan of
  ``EnumerativeEngine.check``; outcome, witness, depth and solver dict
  must be identical;
* ``reference_supports`` -- one ``coi_cone`` walk per name.

Planted bugs (a witness from the last matching distinct value, paths
deduplicated by PL set alone, a closure without register-to-register
edges) must fail them.
"""

import random
import time
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.rtl2mupath as rtl2mupath_mod
import repro.core.synthlc as synthlc_mod
import repro.rtl.coi as coi_mod
from repro.core import Rtl2MuPath, SynthLC
from repro.core.decisions import extract_decisions
from repro.core.rtl2mupath import (
    MuPathResult,
    Rtl2MuPathConfig,
    UPathSummary,
    VisitIndex,
    _CoverCertifier,
)
from repro.designs import ContextFamilyConfig, CoreContextProvider, build_core
from repro.designs.cache import CacheContextProvider, build_cache
from repro.designs.core import CoreConfig
from repro.designs.variants import build_cva6_mul, build_cva6_op
from repro.engine import EngineConfig, JobScheduler
from repro.fuzz import CampaignConfig, build_design, sample_spec
from repro.fuzz.campaign import load_reproducer
from repro.fuzz.oracle import (
    RNG_SEED,
    TRUNCATED_CONTEXTS,
    OracleConfig,
    _input_sequences,
    _queries,
)
from repro.mc.enumerative import Context, EnumerativeEngine, TraceDB
from repro.mc.incremental import InductionPool
from repro.mc.outcomes import REACHABLE, UNDETERMINED, UNREACHABLE, CheckResult
from repro.props.views import ConcreteOps
from repro.rtl.coi import coi_cone, coi_supports

from test_sim_emitter import CORPUS, SMOKE_FAMILY

CVA6_MUL_FAMILY = ContextFamilyConfig(
    horizon=40, neighbors=("ADD",), iuv_values=(0, 1, 5, 255), neighbor_values=(0, 1),
)
# the first designs of the e2e benchmark's fuzz corpus (the seed-7
# campaign): families of up to 4,096 contexts over a few dozen traces
CAMPAIGN_SEEDS = [7 * 1000003 + i for i in range(12)]
FAMILIES = {
    "core": (
        lambda: build_core(CoreConfig(xlen=4)),
        lambda: CoreContextProvider(xlen=4, config=SMOKE_FAMILY),
        ("ADD", "DIV", "LW"),
    ),
    "cache": (build_cache, lambda: CacheContextProvider(horizon=40), ("LD", "ST")),
    "cva6-mul": (
        build_cva6_mul,
        lambda: CoreContextProvider(xlen=8, config=CVA6_MUL_FAMILY),
        ("MUL",),
    ),
}


# ------------------------------------------------------------ (a) synthesis
def reference_synthesize(tool, iuv_name):
    """One scan of every path per cover: ``_synthesize``'s reference."""
    cfg = tool.config
    groups = tool.provider.mupath_groups(iuv_name)
    certifier = _CoverCertifier(tool.netlist, tool.metadata.pls, cfg.certified)
    indexes = []
    truncated = False
    for group in groups:
        db = TraceDB.shared(tool.netlist, group.contexts, group.complete)
        index = VisitIndex(db, tool.metadata, group.iuv_pc)
        indexes.append(index)
        certifier.add_index(db, index)
        truncated = truncated or not group.complete
    all_paths = [path for index in indexes for path in index.paths]
    complete = not truncated

    def cover(name, pred, paths, outcome_of=None):
        started = time.perf_counter()
        witness = next((p for p in paths if pred(p)), None)
        outcome = (
            outcome_of(witness)
            if outcome_of
            else tool._cover_outcome(witness is not None, complete)
        )
        tool._record(
            name, outcome, started,
            certificate=certifier.certify(name, witness, pred),
        )
        return witness, outcome

    duv_pls = tool._duv_pls or frozenset(tool.metadata.pls)
    iuv_pls = set()
    for pl_name in sorted(duv_pls & set(tool.metadata.pls)):
        witness, _ = cover(
            "iuvpl_%s_%s" % (iuv_name, pl_name),
            lambda p, pl=pl_name: pl in p.pl_set,
            all_paths,
        )
        if witness is not None:
            iuv_pls.add(pl_name)
    iuv_pl_list = sorted(iuv_pls)

    dominates = set()
    for pl0 in iuv_pl_list:
        for pl1 in iuv_pl_list:
            if pl0 == pl1:
                continue
            _, outcome = cover(
                "dom_%s_%s_%s" % (iuv_name, pl0, pl1),
                lambda p, a=pl0, b=pl1: b in p.pl_set and a not in p.pl_set,
                all_paths,
            )
            if tool._resolve(outcome) == UNREACHABLE:
                dominates.add((pl0, pl1))
    exclusive = set()
    for i, pl0 in enumerate(iuv_pl_list):
        for pl1 in iuv_pl_list[i + 1:]:
            _, outcome = cover(
                "excl_%s_%s_%s" % (iuv_name, pl0, pl1),
                lambda p, a=pl0, b=pl1: a in p.pl_set and b in p.pl_set,
                all_paths,
            )
            if tool._resolve(outcome) == UNREACHABLE:
                exclusive.add(frozenset((pl0, pl1)))

    candidates = tool._enumerate_candidates(iuv_pl_list, dominates, exclusive)
    observed = Counter(path.pl_set for path in all_paths)
    observed.pop(frozenset(), None)
    witness_by_set = {}
    for path in all_paths:
        witness_by_set.setdefault(path.pl_set, path)
    reachable_sets = []
    for cand in candidates:
        started = time.perf_counter()
        hit = cand in observed
        name = "plset_%s_{%s}" % (iuv_name, ",".join(sorted(cand)))
        tool._record(
            name, tool._cover_outcome(hit, complete), started,
            certificate=certifier.certify(
                name,
                witness_by_set.get(cand) if hit else None,
                lambda p, c=cand: p.pl_set == c,
            ),
        )
        if hit:
            reachable_sets.append(cand)
    for seen in observed:
        if seen not in candidates:
            reachable_sets.append(seen)

    conn = tool._pl_connectivity()
    upaths = []
    global_run_lengths = {}
    paths_by_set = {}
    for path in all_paths:
        if path.pl_set:
            paths_by_set.setdefault(path.pl_set, []).append(path)
    for pl_set in sorted(reachable_sets, key=sorted):
        set_paths = paths_by_set.get(pl_set, [])
        revisit = {}
        run_lengths = {}
        for pl in sorted(pl_set):
            consec_w, _ = cover(
                "revisit_c_%s_%s" % (iuv_name, pl),
                lambda p, pl=pl: p.revisit_kind(pl) in ("consecutive", "both"),
                set_paths,
            )
            nonconsec_w, _ = cover(
                "revisit_n_%s_%s" % (iuv_name, pl),
                lambda p, pl=pl: p.revisit_kind(pl) in ("nonconsecutive", "both"),
                set_paths,
            )
            consec, nonconsec = consec_w is not None, nonconsec_w is not None
            revisit[pl] = (
                "both" if consec and nonconsec
                else "consecutive" if consec
                else "nonconsecutive" if nonconsec
                else "none"
            )
            lengths = set()
            for p in set_paths:
                lengths.update(p.run_lengths(pl))
            for length in sorted(lengths):
                cover(
                    "runlen_%s_%s_%d" % (iuv_name, pl, length),
                    lambda p, pl=pl, n=length: n in p.run_lengths(pl),
                    set_paths,
                    outcome_of=lambda w: REACHABLE,
                )
            run_lengths[pl] = frozenset(lengths)
            global_run_lengths.setdefault(pl, set()).update(lengths)
        hb_edges = set()
        for pl0 in sorted(pl_set):
            for pl1 in sorted(pl_set):
                if pl1 not in conn.get(pl0, ()):
                    continue
                witness, _ = cover(
                    "hbedge_%s_%s_%s" % (iuv_name, pl0, pl1),
                    lambda p, a=pl0, b=pl1: tool._has_edge(p, a, b),
                    set_paths,
                )
                if witness is not None:
                    hb_edges.add((pl0, pl1))
        upaths.append(UPathSummary(
            pl_set=pl_set, revisit=revisit, hb_edges=frozenset(hb_edges),
            run_lengths=run_lengths, example=set_paths[0] if set_paths else None,
        ))

    unique_paths = {}
    for path in all_paths:
        if path.pl_set:
            unique_paths.setdefault(path.visits, path)
    concrete = sorted(unique_paths.values(), key=lambda p: (p.latency, sorted(p.pl_set)))
    return MuPathResult(
        iuv=iuv_name,
        iuv_pls=frozenset(iuv_pls),
        dominates=frozenset(dominates),
        exclusive=frozenset(exclusive),
        candidate_sets_considered=len(candidates),
        naive_power_set_size=2 ** len(iuv_pl_list),
        upaths=upaths,
        concrete_paths=concrete,
        decisions=extract_decisions(iuv_name, concrete),
        run_lengths={pl: frozenset(v) for pl, v in global_run_lengths.items()},
        truncated=truncated,
    )


def records(stats):
    return [
        (r.query_name, r.outcome, r.engine, r.detail, r.depth, r.certificate)
        for r in stats.results
    ]


def run_synthesis(family, synthesize):
    """(results, property records) of ``synthesize(tool, iuv)`` per IUV."""
    build_design_fn, build_provider, iuvs = FAMILIES[family]
    tool = Rtl2MuPath(
        build_design_fn(), build_provider(), Rtl2MuPathConfig(certify="full")
    )
    results = {iuv: synthesize(tool, iuv) for iuv in iuvs}
    return results, records(tool.stats)


@pytest.fixture(scope="module")
def synthesized():
    """family -> (distinct-scan run, reference run)."""
    return {
        family: (
            run_synthesis(family, Rtl2MuPath.synthesize),
            run_synthesis(family, reference_synthesize),
        )
        for family in FAMILIES
    }


@pytest.mark.parametrize("family", list(FAMILIES))
def test_synthesis_matches_per_path_reference(synthesized, family):
    (results, recs), (ref_results, ref_recs) = synthesized[family]
    assert results == ref_results
    assert recs == ref_recs
    certified = [rec for rec in recs if rec[5] is not None]
    assert certified and all(rec[5]["verified"] for rec in certified)


def test_reference_families_repeat_paths():
    # the families exercise deduplication: many contexts, few distinct paths
    tool = Rtl2MuPath(build_core(CoreConfig(xlen=4)),
                      CoreContextProvider(xlen=4, config=SMOKE_FAMILY))
    paths = [
        path
        for group in tool.provider.mupath_groups("DIV")
        for path in VisitIndex(
            TraceDB.shared(tool.netlist, group.contexts, group.complete),
            tool.metadata, group.iuv_pc,
        ).paths
    ]
    assert len(set(paths)) < len(paths) / 2
    assert len({p.pl_set for p in paths}) < len(set(paths))


def _last_matching_first(paths):
    # first occurrences, reversed: every scan then picks the *last*
    # matching distinct value
    return list(reversed(list(dict.fromkeys(paths))))


def _keyed_by_pl_set(paths):
    firsts = {}
    for path in paths:
        firsts.setdefault(path.pl_set, path)
    return list(firsts.values())


@pytest.mark.parametrize("planted", [_last_matching_first, _keyed_by_pl_set])
def test_planted_distinct_scan_bugs_are_caught(synthesized, monkeypatch, planted):
    monkeypatch.setattr(rtl2mupath_mod, "_first_occurrences", planted)
    caught = False
    for family in ("core", "cva6-mul"):
        (_, _), (ref_results, ref_recs) = synthesized[family]
        results, recs = run_synthesis(family, Rtl2MuPath.synthesize)
        caught = caught or results != ref_results or recs != ref_recs
    assert caught


# ------------------------------------------------- (b) enumerative engine
def reference_check(engine, query):
    """Every context in family order: ``EnumerativeEngine.check``'s reference."""
    db = engine.tracedb
    witness = None
    outcome = UNREACHABLE if db.complete else UNDETERMINED
    scanned = depth = 0
    for view in db.views:
        scanned += 1
        depth = max(depth, view.horizon)
        if not engine._satisfies_assumes(view, query.assumes):
            continue
        if query.prop.evaluate(view, ConcreteOps):
            outcome = REACHABLE
            witness = view.as_dicts()
            break
    return CheckResult(
        query_name=query.name,
        outcome=outcome,
        engine=engine.name,
        witness=witness,
        detail="" if db.complete else "context family truncated",
        depth=depth,
        solver={"contexts_scanned": scanned, "contexts_total": len(db)},
    )


def oracle_tracedbs(design):
    """The full and truncated families the fuzz oracle checks ``design`` on."""
    rng = random.Random(RNG_SEED ^ design.spec.seed)
    sequences, complete = _input_sequences(design, OracleConfig(), rng)
    contexts = [Context.make({}, seq, label="seq%d" % i) for i, seq in enumerate(sequences)]
    return (
        TraceDB(design.netlist, contexts, complete=complete),
        TraceDB(design.netlist, contexts[:TRUNCATED_CONTEXTS], complete=False),
    )


def engine_disagreements(design):
    out = []
    for db in oracle_tracedbs(design):
        engine = EnumerativeEngine(db)
        for query in _queries(design):
            got, want = engine.check(query), reference_check(engine, query)
            for field in ("outcome", "witness", "depth", "solver", "detail"):
                if getattr(got, field) != getattr(want, field):
                    out.append((query.name, field))
    return out


def campaign_design(seed):
    return build_design(sample_spec(seed, CampaignConfig().profile))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.rsplit("/", 1)[-1][:-5])
def test_enumerative_matches_per_context_reference_on_corpus(path):
    assert engine_disagreements(build_design(load_reproducer(path))) == []


@pytest.mark.parametrize("seed", CAMPAIGN_SEEDS)
def test_enumerative_matches_per_context_reference_on_campaign(seed):
    assert engine_disagreements(campaign_design(seed)) == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_enumerative_matches_per_context_reference_on_random_designs(seed):
    assert engine_disagreements(build_design(sample_spec(seed))) == []


def test_campaign_families_repeat_traces():
    full, truncated = oracle_tracedbs(campaign_design(CAMPAIGN_SEEDS[0]))
    assert 1 < len(full.distinct_views()) < len(full.views) / 10
    assert 1 < len(truncated.distinct_views()) < len(truncated.views)
    firsts = [index for index, _ in full.distinct_views()]
    assert firsts == sorted(firsts) and firsts[0] == 0
    rows = [tuple(view.cycles) for _, view in full.distinct_views()]
    assert len(set(rows)) == len(rows)
    assert set(rows) == {tuple(view.cycles) for view in full.views}


def test_planted_last_matching_trace_is_caught(monkeypatch):
    real = TraceDB.distinct_views
    monkeypatch.setattr(
        TraceDB, "distinct_views", lambda self: list(reversed(real(self)))
    )
    assert any(engine_disagreements(campaign_design(seed)) for seed in CAMPAIGN_SEEDS)


def test_views_share_one_name_index():
    full, _ = oracle_tracedbs(campaign_design(CAMPAIGN_SEEDS[0]))
    assert len({id(view.index) for view in full.views}) == 1
    assert len({id(view.names) for view in full.views}) == 1


# ----------------------------------------------------- (c) COI supports
def reference_supports(netlist):
    """One ``coi_cone`` walk per name: ``coi_supports``'s reference."""
    out = {}
    for name in dict.fromkeys(list(netlist.named) + list(netlist.outputs)):
        cone = coi_cone(netlist, (name,))
        out[name] = (
            frozenset(reg.name for reg, _ in netlist.registers if reg.q.uid in cone),
            frozenset(node.name for node in netlist.inputs if node.uid in cone),
        )
    return out


@pytest.fixture(scope="module")
def support_netlists():
    designs = {
        "core": build_core(CoreConfig(xlen=4)),
        "cache": build_cache(),
        "cva6-mul": build_cva6_mul(),
        "cva6-op": build_cva6_op(),
    }
    out = {name: design.netlist for name, design in designs.items()}
    for name, design in designs.items():
        out[name + "-ift"] = synthlc_mod.instrument_design(design).netlist
    return out


@pytest.mark.parametrize("name", [
    "core", "cache", "cva6-mul", "cva6-op",
    "core-ift", "cache-ift", "cva6-mul-ift", "cva6-op-ift",
])
def test_supports_match_per_name_cones(support_netlists, name):
    netlist = support_netlists[name]
    assert coi_supports(netlist) == reference_supports(netlist)


def test_supports_match_per_name_cones_on_corpus():
    for path in CORPUS:
        netlist = build_design(load_reproducer(path)).netlist
        assert coi_supports(netlist) == reference_supports(netlist), path


def test_pool_support_is_the_union_of_target_supports(support_netlists):
    netlist = support_netlists["core"]
    names = sorted(netlist.named)[::7]
    want = reference_supports(netlist)
    regs = frozenset().union(*(want[n][0] for n in names))
    inputs = frozenset().union(*(want[n][1] for n in names))
    assert InductionPool()._support(netlist, names) == (regs, inputs)
    cone = coi_cone(netlist, names)
    assert regs == {reg.name for reg, _ in netlist.registers if reg.q.uid in cone}


def test_planted_closure_without_register_edges_is_caught(support_netlists, monkeypatch):
    real = coi_mod._register_closure
    monkeypatch.setattr(
        coi_mod, "_register_closure",
        lambda reads, own_inputs: real([[] for _ in reads], own_inputs),
    )
    netlist = support_netlists["core"]
    assert coi_supports(netlist) != reference_supports(netlist)


# ------------------------------------------- IFT instrumentation, once
def test_leakage_run_instruments_once(tmp_path, monkeypatch):
    from repro.engine import specs

    monkeypatch.setattr(synthlc_mod, "_INSTRUMENTED", weakref.WeakValueDictionary())
    specs._built_synthlc.cache_clear()
    calls = []
    real = synthlc_mod.instrument_ift

    def counting(netlist, config):
        calls.append(netlist.name)
        return real(netlist, config)

    monkeypatch.setattr(synthlc_mod, "instrument_ift", counting)
    # the e2e leakage workload's shape, at its smoke scale
    design = build_core(CoreConfig(xlen=4))
    taint = CoreContextProvider(xlen=4, config=ContextFamilyConfig(
        horizon=32, neighbors=("DIV",), iuv_values=(0,), neighbor_values=(0,),
        instrumented=True,
    ))
    synthlc = SynthLC(design, taint)
    engine = JobScheduler(EngineConfig(jobs=1, cache_dir=str(tmp_path / "cache")))
    results = Rtl2MuPath(
        design, CoreContextProvider(xlen=4, config=SMOKE_FAMILY)
    ).synthesize_all(["DIV"], engine=engine)
    contracts = synthlc.classify(results, transmitters=["LW"], engine=engine)
    assert engine.last_manifest.jobs_failed == 0
    assert contracts.stats.count > 0
    assert calls == [design.netlist.name]
    specs._built_synthlc.cache_clear()
