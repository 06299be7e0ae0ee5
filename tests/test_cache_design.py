"""Cache DUV tests: hit/miss paths, banks, drains, contention (SS VII-A2)."""

import pytest

from dataclasses import replace

from repro.designs.cache import (
    CacheConfig,
    CacheContextProvider,
    build_cache,
    cache_context,
)
from repro.designs.harness import slot_pc
from repro.mc import simulate_context
from repro.sim import Simulator


@pytest.fixture(scope="module")
def cache_design():
    return build_cache()


@pytest.fixture(scope="module")
def cache_sim(cache_design):
    return Simulator(cache_design.netlist)


def run(design, sim, requests, horizon=36):
    rows = simulate_context(sim, cache_context(requests, horizon=horizon))
    return [dict(zip(sim.observable_names, row)) for row in rows]


def visits(design, trace, pc):
    rows = []
    for t, obs in enumerate(trace):
        seen = set()
        for name, pl in design.metadata.pls.items():
            for slot in pl.slots:
                if obs[slot.occ_signal] and obs[slot.pc_signal] == pc:
                    seen.add(name)
        if seen:
            rows.append((t, sorted(seen)))
    return rows


def pl_sequence(rows):
    return [tuple(seen) for _, seen in rows]


class TestLoads:
    def test_miss_path_with_lookup_replay(self, cache_design, cache_sim):
        trace = run(cache_design, cache_sim, [(False, 1, 0)])
        seq = pl_sequence(visits(cache_design, trace, slot_pc(0)))
        assert seq[0] == ("rdTag",)
        assert ("mshr",) in seq and ("fill",) in seq
        # non-consecutive rdTag revisit: the lookup replays after the fill
        assert seq.count(("rdTag",)) == 2
        assert seq[-1] == ("rdResp",)

    def test_hit_path_short(self, cache_design, cache_sim):
        trace = run(cache_design, cache_sim, [(False, 1, 0), "quiesce", (False, 1, 0)])
        seq = pl_sequence(visits(cache_design, trace, slot_pc(1)))
        assert seq == [("rdTag",), ("rdResp",)]

    def test_miss_latency_exceeds_hit(self, cache_design, cache_sim):
        trace = run(cache_design, cache_sim, [(False, 1, 0), "quiesce", (False, 1, 0)])
        miss = visits(cache_design, trace, slot_pc(0))
        hit = visits(cache_design, trace, slot_pc(1))
        assert len(miss) > len(hit)

    def test_same_set_other_tag_misses(self, cache_design, cache_sim):
        cfg = cache_design.config
        other = 1 + cfg.sets  # same set index, different tag
        trace = run(cache_design, cache_sim, [(False, 1, 0), "quiesce", (False, other, 0)])
        seq = pl_sequence(visits(cache_design, trace, slot_pc(1)))
        assert ("mshr",) in seq

    def test_fill_data_comes_from_backing_memory(self, cache_design, cache_sim):
        context = cache_context([(False, 1, 0)], horizon=20)
        simulate_context(cache_sim, replace(context, reset_overrides=(("bmem_w1", 0x7E),)))
        # way 0 of set 1 now holds the backing value
        assert cache_sim.state_dict()["data_s1_w0"] == 0x7E


class TestStores:
    def test_hit_touches_bank(self, cache_design, cache_sim):
        trace = run(cache_design, cache_sim, [(False, 1, 0), "quiesce", (True, 1, 9)])
        seq = pl_sequence(visits(cache_design, trace, slot_pc(1)))
        assert seq[0] == ("wBVld",)
        assert ("wRTag", "wrBank0") in seq

    def test_miss_skips_banks_no_write_allocate(self, cache_design, cache_sim):
        trace = run(cache_design, cache_sim, [(True, 1, 9)])
        seq = pl_sequence(visits(cache_design, trace, slot_pc(0)))
        assert ("wRTag",) in seq
        assert not any("wrBank0" in s or "wrBank1" in s for s in seq)
        # no-write-allocate: a subsequent load to the address still misses
        trace = run(cache_design, cache_sim, [(True, 1, 9), "quiesce", (False, 1, 0)])
        seq = pl_sequence(visits(cache_design, trace, slot_pc(1)))
        assert ("mshr",) in seq

    def test_bank_selected_by_way(self, cache_design, cache_sim):
        # fill ways 0..2 of set 1 via round-robin (3 distinct tags), then
        # hit way 2 -> bank 1
        cfg = cache_design.config
        tags = [1, 1 + cfg.sets, 1 + 2 * cfg.sets]
        reqs = []
        for addr in tags:
            reqs.extend([(False, addr, 0), "quiesce"])
        reqs.append((True, tags[2], 5))
        trace = run(cache_design, cache_sim, reqs, horizon=60)
        seq = pl_sequence(visits(cache_design, trace, slot_pc(3)))
        assert ("wRTag", "wrBank1") in seq

    def test_store_drains_through_axi(self, cache_design, cache_sim):
        trace = run(cache_design, cache_sim, [(True, 1, 0x3C)])
        seq = pl_sequence(visits(cache_design, trace, slot_pc(0)))
        assert ("wbDrain",) in seq and ("axiWr",) in seq
        assert cache_sim.state_dict()["bmem_w1"] == 0x3C

    def test_store_hit_updates_cached_data(self, cache_design, cache_sim):
        trace = run(cache_design, cache_sim, [(False, 1, 0), "quiesce", (True, 1, 0x44)], horizon=44)
        assert cache_sim.state_dict()["data_s1_w0"] == 0x44


class TestContention:
    def test_drain_delays_miss_fill(self, cache_design, cache_sim):
        # a store drain occupies the AXI port; a back-to-back load miss
        # waits in the MSHR (dynamic ST transmitter for LD transponders)
        b2b = run(cache_design, cache_sim, [(True, 1, 9), (False, 2, 0)])
        solo = run(cache_design, cache_sim, [(False, 2, 0)])
        mshr_b2b = sum(1 for s in pl_sequence(visits(cache_design, b2b, slot_pc(1))) if s == ("mshr",))
        mshr_solo = sum(1 for s in pl_sequence(visits(cache_design, solo, slot_pc(0))) if s == ("mshr",))
        assert mshr_b2b > mshr_solo

    def test_wbuf_match_stalls_lookup(self, cache_design, cache_sim):
        same = run(cache_design, cache_sim, [(True, 1, 9), (False, 1, 0)])
        diff = run(cache_design, cache_sim, [(True, 1, 9), (False, 2, 0)])
        tag_same = sum(1 for s in pl_sequence(visits(cache_design, same, slot_pc(1))) if s == ("rdTag",))
        tag_diff = sum(1 for s in pl_sequence(visits(cache_design, diff, slot_pc(1))) if s == ("rdTag",))
        assert tag_same > tag_diff


class TestMetadata:
    def test_persistent_registers_are_tags(self, cache_design):
        persistent = set(cache_design.metadata.persistent_registers)
        assert "tag_s0_w0" in persistent and "vld_s3_w3" in persistent
        assert "cc_state" not in persistent

    def test_candidate_pl_never_occupied(self, cache_design, cache_sim):
        trace = run(cache_design, cache_sim, [(True, 1, 9), (False, 2, 0), (False, 1, 0)], horizon=50)
        for pl in cache_design.metadata.candidate_pls.values():
            for slot in pl.slots:
                assert not any(obs[slot.occ_signal] for obs in trace)

    def test_quiesce(self, cache_design, cache_sim):
        trace = run(cache_design, cache_sim, [(True, 1, 9)], horizon=24)
        assert trace[0]["pipe_quiesce"] == 1
        assert any(obs["pipe_quiesce"] == 0 for obs in trace)
        assert trace[-1]["pipe_quiesce"] == 1


class TestProvider:
    def test_mupath_groups_structure(self):
        provider = CacheContextProvider()
        groups = provider.mupath_groups("ST")
        assert {g.label for g in groups} == {"probe", "solo"}
        assert all(g.complete for g in groups)
        assert all(g.contexts for g in groups)

    def test_taint_groups_assumptions(self):
        provider = CacheContextProvider(instrumented=True)
        assert provider.taint_groups("LD", "ST", "dynamic_younger", "rs1") == []
        static = provider.taint_groups("ST", "LD", "static", "rs1")
        assert static and static[0].taint_pc == slot_pc(0)
        assert static[0].iuv_pc == slot_pc(1)
        intr = provider.taint_groups("ST", "ST", "intrinsic", "rs1")
        assert len(intr) == 2
        assert provider.taint_groups("ST", "LD", "intrinsic", "rs1") == []
