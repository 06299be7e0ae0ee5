"""Ablation benches for the design choices DESIGN.md calls out.

1. Power-set pruning via dominates/exclusive (SS V-B3) vs naive
   enumeration: candidate-set (and hence property) count reduction.
2. Interpreting UNDETERMINED as reachable vs unreachable (SS VII-B4):
   effect on the dominates relation / uPATH completeness.
3. Modular (cache-only) vs monolithic verification (SS VII-A2/B3):
   per-property time.
4. HB-edge candidate restriction to combinationally connected PL pairs
   (SS V-B5) vs all pairs: property-count reduction.
5. The static-mode taint flush (Assumption 3): disabling it turns dynamic
   influence into spurious static-transmitter verdicts.
"""

import pytest

from repro.core import Rtl2MuPath, Rtl2MuPathConfig, SynthLC
from repro.core.rtl2mupath import VisitIndex
from repro.designs import ContextFamilyConfig, CoreContextProvider
from repro.mc import REACHABLE, UNREACHABLE

from conftest import print_banner


def test_ablation_powerset_pruning(rep_mupath_results, benchmark):
    def measure():
        rows = []
        for name, result in rep_mupath_results.items():
            rows.append((name, result.naive_power_set_size,
                         result.candidate_sets_considered))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_banner("Ablation 1 -- dominates/exclusive pruning vs naive power set")
    print("%-6s %16s %16s %10s" % ("instr", "naive 2^|PLs|", "after pruning", "reduction"))
    total_naive = total_pruned = 0
    for name, naive, pruned in rows:
        total_naive += naive
        total_pruned += pruned
        print("%-6s %16d %16d %9.1fx" % (name, naive, pruned, naive / max(pruned, 1)))
    print("paper: the pruning is what makes PL-set enumeration tractable at all")
    assert total_pruned * 4 < total_naive  # at least 4x overall reduction


def test_ablation_undetermined_interpretation(bench_core, benchmark):
    """Truncated families: -as-unreachable prunes aggressively (risking
    completeness); -as-reachable keeps everything (risking blowup)."""
    family = ContextFamilyConfig(
        horizon=36, neighbors=("DIV",), max_contexts=40,
        iuv_values=(0, 1, 2), neighbor_values=(0, 1),
    )

    def run(interpretation):
        provider = CoreContextProvider(xlen=8, config=family)
        tool = Rtl2MuPath(
            bench_core,
            provider,
            config=Rtl2MuPathConfig(undetermined_as=interpretation),
        )
        return tool.synthesize("ADD")

    as_unreachable = benchmark.pedantic(
        lambda: run(UNREACHABLE), rounds=1, iterations=1
    )
    as_reachable = run(REACHABLE)

    print_banner("Ablation 2 -- UNDETERMINED as unreachable vs reachable (SS VII-B4)")
    print(
        "as-unreachable: %d dominates pairs, %d candidate sets"
        % (len(as_unreachable.dominates), as_unreachable.candidate_sets_considered)
    )
    print(
        "as-reachable:   %d dominates pairs, %d candidate sets"
        % (len(as_reachable.dominates), as_reachable.candidate_sets_considered)
    )
    print("paper: -as-unreachable trades completeness for tractability;")
    print("       most undetermined uPATHs would resolve unreachable anyway")
    # interpreting undetermined as unreachable yields at least as many
    # pruning relations (dominates/exclusive come from unreachable verdicts)
    assert len(as_unreachable.dominates) >= len(as_reachable.dominates)
    assert (
        as_unreachable.candidate_sets_considered
        <= as_reachable.candidate_sets_considered
    )


def test_ablation_modularity(core_mupath_tool, cache_mupath_tool,
                             rep_mupath_results, cache_mupath_results):
    core_mean = core_mupath_tool.stats.mean_time
    cache_mean = cache_mupath_tool.stats.mean_time
    print_banner("Ablation 3 -- modular (cache-only) vs whole-core verification")
    print("core mean s/property:  %.6f" % core_mean)
    print("cache mean s/property: %.6f" % cache_mean)
    print("paper: 4.43 min/property (core) vs ~3 s/property (cache)")
    assert cache_mean < core_mean


def test_ablation_hb_edge_candidate_restriction(bench_core, rep_mupath_results):
    """SS V-B5: only combinationally connected PL pairs are candidate HB
    edges.  Count the candidate pairs with and without the netlist filter."""
    tool = Rtl2MuPath(bench_core, CoreContextProvider(xlen=8))
    connectivity = tool._pl_connectivity()
    result = rep_mupath_results["LW"]
    total_pairs = 0
    filtered_pairs = 0
    for upath in result.upaths:
        pls = sorted(upath.pl_set)
        total_pairs += len(pls) * len(pls)
        for pl0 in pls:
            filtered_pairs += sum(1 for pl1 in pls if pl1 in connectivity.get(pl0, ()))
    print_banner("Ablation 4 -- HB-edge candidates: netlist filter (SS V-B5)")
    print("all ordered pairs:       %d" % total_pairs)
    print("comb-connected pairs:    %d" % filtered_pairs)
    print("property-count reduction: %.1f%%" % (100 * (1 - filtered_pairs / total_pairs)))
    assert filtered_pairs < total_pairs


def test_ablation_static_flush(bench_core, rep_mupath_results):
    """Assumption 3's taint flush: without it, taint from a long-retired
    transmitter lingers and the static classification becomes vacuous
    (everything dynamic shows up static)."""
    from repro.designs.harness import program_context, slot_pc, TaintSpec
    from repro.designs import isa
    from repro.core.synthlc import instrument_design
    from repro.mc import simulate_context
    from repro.sim import Simulator

    ift = instrument_design(bench_core)
    sim = Simulator(ift.netlist)
    div = isa.encode("DIV", rd=6, rs1=4, rs2=5)
    add = isa.encode("ADD", rd=3, rs1=1, rs2=2)

    def residual_taint(with_flush):
        script = [("feed", (div,)), ("wait_quiesce",)]
        if with_flush:
            script.append(("flush",))
        script.append(("feed", (add,)))
        context = program_context(
            script, {"arf_w4": 8, "arf_w5": 3}, horizon=40,
            taint=TaintSpec(pc=slot_pc(0), rs1=True), instrumented=True,
        )
        last = simulate_context(sim, context)[-1]
        names = [n for n in sim.observable_names if n.endswith("__tainted")]
        return sum(last[sim.observable_index(n)] for n in names)

    with_flush = residual_taint(True)
    without_flush = residual_taint(False)
    print_banner("Ablation 5 -- Assumption 3 sticky-taint flush")
    print("residual tainted signals with flush:    %d" % with_flush)
    print("residual tainted signals without flush: %d" % without_flush)
    print("paper: the extra taint plane exists precisely to isolate static influence")
    assert with_flush == 0
    assert without_flush > 0
