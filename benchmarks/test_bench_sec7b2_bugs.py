"""SS VII-B2 bench: the four CVA6 bugs surfaced by uPATH synthesis.

Paper: RTL2MuPATH found (1) JALR never raising misaligned-target
exceptions, (2) JAL checking only 2-byte alignment, (3) branches raising
the exception regardless of their operand-dependent outcome, and (4) the
scoreboard being under-utilized by one entry due to a counter-width bug.
The bench reruns the analyses on the buggy and fixed cores and diffs.
"""

import pytest

from repro.core import Rtl2MuPath
from repro.designs import (
    ContextFamilyConfig,
    CoreContextProvider,
    build_core,
    isa,
    program_context,
)
from repro.designs.variants import build_fixed_core
from repro.mc import simulate_context
from repro.sim import Simulator

from conftest import print_banner

FAMILY = ContextFamilyConfig(
    horizon=36,
    neighbors=(),
    include_preceding=False,
    include_following=False,
    include_deep=False,
    iuv_values=(0, 1, 2, 3, 4, 8, 16, 252, 255),
)


def _excp_reachable(design, iuv):
    provider = CoreContextProvider(xlen=8, config=FAMILY)
    result = Rtl2MuPath(design, provider).synthesize(iuv)
    return any("scbExcp" in u.pl_set for u in result.upaths)


@pytest.fixture(scope="module")
def fixed_core():
    return build_fixed_core()


def test_sec7b2_exception_upath_diff(bench_core, fixed_core, benchmark):
    def analyze():
        table = {}
        for iuv in ("JAL", "JALR", "BEQ"):
            table[iuv] = (
                _excp_reachable(bench_core, iuv),
                _excp_reachable(fixed_core, iuv),
            )
        return table

    table = benchmark.pedantic(analyze, rounds=1, iterations=1)
    print_banner("SS VII-B2 -- exception uPATHs: buggy vs fixed core")
    print("%-6s %-14s %-14s" % ("instr", "buggy scbExcp", "fixed scbExcp"))
    for iuv, (buggy, fixed) in table.items():
        print("%-6s %-14s %-14s" % (iuv, buggy, fixed))

    # bug 1: JALR never progresses to scbExcp on the buggy design
    assert table["JALR"] == (False, True)
    # bug 2: the context family's JAL target is pc+2 -- 2-byte aligned but
    # 4-byte misaligned -- so the buggy core's 2-byte-only check never
    # fires while the fixed core raises the exception
    assert table["JAL"] == (False, True)
    # bug 3: BEQ's misaligned target raises the exception on both cores
    # (on the buggy one regardless of the operand-dependent outcome, which
    # the dedicated test below separates)
    assert table["BEQ"][0] and table["BEQ"][1]


def test_sec7b2_jal_2byte_only(bench_core, fixed_core):
    """JAL target pc+2 (2-byte aligned, 4-byte misaligned): the buggy core
    commits, the fixed core raises the exception."""

    def committed(design):
        sim = Simulator(design.netlist)
        word = isa.encode("JAL", rd=3, rs1=0, rs2=2)
        rows = simulate_context(sim, program_context([("feed", (word,))], horizon=14))
        return any(row[sim.observable_index("commit_fire")] for row in rows)

    print_banner("SS VII-B2 -- JAL 2-byte-only alignment check")
    buggy, fixed = committed(bench_core), committed(fixed_core)
    print("JAL to pc+2: buggy core commits=%s, fixed core commits=%s" % (buggy, fixed))
    assert buggy and not fixed


def test_sec7b2_branch_exception_operand_independent(bench_core, fixed_core):
    """The buggy core raises the misaligned exception for taken AND
    not-taken branches; the fixed core only when taken (operand-dependent,
    which is what SynthLC's independence report detects)."""

    def excp(design, r1, r2):
        sim = Simulator(design.netlist)
        word = isa.encode("BEQ", rs1=1, rs2=2)  # target pc+2: misaligned
        context = program_context(
            [("feed", (word,))], {"arf_w1": r1, "arf_w2": r2}, horizon=14
        )
        occupied = [sim.observable_index("pl_scbExcp_occ%d" % i) for i in range(4)]
        return any(row[i] for row in simulate_context(sim, context) for i in occupied)

    print_banner("SS VII-B2 -- branch misaligned-target exception vs outcome")
    rows = [
        ("taken", excp(bench_core, 5, 5), excp(fixed_core, 5, 5)),
        ("not-taken", excp(bench_core, 5, 6), excp(fixed_core, 5, 6)),
    ]
    print("%-10s %-12s %-12s" % ("outcome", "buggy excp", "fixed excp"))
    for name, buggy, fixed in rows:
        print("%-10s %-12s %-12s" % (name, buggy, fixed))
    assert rows[0][1] and rows[0][2]  # taken: both raise
    assert rows[1][1] and not rows[1][2]  # not-taken: only the buggy core


def test_sec7b2_scoreboard_counter_bug(bench_core, fixed_core):
    """Peak SCB occupancy from cover-trace inspection: 3/4 vs 4/4."""

    def peak(design):
        sim = Simulator(design.netlist)
        div = isa.encode("DIV", rd=6, rs1=4, rs2=5)
        fill = isa.encode("ADD", rd=0, rs1=0, rs2=0)
        context = program_context(
            [("feed", (div, fill, fill, fill))], {"arf_w4": 128, "arf_w5": 3}, horizon=40
        )
        used = sim.observable_index("scb_used")
        return max(row[used] for row in simulate_context(sim, context))

    print_banner("SS VII-B2 -- scoreboard counter-width bug")
    buggy, fixed = peak(bench_core), peak(fixed_core)
    print("paper:    SCB always under-utilized by one entry on buggy CVA6")
    print("measured: peak occupancy buggy=%d/4, fixed=%d/4" % (buggy, fixed))
    assert buggy == 3 and fixed == 4
