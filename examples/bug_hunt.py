#!/usr/bin/env python3
"""Functional bug hunting with uPATH synthesis (SS VII-B2).

RTL2MuPATH surfaced three functional bugs in CVA6 by making control-flow
instructions' exception uPATHs visible.  This example reruns that
analysis: it synthesizes JAL / JALR / BEQ uPATHs on the buggy core and on
the fixed core and diffs the scbExcp reachability, then demonstrates the
scoreboard counter-width bug from the cover-trace waveforms.

Run:  python examples/bug_hunt.py
"""

from repro.designs import (
    ContextFamilyConfig,
    CoreContextProvider,
    build_core,
    isa,
    program_context,
)
from repro.designs.variants import build_fixed_core
from repro.core import Rtl2MuPath
from repro.mc import simulate_context
from repro.sim import Simulator


FAMILY = ContextFamilyConfig(
    horizon=40,
    neighbors=("ADD",),
    iuv_values=(0, 1, 2, 3, 4, 8, 16, 255),
    neighbor_values=(0, 1),
)


def excp_reachable(design, iuv):
    provider = CoreContextProvider(xlen=design.config.xlen, config=FAMILY)
    result = Rtl2MuPath(design, provider).synthesize(iuv)
    return any("scbExcp" in upath.pl_set for upath in result.upaths), result


def main():
    buggy = build_core()
    fixed = build_fixed_core()

    print("scbExcp reachability (misaligned-target exceptions):")
    print("%-6s %-12s %-12s" % ("instr", "buggy core", "fixed core"))
    for iuv in ("JAL", "JALR", "BEQ"):
        got_buggy, res_buggy = excp_reachable(buggy, iuv)
        got_fixed, _ = excp_reachable(fixed, iuv)
        print("%-6s %-12s %-12s" % (iuv, got_buggy, got_fixed))
    print()
    print("Findings (matching SS VII-B2):")
    print(" * JALR never reaches scbExcp on the buggy core: CVA6 enforces no")
    print("   alignment restriction for JALR (control-flow-hijack surface).")
    print(" * JAL reaches scbExcp only for 2-byte-misaligned targets on the")
    print("   buggy core (4-byte alignment unchecked).")
    print(" * BEQ reaches scbExcp regardless of its taken outcome on the")
    print("   buggy core; SynthLC reports the decision as operand-independent.")

    print("\nScoreboard counter-width bug (from cover-trace inspection):")
    div = isa.encode("DIV", rd=6, rs1=4, rs2=5)
    fill = isa.encode("ADD", rd=0, rs1=0, rs2=0)
    for name, design in (("buggy", buggy), ("fixed", fixed)):
        sim = Simulator(design.netlist)
        context = program_context(
            [("feed", (div, fill, fill, fill))], {"arf_w4": 128, "arf_w5": 3}, horizon=40
        )
        used = sim.observable_index("scb_used")
        peak = max(row[used] for row in simulate_context(sim, context))
        print(
            "  %s core: peak scoreboard occupancy %d / %d entries"
            % (name, peak, design.config.scb_entries)
        )


if __name__ == "__main__":
    main()
