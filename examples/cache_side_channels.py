#!/usr/bin/env python3
"""Cache-DUV analysis: modular leakage verification (SS VII-A2).

Deploys RTL2MuPATH + SynthLC on the L1 data cache alone -- the paper's
demonstration that the approach (i) handles a realistic cache, (ii) finds
non-consecutive revisit behaviour, and (iii) benefits enormously from
modular verification (properties evaluate orders of magnitude faster than
on the whole core).

Run:  python examples/cache_side_channels.py
"""

from repro.designs.cache import CacheContextProvider, build_cache
from repro.core import Rtl2MuPath, SynthLC


def main():
    design = build_cache()
    print("Cache DUV:", design.netlist.describe())

    provider = CacheContextProvider(horizon=40)
    tool = Rtl2MuPath(design, provider)

    for iuv in ("LD", "ST"):
        result = tool.synthesize(iuv)
        print("\n== %s: %d uPATH families ==" % (iuv, result.num_upaths))
        for upath in result.upaths:
            revisits = {k: v for k, v in upath.revisit.items() if v != "none"}
            print("  %s  revisits: %s" % (sorted(upath.pl_set), revisits or "-"))
        print("  decision sources:", ", ".join(result.decisions.sources))
        if iuv == "LD":
            nonconsec = [
                pl
                for upath in result.upaths
                for pl, kind in upath.revisit.items()
                if kind in ("nonconsecutive", "both")
            ]
            print(
                "  non-consecutive revisits (cache-only behaviour, SS VII-A2):",
                sorted(set(nonconsec)),
            )
        globals()["_res_%s" % iuv] = result

    print("\n== SynthLC on the cache (static transmitters live here) ==")
    taint_provider = CacheContextProvider(horizon=40, instrumented=True)
    synthlc = SynthLC(design, taint_provider)
    result = synthlc.classify(
        {"LD": globals()["_res_LD"], "ST": globals()["_res_ST"]},
        transmitters=["LD", "ST"],
    )
    print("  intrinsic:", sorted(result.intrinsic_transmitters))
    print("  dynamic:  ", sorted(result.dynamic_transmitters))
    print("  static:   ", sorted(result.static_transmitters))
    print("\n  Signatures:")
    for signature in result.signatures:
        print("   ", signature.render())
    print("\n", synthlc.stats.summary())


if __name__ == "__main__":
    main()
