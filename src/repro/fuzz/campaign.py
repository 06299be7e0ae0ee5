"""Budgeted fuzz campaigns: generate, check, shrink, persist.

One campaign is a deterministic function of ``(seed, budget, profile)``
modulo wall-clock: design seeds stream from the base seed, each design
runs through the full differential oracle, and the first disagreement
per design is shrunk with a *focused* predicate (only the failing check
family re-runs during shrinking, which keeps the delta-debugging loop
fast) and written to the output directory as a replayable JSON
reproducer.  The same writer format feeds ``tests/fuzz_corpus/``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .. import obs
from ..obs import get_registry
from .gen import (
    DesignSpec,
    GenProfile,
    build_design,
    sample_spec,
    spec_from_dict,
    spec_to_dict,
)
from .oracle import Disagreement, OracleConfig, check_design
from .shrink import shrink_spec

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "write_reproducer",
    "load_reproducer",
]

REPRODUCER_VERSION = 1

# design seeds stream deterministically from the campaign seed; a large
# odd multiplier keeps neighbouring campaigns from sharing design seeds
_SEED_STRIDE = 1000003
# wall-clock cap on shrinking one disagreement (within the campaign budget)
SHRINK_BUDGET_SECONDS = 20.0


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 0
    budget_seconds: float = 30.0
    out_dir: str = "fuzz-out"
    max_designs: Optional[int] = None
    shrink: bool = True
    profile: GenProfile = field(default_factory=GenProfile)
    oracle: OracleConfig = field(default_factory=OracleConfig)


@dataclass
class CampaignResult:
    seed: int
    designs: int = 0
    checks: int = 0
    undetermined: int = 0
    elapsed: float = 0.0
    disagreements: List[Disagreement] = field(default_factory=list)
    reproducers: List[str] = field(default_factory=list)
    verdicts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        lines = [
            "fuzz campaign: seed=%d, %d designs, %d checks in %.1fs"
            % (self.seed, self.designs, self.checks, self.elapsed),
            "verdicts: %s" % (", ".join(
                "%s=%d" % kv for kv in sorted(self.verdicts.items())
            ) or "(none)"),
            "undetermined (recorded, never a disagreement): %d"
            % self.undetermined,
        ]
        if self.disagreements:
            lines.append("DISAGREEMENTS: %d" % len(self.disagreements))
            for d in self.disagreements:
                lines.append("  " + d.brief())
            for path in self.reproducers:
                lines.append("  reproducer: %s" % path)
        else:
            lines.append("no oracle disagreements")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "designs": self.designs,
            "checks": self.checks,
            "undetermined": self.undetermined,
            "elapsed": self.elapsed,
            "disagreements": [d.to_dict() for d in self.disagreements],
            "reproducers": list(self.reproducers),
            "verdicts": dict(self.verdicts),
            "ok": self.ok,
        }


def write_reproducer(out_dir: str, spec: DesignSpec,
                     disagreement: Optional[Disagreement] = None,
                     note: str = "", name: Optional[str] = None) -> str:
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "version": REPRODUCER_VERSION,
        "spec": spec_to_dict(spec),
        "disagreement": disagreement.to_dict() if disagreement else None,
        "note": note,
    }
    path = os.path.join(out_dir, "%s.json" % (name or spec.name))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_reproducer(path: str) -> DesignSpec:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return spec_from_dict(payload["spec"])


def focused_predicate(disagreement: Disagreement,
                      oracle: OracleConfig) -> Callable[[DesignSpec], bool]:
    """A fast "does this spec still fail the same way" check.

    Only the check family that produced ``disagreement`` re-runs, so a
    shrink step costs one focused oracle pass rather than a full one.
    """
    kind = disagreement.kind
    if kind == "ref-sim":
        focused = oracle.only("ref")
    elif kind == "sim-blast":
        focused = oracle.only("blast")
    elif kind == "witness":
        focused = oracle.only("engines")
    else:  # verdict (cross-engine or k-induction)
        focused = oracle.only("engines", "kinduction")

    def predicate(spec: DesignSpec) -> bool:
        try:
            report = check_design(build_design(spec), focused)
        except Exception:
            # a spec the stack cannot even process is not a reproducer
            return False
        return not report.ok

    return predicate


def run_campaign(config: CampaignConfig) -> CampaignResult:
    registry = get_registry()
    designs_counter = registry.counter(
        "repro_fuzz_designs_total", "designs generated and checked")
    result = CampaignResult(seed=config.seed)
    started = time.monotonic()
    deadline = started + config.budget_seconds
    index = 0
    with obs.span("fuzz.campaign", seed=config.seed,
                  budget=config.budget_seconds):
        while time.monotonic() < deadline:
            if (config.max_designs is not None
                    and result.designs >= config.max_designs):
                break
            design_seed = config.seed * _SEED_STRIDE + index
            index += 1
            with obs.span("fuzz.design", seed=design_seed):
                spec = sample_spec(design_seed, config.profile)
                design = build_design(spec)
                report = check_design(design, config.oracle)
            result.designs += 1
            designs_counter.inc()
            result.checks += report.checks
            result.undetermined += report.undetermined
            for key, count in report.verdicts.items():
                result.verdicts[key] = result.verdicts.get(key, 0) + count
            if report.ok:
                continue
            first = report.disagreements[0]
            result.disagreements.append(first)
            shrunk = spec
            if config.shrink:
                predicate = focused_predicate(first, config.oracle)
                remaining = max(0.0, deadline - time.monotonic())
                shrunk = shrink_spec(
                    spec, predicate,
                    deadline_seconds=min(SHRINK_BUDGET_SECONDS, remaining)
                    if remaining else SHRINK_BUDGET_SECONDS,
                )
            path = write_reproducer(
                config.out_dir, shrunk, disagreement=first,
                note="found by seed %d (design seed %d); shrunk from %d to "
                     "%d cells" % (
                         config.seed, design_seed,
                         design.num_cells, build_design(shrunk).num_cells),
            )
            result.reproducers.append(path)
    result.elapsed = time.monotonic() - started
    return result
