"""The differential cycle-count oracle over fuzzed instruction sequences.

Every sequence runs twice: once on the RTL simulator (ground truth) and
once through the μPATH-derived predictor.  The two must agree on total
cycle count and on every per-instruction retire timestamp.  A mismatch
is evidence of exactly one of two things, and telling them apart is the
point of this module:

* **perf-model bug** -- the predictor mis-models the core even though
  every per-instruction timing the simulation exhibited is inside the
  synthesized μPATH set.  The model compiler (or the predictor's hazard
  replay) is wrong; the μPATH synthesis is fine.
* **missed μPATH** -- the simulation exhibits a per-instruction unit
  occupancy whose run length is *not* in the synthesized set, or the
  predictor had to use a latency outside the set (recorded as an
  ``out_of_model`` event even when cycle counts agree).  The candidate
  μPATH synthesis is incomplete -- the completeness gap RTL2MuPATH's
  soundness argument cares about.

Anything else (an architectural divergence between the simulator and the
reference model) is ``unclassified`` and gates CI: it means the harness
itself is broken.

Mismatches shrink through :func:`repro.fuzz.shrink.shrink_sequence` --
the same delta-debugging loop the spec fuzzer uses -- down to versioned
JSON reproducers with the offending instruction's synthesized μPATH set
attached.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..core.mhb import extract_path
from ..designs import isa
from ..designs.harness import run_program, sample_sequence
from ..fuzz.shrink import shrink_sequence
from .model import PerfModel
from .predict import PredictError, predict_program

__all__ = [
    "PERF_REPRODUCER_VERSION",
    "CLASS_MODEL_BUG",
    "CLASS_MISSED_UPATH",
    "CLASS_UNCLASSIFIED",
    "PerfMismatch",
    "PerfCampaignConfig",
    "PerfCampaignResult",
    "check_sequence",
    "run_perf_campaign",
    "write_perf_reproducer",
    "load_perf_reproducer",
]

PERF_REPRODUCER_VERSION = 1
_SEED_STRIDE = 1000003  # same independent-stream stride as repro.fuzz
SHRINK_BUDGET_SECONDS = 20.0  # wall-clock cap on shrinking one mismatch
MAX_MISMATCHES = 10  # stop collecting (not classifying) past this

CLASS_MODEL_BUG = "model-bug"
CLASS_MISSED_UPATH = "missed-upath"
CLASS_UNCLASSIFIED = "unclassified"

_SEQUENCES = obs.REGISTRY.counter(
    "repro_perf_sequences_total", "perf-oracle sequences checked, by verdict"
)
_MISMATCHES = obs.REGISTRY.counter(
    "repro_perf_mismatch_total", "perf-oracle mismatches, by classification"
)
_STALLS = obs.REGISTRY.counter(
    "repro_perf_stall_cycles_total", "predicted stall cycles, by hazard class"
)
_SEQ_SECONDS = obs.REGISTRY.histogram(
    "repro_perf_sequence_seconds", "wall-clock seconds per checked sequence"
)


@dataclass
class PerfMismatch:
    """One classified predictor/simulator divergence."""

    classification: str
    design: str
    seed: Optional[int]
    program: List[int]
    arf_init: List[int]
    predicted_cycles: int
    actual_cycles: int
    divergent_slot: Optional[int]  # first slot whose retire cycle differs
    divergent_pc: Optional[int]
    divergent_name: str = ""
    detail: str = ""
    # the offending instruction's synthesized μPATH run-length sets and
    # what the simulation actually exhibited
    upath_set: Dict[str, List[int]] = field(default_factory=dict)
    sim_runs: Dict[str, List[int]] = field(default_factory=dict)
    out_of_model: List[dict] = field(default_factory=list)

    def brief(self) -> str:
        where = (
            "slot %d (%s)" % (self.divergent_slot, self.divergent_name)
            if self.divergent_slot is not None
            else "total cycles"
        )
        return "%s at %s: predicted %d, simulated %d cycles -- %s" % (
            self.classification,
            where,
            self.predicted_cycles,
            self.actual_cycles,
            self.detail,
        )

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "design": self.design,
            "seed": self.seed,
            "program": list(self.program),
            "arf_init": list(self.arf_init),
            "asm": [isa.decode(w).spec.name for w in self.program],
            "predicted_cycles": self.predicted_cycles,
            "actual_cycles": self.actual_cycles,
            "divergent_slot": self.divergent_slot,
            "divergent_pc": self.divergent_pc,
            "divergent_name": self.divergent_name,
            "detail": self.detail,
            "upath_set": {k: list(v) for k, v in self.upath_set.items()},
            "sim_runs": {k: list(v) for k, v in self.sim_runs.items()},
            "out_of_model": list(self.out_of_model),
        }


def _divergence(predicted, run, steps) -> Tuple[Optional[int], str]:
    """First slot whose retire timestamp diverges, program order."""
    for step in steps:
        p = predicted.retire.get(step.pc)
        a = run.retire.get(step.pc)
        if p != a:
            return step.slot, (
                "retire cycle %s predicted vs %s simulated" % (p, a)
            )
    if predicted.cycles != run.cycles:
        return None, (
            "quiesce cycle %d predicted vs %d simulated"
            % (predicted.cycles, run.cycles)
        )
    return None, ""


def check_sequence(
    design,
    sim,
    model: PerfModel,
    program: Sequence[int],
    arf_init: Sequence[int],
    seed: Optional[int] = None,
) -> Optional[PerfMismatch]:
    """Differential check of one sequence; None means exact agreement.

    ``sim`` names the netlist: a :class:`repro.sim.Simulator` over
    ``design.netlist``, of which :func:`run_program` reads only
    ``netlist``.  Classification re-runs the simulation with trace
    recording only when a divergence needs it.
    """
    return _check_sequence(design, sim, model, program, arf_init, seed)[0]


def _check_sequence(design, sim, model, program, arf_init, seed):
    """:func:`check_sequence`'s mismatch, and the prediction it made
    (None when the predictor raised)."""
    program = list(program)
    arf_init = list(arf_init)
    try:
        predicted = predict_program(model, program, arf_init)
    except PredictError as exc:
        return PerfMismatch(
            classification=CLASS_UNCLASSIFIED,
            design=model.design_label,
            seed=seed,
            program=program,
            arf_init=arf_init,
            predicted_cycles=-1,
            actual_cycles=-1,
            divergent_slot=None,
            divergent_pc=None,
            detail="predictor error: %s" % exc,
        ), None
    return _compare(design, sim, model, program, arf_init, seed, predicted), predicted


def _compare(design, sim, model, program, arf_init, seed, predicted):
    """The mismatch between ``predicted`` and the RTL run, or None."""
    run = run_program(sim, program, arf_init)
    steps = predicted.steps

    # architectural divergence: the harness itself is broken -- the
    # cycle oracle cannot say anything trustworthy about timing
    if run.arf != predicted.arf or run.mem != predicted.mem:
        return PerfMismatch(
            classification=CLASS_UNCLASSIFIED,
            design=model.design_label,
            seed=seed,
            program=program,
            arf_init=arf_init,
            predicted_cycles=predicted.cycles,
            actual_cycles=run.cycles,
            divergent_slot=None,
            divergent_pc=None,
            detail="architectural state diverges from the reference model",
        )

    slot, detail = _divergence(predicted, run, steps)
    diverged = bool(detail)
    if not diverged and not predicted.out_of_model:
        return None

    if not diverged:
        # cycle counts agree, but the predictor needed a latency outside
        # the synthesized μPATH set: the set is missing a path
        event = predicted.out_of_model[0]
        timing = model.instrs[event["name"]]
        return PerfMismatch(
            classification=CLASS_MISSED_UPATH,
            design=model.design_label,
            seed=seed,
            program=program,
            arf_init=arf_init,
            predicted_cycles=predicted.cycles,
            actual_cycles=run.cycles,
            divergent_slot=event["slot"],
            divergent_pc=event["pc"],
            divergent_name=event["name"],
            detail=(
                "latency %d not in synthesized run-length set %s"
                % (event["latency"], event.get("observed"))
            ),
            upath_set={
                pl: list(runs)
                for pl, runs in model.upath_run_lengths(event["name"]).items()
            },
            out_of_model=list(predicted.out_of_model),
        )

    # cycle divergence: classify against the simulation's actual μPATHs.
    # A single out-of-set unit run length anywhere in the sequence means
    # the synthesis missed a path; all-in-set means the model is wrong.
    traced = run_program(sim, program, arf_init, record_trace=True)
    offender = None
    for step in steps:
        timing = model.instrs[step.name]
        if timing.unit_pl is None:
            continue
        synth = model.upath_run_lengths(step.name).get(timing.unit_pl)
        if synth is None:
            continue
        path = extract_path(traced.trace, design.metadata.pls, step.pc)
        for run_len in path.run_lengths(timing.unit_pl):
            if run_len not in synth:
                offender = (step, path, timing.unit_pl, run_len, synth)
                break
        if offender:
            break

    if offender is not None:
        step, path, unit_pl, run_len, synth = offender
        return PerfMismatch(
            classification=CLASS_MISSED_UPATH,
            design=model.design_label,
            seed=seed,
            program=program,
            arf_init=arf_init,
            predicted_cycles=predicted.cycles,
            actual_cycles=run.cycles,
            divergent_slot=step.slot,
            divergent_pc=step.pc,
            divergent_name=step.name,
            detail=(
                "simulated %s run length %d not in synthesized set %s"
                % (unit_pl, run_len, list(synth))
            ),
            upath_set={
                pl: list(runs)
                for pl, runs in model.upath_run_lengths(step.name).items()
            },
            sim_runs={
                pl: path.run_lengths(pl) for pl in sorted(path.pl_set)
            },
            out_of_model=list(predicted.out_of_model),
        )

    div_step = steps[slot] if slot is not None else None
    div_path = (
        extract_path(traced.trace, design.metadata.pls, div_step.pc)
        if div_step is not None
        else None
    )
    return PerfMismatch(
        classification=CLASS_MODEL_BUG,
        design=model.design_label,
        seed=seed,
        program=program,
        arf_init=arf_init,
        predicted_cycles=predicted.cycles,
        actual_cycles=run.cycles,
        divergent_slot=slot,
        divergent_pc=div_step.pc if div_step else None,
        divergent_name=div_step.name if div_step else "",
        detail=detail + "; every simulated run length is in-set",
        upath_set=(
            {
                pl: list(runs)
                for pl, runs in model.upath_run_lengths(div_step.name).items()
            }
            if div_step
            else {}
        ),
        sim_runs=(
            {pl: div_path.run_lengths(pl) for pl in sorted(div_path.pl_set)}
            if div_path
            else {}
        ),
        out_of_model=list(predicted.out_of_model),
    )


def shrink_mismatch(
    design,
    sim,
    model: PerfModel,
    mismatch: PerfMismatch,
    *,
    max_evals: int = 200,
    deadline_seconds: Optional[float] = None,
) -> PerfMismatch:
    """Delta-debug the mismatching program, preserving classification."""
    want = mismatch.classification

    def predicate(candidate: List[int]) -> bool:
        if not candidate:
            return False
        found = check_sequence(
            design, sim, model, candidate, mismatch.arf_init
        )
        return found is not None and found.classification == want

    shrunk = shrink_sequence(
        mismatch.program,
        predicate,
        max_evals=max_evals,
        deadline_seconds=deadline_seconds,
    )
    if len(shrunk) == len(mismatch.program):
        return mismatch
    final = check_sequence(design, sim, model, shrunk, mismatch.arf_init,
                           seed=mismatch.seed)
    return final if final is not None else mismatch


def write_perf_reproducer(
    out_dir: str, mismatch: PerfMismatch, *, xlen: int,
    name: Optional[str] = None, shrunk_from: Optional[int] = None,
) -> str:
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "version": PERF_REPRODUCER_VERSION,
        "kind": "perf",
        "xlen": xlen,
        "mismatch": mismatch.to_dict(),
        "shrunk_from": shrunk_from,
    }
    default = "perf_%s_seed%s" % (
        mismatch.classification.replace("-", "_"), mismatch.seed,
    )
    path = os.path.join(out_dir, "%s.json" % (name or default))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_perf_reproducer(path: str) -> Tuple[List[int], List[int], dict]:
    """Returns ``(program, arf_init, payload)`` for replay."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    mismatch = payload["mismatch"]
    return list(mismatch["program"]), list(mismatch["arf_init"]), payload


@dataclass
class PerfCampaignConfig:
    seed: int = 0
    budget_seconds: float = 30.0
    out_dir: str = "perf-out"
    max_sequences: Optional[int] = None
    shrink: bool = True


@dataclass
class PerfCampaignResult:
    seed: int
    design: str
    sequences: int = 0
    agreements: int = 0
    elapsed: float = 0.0
    mismatches: List[PerfMismatch] = field(default_factory=list)
    reproducers: List[str] = field(default_factory=list)
    by_class: Dict[str, int] = field(default_factory=dict)
    predicted_stalls: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def unclassified(self) -> int:
        return self.by_class.get(CLASS_UNCLASSIFIED, 0)

    def summary(self) -> str:
        lines = [
            "perf oracle: design=%s seed=%d, %d sequences in %.1fs"
            % (self.design, self.seed, self.sequences, self.elapsed),
            "exact cycle agreement: %d/%d" % (self.agreements, self.sequences),
        ]
        if self.predicted_stalls:
            lines.append("predicted stall cycles: %s" % ", ".join(
                "%s=%d" % kv for kv in sorted(self.predicted_stalls.items())
                if kv[1]
            ))
        if self.mismatches:
            lines.append("MISMATCHES: %s" % ", ".join(
                "%s=%d" % kv for kv in sorted(self.by_class.items())
            ))
            for m in self.mismatches:
                lines.append("  " + m.brief())
            for path in self.reproducers:
                lines.append("  reproducer: %s" % path)
        else:
            lines.append("no predictor/simulator divergence")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "design": self.design,
            "sequences": self.sequences,
            "agreements": self.agreements,
            "elapsed": self.elapsed,
            "mismatches": [m.to_dict() for m in self.mismatches],
            "reproducers": list(self.reproducers),
            "by_class": dict(self.by_class),
            "predicted_stalls": dict(self.predicted_stalls),
            "ok": self.ok,
        }


def run_perf_campaign(
    design,
    model: PerfModel,
    config: PerfCampaignConfig,
) -> PerfCampaignResult:
    """Budgeted differential campaign over seeded fuzzed sequences."""
    from ..sim import Simulator

    sim = Simulator(design.netlist)
    result = PerfCampaignResult(seed=config.seed, design=model.design_label)
    stall_totals: Dict[str, int] = {}
    started = time.monotonic()
    index = 0
    with obs.span(
        "perf.campaign", design=model.design_label, seed=config.seed
    ) as sp:
        while True:
            if time.monotonic() - started >= config.budget_seconds:
                break
            if (
                config.max_sequences is not None
                and result.sequences >= config.max_sequences
            ):
                break
            seq_seed = config.seed * _SEED_STRIDE + index
            index += 1
            program, arf_init = sample_sequence(
                seq_seed, xlen=model.xlen, nregs=model.nregs
            )
            seq_started = time.monotonic()
            with obs.span("perf.sequence", seed=seq_seed, length=len(program)):
                mismatch, predicted = _check_sequence(
                    design, sim, model, program, arf_init, seq_seed
                )
                # stall accounting feeds the timing-variability report
                if predicted is not None:
                    for cls, count in predicted.stalls.items():
                        if count:
                            stall_totals[cls] = stall_totals.get(cls, 0) + count
                            _STALLS.inc(count, hazard=cls)
            _SEQ_SECONDS.observe(time.monotonic() - seq_started)
            result.sequences += 1
            if mismatch is None:
                result.agreements += 1
                _SEQUENCES.inc(verdict="agree")
                continue
            _SEQUENCES.inc(verdict="mismatch")
            _MISMATCHES.inc(classification=mismatch.classification)
            result.by_class[mismatch.classification] = (
                result.by_class.get(mismatch.classification, 0) + 1
            )
            if len(result.mismatches) >= MAX_MISMATCHES:
                continue
            if config.shrink:
                mismatch = shrink_mismatch(
                    design, sim, model, mismatch,
                    deadline_seconds=SHRINK_BUDGET_SECONDS,
                )
            result.mismatches.append(mismatch)
            result.reproducers.append(
                write_perf_reproducer(
                    config.out_dir, mismatch, xlen=model.xlen,
                    shrunk_from=len(program),
                )
            )
        result.predicted_stalls = stall_totals
        result.elapsed = time.monotonic() - started
        sp.set("sequences", result.sequences)
        sp.set("mismatches", len(result.mismatches))
    return result
