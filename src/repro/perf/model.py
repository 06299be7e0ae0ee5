"""μPATH → performance-model compiler.

A synthesized μPATH set is a complete timing contract for one
instruction: the μHB nodes are pipeline-stage events (PL visits in
specific cycles), the edges are one-cycle happens-before relationships,
and the Row(1)/Row(l) run lengths of each unit PL are exactly the
latencies that instruction can exhibit.  This module compiles those sets
into the per-instruction tables a sequence-level predictor replays:

* **unit binding** -- which functional unit an instruction occupies,
  read off its μPATH ``pl_set`` (``mulU``/``divU``/the load-unit states/
  ``specSTB``, else ``aluU``);
* **latency table** -- operand-feature → latency, calibrated by solo
  probes on the design (the cycle distance from the issue-stage visit to
  the first ``scbFin`` visit, minus the one-cycle write-back edge) and
  reduced to the smallest feature set consistent with the probes;
* **observed-latency set** -- the unit PL's run lengths across the
  *synthesized* μPATH set.  Every latency the predictor ever uses is
  validated against this set: a latency outside it means the synthesized
  set is missing a μPATH (the completeness oracle's positive evidence);
* **hazard rules** -- structural rules from shared-unit occupancy, data
  rules from operand-dependent μPATH variants (a load μPATH containing
  ``ldStall`` is the store-to-load offset channel; ``memRq`` in a store
  μPATH is the committed-store drain port), the SynthLC-relevant cases.

``compile_model`` accepts anything with ``.run_lengths`` mapping PL
names to run-length sets -- a formal :class:`repro.core.MuPathResult` or
the cheap simulation-derived :class:`UPathSetSummary` from
:func:`collect_upath_summaries`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..core.mhb import CycleAccuratePath, extract_path
from ..designs import isa
from ..designs.harness import default_value_set, program_trace, slot_pc

__all__ = [
    "PERF_MODEL_VERSION",
    "InstrTiming",
    "HazardRule",
    "PerfModel",
    "UPathSetSummary",
    "collect_upath_summaries",
    "compile_model",
    "mutate_latency",
    "operand_features",
    "CLASS_REPRESENTATIVE",
]

PERF_MODEL_VERSION = 1

#: class representative whose μPATH set covers a class member with no
#: synthesized set of its own (the paper's Fig. 8 variants share leakage
#: signatures per class)
CLASS_REPRESENTATIVE = {
    "alu": "ADD",
    "mul": "MUL",
    "div": "DIV",
    "load": "LW",
    "store": "SW",
}

#: unit PL that determines an instruction's execution latency
_UNIT_PL = {"alu": "aluU", "mul": "mulU", "div": "divU", "load": "ldFin"}

#: operand features, smallest consistent subset wins (calibration ladder)
_FEATURE_LADDER: Tuple[Tuple[str, ...], ...] = (
    (),
    ("zero_any",),
    ("rs1_zero",),
    ("rs2_zero",),
    ("rs1_zero", "rs1_msb"),
    ("rs1_zero", "rs1_msb", "rs2_neg"),
    ("rs1_zero", "rs2_zero", "zero_any", "rs1_msb", "rs2_neg"),
)


def _msb_index(value: int) -> int:
    return value.bit_length() - 1 if value else 0


def operand_features(v1: int, v2: int, xlen: int) -> Dict[str, int]:
    """The full operand feature vector the latency tables key on."""
    return {
        "rs1_zero": int(v1 == 0),
        "rs2_zero": int(v2 == 0),
        "zero_any": int(v1 == 0 or v2 == 0),
        "rs1_msb": _msb_index(v1),
        "rs2_neg": (v2 >> (xlen - 1)) & 1,
    }


@dataclass(frozen=True)
class InstrTiming:
    """Per-instruction latency/occupancy table entry."""

    name: str
    cls: str
    unit: str  # alu | mul | div | load | store
    unit_pl: Optional[str]
    writes_rd: bool
    reads_rs1: bool
    reads_rs2: bool
    features: Tuple[str, ...]
    latency_table: Mapping[Tuple[int, ...], int]
    observed_latencies: FrozenSet[int]  # synthesized μPATH run lengths
    source: str  # iuv whose μPATH set covers this instruction

    @property
    def operand_dependent(self) -> bool:
        return len(set(self.latency_table.values())) > 1

    @property
    def min_latency(self) -> int:
        return min(self.latency_table.values())

    @property
    def max_latency(self) -> int:
        return max(self.latency_table.values())

    def latency(self, v1: int, v2: int, xlen: int) -> int:
        feats = operand_features(v1, v2, xlen)
        key = tuple(feats[f] for f in self.features)
        return self.latency_table[key]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cls": self.cls,
            "unit": self.unit,
            "unit_pl": self.unit_pl,
            "writes_rd": self.writes_rd,
            "reads_rs1": self.reads_rs1,
            "reads_rs2": self.reads_rs2,
            "features": list(self.features),
            "latency_table": [
                [list(key), lat] for key, lat in sorted(self.latency_table.items())
            ],
            "observed_latencies": sorted(self.observed_latencies),
            "source": self.source,
        }


@dataclass(frozen=True)
class HazardRule:
    """One compiled hazard rule with its μPATH-derived evidence."""

    kind: str  # raw | structural | scoreboard | store_buffer | st_ld_offset | st_drain_port
    unit: str = ""
    operand_dependent: bool = False
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "unit": self.unit,
            "operand_dependent": self.operand_dependent,
            "detail": self.detail,
        }


@dataclass
class PerfModel:
    """The compiled per-design performance model."""

    design_label: str
    xlen: int
    pc_bits: int
    nregs: int
    mem_words: int
    offset_bits: int
    scb_entries: int
    scb_limit: int
    stb_entries: int
    instrs: Dict[str, InstrTiming]
    hazards: Tuple[HazardRule, ...]
    # iuv -> pl -> sorted run lengths; the synthesized μPATH sets the
    # oracle attaches to missed-μPATH mismatches
    sources: Dict[str, Dict[str, Tuple[int, ...]]] = field(default_factory=dict)

    @property
    def supported(self) -> FrozenSet[str]:
        return frozenset(self.instrs)

    def hazard(self, kind: str, unit: str = "") -> Optional[HazardRule]:
        for rule in self.hazards:
            if rule.kind == kind and (not unit or rule.unit == unit):
                return rule
        return None

    def upath_run_lengths(self, name: str) -> Dict[str, Tuple[int, ...]]:
        """The synthesized μPATH run-length sets covering ``name``."""
        timing = self.instrs.get(name)
        if timing is None:
            return {}
        return dict(self.sources.get(timing.source, {}))

    def to_dict(self) -> dict:
        return {
            "version": PERF_MODEL_VERSION,
            "design_label": self.design_label,
            "xlen": self.xlen,
            "pc_bits": self.pc_bits,
            "nregs": self.nregs,
            "mem_words": self.mem_words,
            "offset_bits": self.offset_bits,
            "scb_entries": self.scb_entries,
            "scb_limit": self.scb_limit,
            "stb_entries": self.stb_entries,
            "instrs": {name: t.to_dict() for name, t in sorted(self.instrs.items())},
            "hazards": [rule.to_dict() for rule in self.hazards],
            "sources": {
                iuv: {pl: list(runs) for pl, runs in pls.items()}
                for iuv, pls in sorted(self.sources.items())
            },
        }


@dataclass(frozen=True)
class UPathSetSummary:
    """Observed μPATH set of one instruction (simulation-derived).

    The cheap stand-in for a formal :class:`~repro.core.MuPathResult`:
    the same ``run_lengths`` shape, collected by sweeping solo and
    store-shadowed contexts through the simulator and extracting the
    concrete cycle-accurate path of each run.
    """

    iuv: str
    run_lengths: Dict[str, FrozenSet[int]]
    contexts: int = 0


# ------------------------------------------------------------------ probing


#: cycles a probe may run before it must quiesce
_PROBE_CYCLES = 200


def _iuv_word(name: str) -> int:
    """The probed instruction: reads x1 and x2, writes x3."""
    return isa.encode(name, rd=3, rs1=1, rs2=2)


def _probe(design, program, arf_init, pc: int) -> CycleAccuratePath:
    """The μPATH of the instruction at ``pc`` when ``program`` runs from
    ``arf_init`` to quiescence on ``design``'s whole core."""
    trace = program_trace(design.netlist, program, arf_init, max_cycles=_PROBE_CYCLES)
    return extract_path(trace, design.metadata.pls, pc)


def _probe_latency(design, name: str, v1: int, v2: int) -> int:
    """Solo-run execution latency of ``name`` with operands (v1, v2).

    Measured as ``first(scbFin) - first(issue) - 1``: the μHB distance
    from the issue-stage node to the write-back node less the one-cycle
    completion→FIN edge.  1 for the ALU path, the counter latency for
    mul/div, 0 for stores (they finish on STB entry).
    """
    visits = _probe(design, (_iuv_word(name),), (0, v1, v2), slot_pc(0)).visits
    t_issue = next((t for t, pls in enumerate(visits) if "issue" in pls), None)
    t_fin = next((t for t, pls in enumerate(visits) if "scbFin" in pls), None)
    if t_issue is None or t_fin is None:
        raise RuntimeError("probe for %s never issued/finished" % name)
    return t_fin - t_issue - 1


def _calibrate(design, name: str, values: Sequence[int]):
    """Probe-sweep one instruction; returns (features, table)."""
    spec = isa.BY_NAME[name]
    xlen = design.config.xlen
    sweep1 = values if spec.reads_rs1 else values[:1]
    sweep2 = values if spec.reads_rs2 else values[:1]
    # non-operand units are constant-latency: a representative probe pair
    # is enough, and keeps compilation dominated by the mul/div sweeps
    if spec.cls not in ("mul", "div"):
        sweep1 = sweep1[:2] or (0,)
        sweep2 = sweep2[:2] or (0,)
    samples = [
        (operand_features(v1, v2, xlen), _probe_latency(design, name, v1, v2))
        for v1, v2 in itertools.product(sweep1, sweep2)
    ]
    for features in _FEATURE_LADDER:
        table: Dict[Tuple[int, ...], int] = {}
        consistent = True
        for feats, lat in samples:
            key = tuple(feats[f] for f in features)
            if table.setdefault(key, lat) != lat:
                consistent = False
                break
        if consistent:
            return features, table
    raise RuntimeError("no consistent feature set for %s" % name)  # pragma: no cover


def collect_upath_summaries(
    design,
    names: Sequence[str],
    values: Optional[Sequence[int]] = None,
) -> Dict[str, UPathSetSummary]:
    """Observed μPATH run-length sets for ``names`` on ``design``.

    Sweeps each instruction solo over the operand value set and -- for
    loads -- behind an offset-matching store, so the operand-dependent
    unit occupancies (divider latency classes, zero-skip arms, ldStall
    runs) all appear.  The result duck-types a ``MuPathResult`` for
    :func:`compile_model`.
    """
    values = tuple(values or default_value_set(design.config.xlen))
    out: Dict[str, UPathSetSummary] = {}
    with obs.span("perf.collect", design=design.netlist.name, iuvs=len(names)):
        for name in names:
            spec = isa.BY_NAME[name]
            word = _iuv_word(name)
            # (program, x0..xN initial values, the probed instruction's pc)
            probes = []
            sweep1 = values if spec.reads_rs1 else values[:1]
            sweep2 = values if spec.reads_rs2 else values[:1]
            if spec.cls not in ("mul", "div"):
                sweep1 = sweep1[:3] or (0,)
                sweep2 = sweep2[:3] or (0,)
            for v1, v2 in itertools.product(sweep1, sweep2):
                probes.append(((word,), (0, v1, v2), slot_pc(0)))
            if spec.cls == "load":
                # shadow the load behind an offset-matching store: the
                # ldStall / LSQ states only appear in these variants.
                # Both use imm=rs2-field=2 and the same base register
                # value, so the page offsets coincide.
                store = isa.encode("SW", rs1=4, rs2=2)
                for v1 in values[:4]:
                    probes.append(((store, word), (0, v1, 0, 0, v1, 1), slot_pc(1)))
            if spec.cls == "store":
                # a trailing load contends for the memory port while the
                # committed store drains (memRq / comSTB evidence)
                load = isa.encode("LW", rd=6, rs1=4, rs2=0)
                probes.append(((word, load), (0, 1, 2, 0, 1), slot_pc(0)))
            runs: Dict[str, set] = {}
            for program, arf_init, pc in probes:
                path = _probe(design, program, arf_init, pc)
                for pl in path.pl_set:
                    runs.setdefault(pl, set()).update(path.run_lengths(pl))
            out[name] = UPathSetSummary(
                iuv=name,
                run_lengths={pl: frozenset(r) for pl, r in runs.items()},
                contexts=len(probes),
            )
    return out


# ---------------------------------------------------------------- compiling


def _unit_of(run_lengths: Mapping[str, FrozenSet[int]], cls: str) -> str:
    if "mulU" in run_lengths:
        return "mul"
    if "divU" in run_lengths:
        return "div"
    if "ldFin" in run_lengths or "ldStall" in run_lengths or "LSQ" in run_lengths:
        return "load"
    if "specSTB" in run_lengths:
        return "store"
    # fall back to the ISA class when the μPATH set is unit-silent
    return cls if cls in ("mul", "div", "load", "store") else "alu"


def compile_model(
    design,
    upaths: Mapping[str, object],
    *,
    names: Optional[Sequence[str]] = None,
    values: Optional[Sequence[int]] = None,
) -> PerfModel:
    """Compile ``design``'s performance model from synthesized μPATH sets.

    ``upaths`` maps instruction names to objects exposing
    ``run_lengths`` (PL → run-length set): formal ``MuPathResult``s or
    :class:`UPathSetSummary`.  ``names`` selects the instructions to
    model (default: every instruction with a μPATH set, plus every class
    member a representative covers is available via class expansion when
    listed explicitly).
    """
    cfg = design.config
    values = tuple(values or default_value_set(cfg.xlen))
    if names is None:
        names = sorted(upaths)
    sources: Dict[str, Dict[str, Tuple[int, ...]]] = {}
    for iuv, result in upaths.items():
        sources[iuv] = {
            pl: tuple(sorted(runs))
            for pl, runs in dict(result.run_lengths).items()
        }

    instrs: Dict[str, InstrTiming] = {}
    with obs.span("perf.compile", design=design.netlist.name, iuvs=len(names)):
        for name in names:
            spec = isa.BY_NAME[name]
            source = name if name in upaths else CLASS_REPRESENTATIVE.get(spec.cls)
            if source not in upaths:
                continue
            run_lengths = dict(upaths[source].run_lengths)
            unit = _unit_of(run_lengths, spec.cls)
            unit_pl = _UNIT_PL.get(unit)
            features, table = _calibrate(design, name, values)
            if unit == "store":
                # stores finish on STB entry: latency 0 by μHB structure
                observed = frozenset({0})
            else:
                observed = frozenset(run_lengths.get(unit_pl, frozenset()))
            instrs[name] = InstrTiming(
                name=name,
                cls=spec.cls,
                unit=unit,
                unit_pl=unit_pl,
                writes_rd=spec.writes_rd,
                reads_rs1=spec.reads_rs1,
                reads_rs2=spec.reads_rs2,
                features=features,
                latency_table=table,
                observed_latencies=observed,
                source=source,
            )

    hazards: List[HazardRule] = [
        HazardRule(
            kind="raw",
            operand_dependent=False,
            detail="scoreboard entry active until release blocks readers",
        ),
        HazardRule(
            kind="scoreboard",
            operand_dependent=True,
            detail="FIFO scoreboard fills behind long-latency occupants "
                   "(limit %d of %d entries)" % (cfg.scb_limit, cfg.scb_entries),
        ),
    ]
    units_present: Dict[str, bool] = {}
    for timing in instrs.values():
        dep = units_present.get(timing.unit, False)
        units_present[timing.unit] = dep or timing.operand_dependent
    for unit in ("mul", "div", "load", "store"):
        if unit in units_present:
            hazards.append(
                HazardRule(
                    kind="structural",
                    unit=unit,
                    operand_dependent=units_present[unit],
                    detail="shared %s occupancy from μPATH pl_set"
                    % (_UNIT_PL.get(unit, "specSTB")),
                )
            )
    if any(
        "ldStall" in sources.get(t.source, {})
        for t in instrs.values()
        if t.unit == "load"
    ):
        hazards.append(
            HazardRule(
                kind="st_ld_offset",
                unit="load",
                operand_dependent=True,
                detail="load μPATH variant with ldStall: page-offset match "
                       "against pending stores (Fig. 4b)",
            )
        )
    if any(
        "memRq" in sources.get(t.source, {})
        for t in instrs.values()
        if t.unit == "store"
    ):
        hazards.append(
            HazardRule(
                kind="st_drain_port",
                unit="store",
                operand_dependent=True,
                detail="store μPATH with memRq: committed-store drain yields "
                       "the single memory port to loads (ST_comSTB, Fig. 5)",
            )
        )

    return PerfModel(
        design_label=design.netlist.name,
        xlen=cfg.xlen,
        pc_bits=cfg.pc_bits,
        nregs=cfg.nregs,
        mem_words=cfg.mem_words,
        offset_bits=cfg.offset_bits,
        scb_entries=cfg.scb_entries,
        scb_limit=cfg.scb_limit,
        stb_entries=cfg.stb_entries,
        instrs=instrs,
        hazards=tuple(hazards),
        sources=sources,
    )


def mutate_latency(model: PerfModel, name: str, delta: int) -> PerfModel:
    """A copy of ``model`` with ``name``'s latencies off by ``delta``.

    The wrong-latency-hazard-rule mutation the oracle's tests inject:
    predictions diverge from simulation while the simulated run lengths
    stay inside the synthesized sets, so mismatches classify as
    perf-model bugs.
    """
    from dataclasses import replace

    timing = model.instrs[name]
    mutated = replace(
        timing,
        latency_table={
            key: max(0, lat + delta) for key, lat in timing.latency_table.items()
        },
    )
    instrs = dict(model.instrs)
    instrs[name] = mutated
    return replace_model(model, instrs=instrs)


def replace_model(model: PerfModel, **kwargs) -> PerfModel:
    from dataclasses import replace

    return replace(model, **kwargs)
