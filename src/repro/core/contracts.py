"""Leakage-contract derivation (paper SS II-B, SS IV-D, Table I).

SynthLC's output -- uPATHs plus leakage signatures -- is a unifying
formalism from which the paper derives six state-of-the-art leakage
contracts supporting ten defenses.  This module performs those
derivations:

================  ==========================================================
CT / SCT          constant-time contract: transmitters and their unsafe
                  operands (enables CT programming, SCT programming,
                  SpecShield, ConTExt)
MI6               contention-based dynamic channels + static channels
                  (purge/partitioning targets)
OISA              input-dependent arithmetic units
STT / SDO / SPT   explicit channels, implicit channels, implicit branches,
                  prediction-based channels, resolution-based channels
SDO               data-oblivious variants (full uPATH sets + revisit cycle
                  counts for intrinsic transmitters)
Dolma             variable-time micro-ops, contention-based dynamic
                  channels, inducive/resolvent micro-ops, prediction
                  resolution points, persistent-state-modifying micro-ops
================  ==========================================================

Each derivation consumes exactly the signature components Table I marks as
relevant for it; the Table I bench cross-checks this mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .rtl2mupath import MuPathResult
from .synthlc import LeakageSignature, SynthLCResult

__all__ = [
    "CtContract",
    "Mi6Contract",
    "OisaContract",
    "SttContract",
    "SdoContract",
    "DolmaContract",
    "SptContract",
    "derive_all_contracts",
    "TABLE1_COMPONENTS",
]

# Table I: contract component -> leakage-signature components it consumes.
# Components: "u" (uPATHs), "P" (transponder), "src", "TN", "TD", "TS",
# "a" (arguments).
TABLE1_COMPONENTS: Dict[str, Tuple[str, ...]] = {
    "ct.transmitters": ("TN", "TD", "TS", "a"),
    "mi6.dynamic_channels": ("P", "src", "TN", "TD"),
    "mi6.static_channels": ("P", "src", "TS"),
    "oisa.input_dependent_units": ("src", "TN", "a"),
    "stt.explicit_channels": ("P", "src", "TN", "a"),
    "stt.implicit_channels": ("P", "src", "TD", "TS", "a"),
    "stt.implicit_branches": ("P", "TD", "TS", "a"),
    "stt.prediction_channels": ("P", "src", "TS", "a"),
    "stt.resolution_channels": ("P", "src", "TD", "a"),
    "sdo.data_oblivious_variants": ("u", "TN", "a"),
    "dolma.variable_time_uops": ("TN", "a"),
    "dolma.dynamic_channels": ("P", "src", "TN", "TD", "a"),
    "dolma.inducive_uops": ("u", "P", "TD"),
    "dolma.resolvent_uops": ("TD", "a"),
    "dolma.resolution_points": ("P", "src", "TD", "a"),
    "dolma.persistent_state_uops": ("TS", "a"),
}

_DYNAMIC = ("dynamic_older", "dynamic_younger")


def _true_inputs(signature: LeakageSignature):
    """Signature inputs surviving the false-positive cross-check."""
    return [tag for tag in signature.inputs if not tag.false_positive]


def _has_type(signature: LeakageSignature, ttypes) -> bool:
    return any(tag.ttype in ttypes for tag in _true_inputs(signature))


@dataclass
class CtContract:
    """The canonical constant-time contract: unsafe (instruction, operand)."""

    unsafe_operands: FrozenSet[Tuple[str, str]]

    @staticmethod
    def derive(result: SynthLCResult) -> "CtContract":
        unsafe: Set[Tuple[str, str]] = set()
        for signature in result.signatures:
            for tag in _true_inputs(signature):
                unsafe.add((tag.transmitter, tag.operand))
        return CtContract(unsafe_operands=frozenset(unsafe))

    def is_unsafe(self, instruction: str, operand: str) -> bool:
        return (instruction, operand) in self.unsafe_operands

    def transmitters(self) -> List[str]:
        return sorted({instr for instr, _ in self.unsafe_operands})

    def render(self) -> str:
        lines = ["Constant-time contract (unsafe operands):"]
        for instr, operand in sorted(self.unsafe_operands):
            lines.append("  %s.%s" % (instr, operand))
        return "\n".join(lines)


@dataclass
class Mi6Contract:
    """MI6: dynamic (contention) channels + static channels (purge set)."""

    dynamic_channels: Tuple[LeakageSignature, ...]
    static_channels: Tuple[LeakageSignature, ...]

    @staticmethod
    def derive(result: SynthLCResult) -> "Mi6Contract":
        dynamic = tuple(
            s for s in result.signatures if _has_type(s, ("intrinsic",) + _DYNAMIC)
        )
        static = tuple(s for s in result.signatures if _has_type(s, ("static",)))
        return Mi6Contract(dynamic_channels=dynamic, static_channels=static)

    def purge_targets(self) -> List[str]:
        """PLs whose state a purge instruction must flush."""
        out: Set[str] = set()
        for signature in self.static_channels:
            out.add(signature.src)
            for dst in signature.destinations:
                out |= dst
        return sorted(out)


@dataclass
class OisaContract:
    """OISA: arithmetic units occupied an operand-dependent number of cycles."""

    input_dependent_units: FrozenSet[Tuple[str, str, str]]  # (instr, operand, unit PL)

    # PLs that are functional-unit occupancies on our designs
    UNIT_PLS = ("divU", "mulU", "aluU")

    @staticmethod
    def derive(result: SynthLCResult,
               mupath_results: Dict[str, MuPathResult]) -> "OisaContract":
        units: Set[Tuple[str, str, str]] = set()
        for signature in result.signatures:
            intrinsic = [t for t in _true_inputs(signature) if t.ttype == "intrinsic"]
            if not intrinsic:
                continue
            touched = {signature.src}
            for dst in signature.destinations:
                touched |= dst
            res = mupath_results.get(signature.transponder)
            for pl in touched & set(OisaContract.UNIT_PLS):
                variable = (
                    res is not None and len(res.run_lengths.get(pl, ())) > 1
                )
                if variable or pl == signature.src:
                    for tag in intrinsic:
                        units.add((signature.transponder, tag.operand, pl))
        return OisaContract(input_dependent_units=frozenset(units))


@dataclass
class SttContract:
    """STT's five fine-grained components (shared by SDO and SPT)."""

    explicit_channels: Tuple[Tuple[str, str], ...]  # (transponder, src)
    implicit_channels: Tuple[Tuple[str, str], ...]
    implicit_branches: Tuple[str, ...]  # transponders
    prediction_channels: Tuple[Tuple[str, str], ...]  # static-T driven
    resolution_channels: Tuple[Tuple[str, str], ...]  # dynamic-T driven

    @staticmethod
    def derive(result: SynthLCResult) -> "SttContract":
        explicit = set()
        implicit = set()
        branches = set()
        prediction = set()
        resolution = set()
        for s in result.signatures:
            key = (s.transponder, s.src)
            if _has_type(s, ("intrinsic",)):
                explicit.add(key)
            if _has_type(s, _DYNAMIC + ("static",)):
                implicit.add(key)
                branches.add(s.transponder)
            if _has_type(s, ("static",)):
                prediction.add(key)
            if _has_type(s, _DYNAMIC):
                resolution.add(key)
        return SttContract(
            explicit_channels=tuple(sorted(explicit)),
            implicit_channels=tuple(sorted(implicit)),
            implicit_branches=tuple(sorted(branches)),
            prediction_channels=tuple(sorted(prediction)),
            resolution_channels=tuple(sorted(resolution)),
        )


@dataclass
class SdoContract:
    """SDO: STT plus data-oblivious variants of explicit-channel transmitters.

    A data-oblivious variant pins one realizable uPATH (one revisit cycle
    count per variable-latency PL) that the hardware can force regardless
    of operands (SS II-B "SDO").
    """

    stt: SttContract
    variants: Dict[str, Tuple[FrozenSet[str], Dict[str, int]]]

    @staticmethod
    def derive(result: SynthLCResult,
               mupath_results: Dict[str, MuPathResult]) -> "SdoContract":
        stt = SttContract.derive(result)
        variants: Dict[str, Tuple[FrozenSet[str], Dict[str, int]]] = {}
        for transponder, _src in stt.explicit_channels:
            res = mupath_results.get(transponder)
            if res is None or not res.upaths:
                continue
            # the safe variant forces the worst-case (maximum) residency of
            # every variable-latency PL along the largest uPATH
            largest = max(res.upaths, key=lambda u: len(u.pl_set))
            forced = {
                pl: max(lengths)
                for pl, lengths in largest.run_lengths.items()
                if len(lengths) > 1
            }
            variants[transponder] = (largest.pl_set, forced)
        return SdoContract(stt=stt, variants=variants)


@dataclass
class DolmaContract:
    """Dolma's six contract components."""

    variable_time_uops: Tuple[str, ...]
    dynamic_channels: Tuple[Tuple[str, str], ...]
    inducive_uops: Tuple[str, ...]
    resolvent_uops: Tuple[str, ...]
    resolution_points: Tuple[Tuple[str, str], ...]
    persistent_state_uops: Tuple[str, ...]

    @staticmethod
    def derive(result: SynthLCResult,
               mupath_results: Dict[str, MuPathResult]) -> "DolmaContract":
        variable_time = set()
        for name, res in mupath_results.items():
            if any(len(lengths) > 1 for lengths in res.run_lengths.values()):
                if any(
                    t.ttype == "intrinsic"
                    for s in result.signatures_for(name)
                    for t in _true_inputs(s)
                ):
                    variable_time.add(name)
        dynamic_channels = set()
        inducive = set()
        resolvent = set()
        resolution_points = set()
        persistent = set()
        for s in result.signatures:
            if _has_type(s, ("intrinsic",) + _DYNAMIC):
                dynamic_channels.add((s.transponder, s.src))
            dyn_tags = [t for t in _true_inputs(s) if t.ttype in _DYNAMIC]
            if dyn_tags:
                inducive.add(s.transponder)
                resolution_points.add((s.transponder, s.src))
                for tag in dyn_tags:
                    resolvent.add(tag.transmitter)
            for tag in _true_inputs(s):
                if tag.ttype == "static":
                    persistent.add(tag.transmitter)
        return DolmaContract(
            variable_time_uops=tuple(sorted(variable_time)),
            dynamic_channels=tuple(sorted(dynamic_channels)),
            inducive_uops=tuple(sorted(inducive)),
            resolvent_uops=tuple(sorted(resolvent)),
            resolution_points=tuple(sorted(resolution_points)),
            persistent_state_uops=tuple(sorted(persistent)),
        )


@dataclass
class SptContract:
    """SPT: STT's contract plus a CT contract (for its declassification rule)."""

    stt: SttContract
    ct: CtContract

    @staticmethod
    def derive(result: SynthLCResult) -> "SptContract":
        return SptContract(stt=SttContract.derive(result), ct=CtContract.derive(result))


@dataclass
class AllContracts:
    ct: CtContract
    mi6: Mi6Contract
    oisa: OisaContract
    stt: SttContract
    sdo: SdoContract
    dolma: DolmaContract
    spt: SptContract

    def summary(self) -> str:
        lines = [
            "CT: %d unsafe operands over %d transmitters"
            % (len(self.ct.unsafe_operands), len(self.ct.transmitters())),
            "MI6: %d dynamic channels, %d static channels"
            % (len(self.mi6.dynamic_channels), len(self.mi6.static_channels)),
            "OISA: %d input-dependent arithmetic-unit entries"
            % len(self.oisa.input_dependent_units),
            "STT: %d explicit, %d implicit channels, %d implicit branches"
            % (
                len(self.stt.explicit_channels),
                len(self.stt.implicit_channels),
                len(self.stt.implicit_branches),
            ),
            "SDO: %d data-oblivious variants" % len(self.sdo.variants),
            "Dolma: %d variable-time uops, %d inducive, %d resolvent"
            % (
                len(self.dolma.variable_time_uops),
                len(self.dolma.inducive_uops),
                len(self.dolma.resolvent_uops),
            ),
            "SPT: STT + CT (%d unsafe operands)" % len(self.spt.ct.unsafe_operands),
        ]
        return "\n".join(lines)


def derive_all_contracts(result: SynthLCResult,
                         mupath_results: Dict[str, MuPathResult]) -> AllContracts:
    """Derive every Table I contract from one SynthLC result."""
    return AllContracts(
        ct=CtContract.derive(result),
        mi6=Mi6Contract.derive(result),
        oisa=OisaContract.derive(result, mupath_results),
        stt=SttContract.derive(result),
        sdo=SdoContract.derive(result, mupath_results),
        dolma=DolmaContract.derive(result, mupath_results),
        spt=SptContract.derive(result),
    )
