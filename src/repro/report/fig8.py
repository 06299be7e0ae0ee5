"""Fig. 8 reproduction: the transponder x transmitter leakage matrix.

The paper's Fig. 8 plots, for the CVA6 core, every transponder class
(coarse columns) with one fine column per leakage signature (annotated
with its output-range size), against transmitter classes and operands
(rows), distinguishing primary, secondary, and false-positive leakage.

SynthLC runs on one representative per functional class (exactly how the
artifact seeds its Fig. 8 flow with precomputed uPATHs) and this module
extends results across each class: instructions of a class share
datapaths by construction of the ISA, which the test suite spot-verifies
by re-synthesizing uPATHs for sampled class members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..designs import isa
from ..core.synthlc import LeakageSignature, SynthLCResult, TransmitterTag

__all__ = ["CLASS_REPRESENTATIVES", "class_members", "Fig8Matrix", "build_fig8"]

# functional class -> representative instruction (the synthesis subject)
CLASS_REPRESENTATIVES: Dict[str, str] = {
    "alu": "ADD",
    "mul": "MUL",
    "div": "DIV",
    "load": "LW",
    "store": "SW",
    "branch": "BEQ",
    "jal": "JAL",
    "jalr": "JALR",
    "system": "ECALL",
}


def class_members(class_name: str) -> Tuple[str, ...]:
    return isa.CLASSES[class_name]


def class_of(instruction: str) -> str:
    return isa.BY_NAME[instruction].cls


@dataclass
class Fig8Cell:
    """One (transmitter-row, signature-column) cell."""

    kind: str  # "primary" | "secondary" | "false-positive"


@dataclass
class Fig8Matrix:
    """The extended matrix plus headline counts (SS VII-A1)."""

    # (transponder instruction, signature name) -> column
    columns: List[Tuple[str, LeakageSignature]]
    # (transmitter instruction, ttype-group, operand) -> row
    rows: List[Tuple[str, str, str]]
    cells: Dict[Tuple[int, int], Fig8Cell]
    transponders: Tuple[str, ...]
    intrinsic_transmitters: Tuple[str, ...]
    dynamic_transmitters: Tuple[str, ...]
    static_transmitters: Tuple[str, ...]
    unique_signatures: int
    false_positive_signatures: int

    @property
    def num_transponders(self):
        return len(self.transponders)

    @property
    def num_transmitters(self):
        return len(
            set(self.intrinsic_transmitters)
            | set(self.dynamic_transmitters)
            | set(self.static_transmitters)
        )

    def render(self, max_columns: int = 24) -> str:
        lines = [
            "Fig. 8 matrix: %d transponders, %d transmitters "
            "(%d intrinsic, %d dynamic, %d static), %d unique signatures "
            "(%d with false-positive inputs)"
            % (
                self.num_transponders,
                self.num_transmitters,
                len(self.intrinsic_transmitters),
                len(self.dynamic_transmitters),
                len(self.static_transmitters),
                self.unique_signatures,
                self.false_positive_signatures,
            )
        ]
        shown = self.columns[:max_columns]
        header = "%-18s" % "transmitter(row)"
        for transponder, signature in shown:
            header += " %10s" % ("%s@%s" % (transponder[:5], signature.src[:5]))
        lines.append(header)
        mark = {"primary": "P", "secondary": "s", "false-positive": "x"}
        for ri, row in enumerate(self.rows):
            label = "%-18s" % ("%s^%s.%s" % row)
            cells = ""
            for ci in range(len(shown)):
                cell = self.cells.get((ri, ci))
                cells += " %10s" % (mark[cell.kind] if cell else ".")
            lines.append(label + cells)
        if len(self.columns) > max_columns:
            lines.append("... (%d more columns)" % (len(self.columns) - max_columns))
        return "\n".join(lines)


_DYNAMIC = ("dynamic_older", "dynamic_younger")


def _ttype_group(ttype: str) -> str:
    if ttype in _DYNAMIC:
        return "D"
    return "N" if ttype == "intrinsic" else "S"


def _is_secondary(signature: LeakageSignature, tag: TransmitterTag,
                  intrinsic_transmitters: Set[str]) -> bool:
    """The paper's secondary-leakage pattern (SS VII-A1): the transponder
    merely stalls at a shared resource behind a transmitter that is itself
    a transponder -- e.g. an ADD stuck at the SCB behind an intrinsic DIV.

    Heuristic: the tag is dynamic, its transmitter is an intrinsic
    transmitter elsewhere (it leaks through its own uPATHs already), and
    the signature has a hold-at-source arm (some destination keeps the
    transponder at the decision source)."""
    if tag.ttype == "intrinsic":
        return False
    if tag.transmitter not in intrinsic_transmitters:
        return False
    if tag.transmitter == signature.transponder:
        return False
    return any(signature.src in dst for dst in signature.destinations)


def build_fig8(
    result: SynthLCResult,
    extend_classes: bool = True,
) -> Fig8Matrix:
    """Build the matrix, optionally extending class representatives to all
    72 instructions (the representative's signatures are reproduced for
    every class member, with transmitter rows extended likewise)."""

    def expand_instr(name: str) -> List[str]:
        if not extend_classes:
            return [name]
        return list(class_members(class_of(name)))

    # columns: transponder instruction x signature
    columns: List[Tuple[str, LeakageSignature]] = []
    for signature in result.signatures:
        for member in expand_instr(signature.transponder):
            columns.append((member, signature))
    columns.sort(key=lambda c: (class_of(c[0]), c[0], c[1].src))

    # rows: transmitter x type-group x operand
    row_set: Set[Tuple[str, str, str]] = set()
    for signature in result.signatures:
        for tag in signature.inputs:
            for member in expand_instr(tag.transmitter):
                row_set.add((member, _ttype_group(tag.ttype), tag.operand))
    rows = sorted(row_set)
    row_index = {row: i for i, row in enumerate(rows)}

    intrinsic: Set[str] = set()
    dynamic: Set[str] = set()
    static: Set[str] = set()
    for ttype, names in result.transmitters.items():
        for name in names:
            for member in expand_instr(name):
                if ttype == "intrinsic":
                    intrinsic.add(member)
                elif ttype in _DYNAMIC:
                    dynamic.add(member)
                else:
                    static.add(member)

    cells: Dict[Tuple[int, int], Fig8Cell] = {}
    for ci, (transponder, signature) in enumerate(columns):
        for tag in signature.inputs:
            group = _ttype_group(tag.ttype)
            for member in expand_instr(tag.transmitter):
                ri = row_index.get((member, group, tag.operand))
                if ri is None:
                    continue
                if tag.false_positive:
                    kind = "false-positive"
                elif _is_secondary(signature, tag, intrinsic):
                    kind = "secondary"
                else:
                    kind = "primary"
                existing = cells.get((ri, ci))
                if existing is None or existing.kind != "primary":
                    cells[(ri, ci)] = Fig8Cell(kind=kind)

    transponders = sorted(
        {member for s in result.signatures for member in expand_instr(s.transponder)}
    )
    fp_signatures = sum(1 for s in result.signatures if s.has_false_positive_inputs())
    return Fig8Matrix(
        columns=columns,
        rows=rows,
        cells=cells,
        transponders=tuple(transponders),
        intrinsic_transmitters=tuple(sorted(intrinsic)),
        dynamic_transmitters=tuple(sorted(dynamic)),
        static_transmitters=tuple(sorted(static)),
        unique_signatures=len(result.signatures),
        false_positive_signatures=fp_signatures,
    )
