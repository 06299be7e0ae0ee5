"""The paper's contributions: RTL2MuPATH, SynthLC, and contract derivation."""

from .pl import DesignMetadata, MicroFsm, PerformingLocation
from .mhb import CycleAccuratePath, UhbGraph, UhbNode, extract_path
from .decisions import Decision, DecisionSet, extract_decisions
from .rtl2mupath import MuPathResult, Rtl2MuPath, Rtl2MuPathConfig, UPathSummary
from .synthlc import (
    LeakageSignature,
    SynthLC,
    SynthLCResult,
    TransmitterTag,
    instrument_design,
)
from .security import (
    ScSafeViolation,
    UPathReceiver,
    check_sc_safe,
    violation_explained_by_signatures,
)
from .contracts import (
    CtContract,
    DolmaContract,
    Mi6Contract,
    OisaContract,
    SdoContract,
    SptContract,
    SttContract,
    derive_all_contracts,
)

__all__ = [
    "DesignMetadata",
    "MicroFsm",
    "PerformingLocation",
    "CycleAccuratePath",
    "UhbGraph",
    "UhbNode",
    "extract_path",
    "Decision",
    "DecisionSet",
    "extract_decisions",
    "MuPathResult",
    "Rtl2MuPath",
    "Rtl2MuPathConfig",
    "UPathSummary",
    "LeakageSignature",
    "SynthLC",
    "SynthLCResult",
    "TransmitterTag",
    "instrument_design",
    "ScSafeViolation",
    "UPathReceiver",
    "check_sc_safe",
    "violation_explained_by_signatures",
    "CtContract",
    "DolmaContract",
    "Mi6Contract",
    "OisaContract",
    "SdoContract",
    "SptContract",
    "SttContract",
    "derive_all_contracts",
]
