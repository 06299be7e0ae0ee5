"""Exact JSON round-trips for pipeline result objects.

The proof cache stores whole-job values as JSON; replayed values must be
**equal** (``==``) to freshly computed ones so warm-cache runs are
bit-identical to cold runs.  Frozensets serialize as sorted lists and are
rebuilt as frozensets; list order (uPATH families, concrete paths,
per-property results) is preserved verbatim.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.decisions import DecisionSet
from ..core.mhb import CycleAccuratePath
from ..core.rtl2mupath import MuPathResult, UPathSummary
from ..mc.outcomes import CheckResult

__all__ = [
    "mupath_result_to_dict",
    "mupath_result_from_dict",
    "check_results_to_dicts",
]


# ------------------------------------------------------------- cycle paths
def _path_to_dict(path: Optional[CycleAccuratePath]) -> Optional[Dict[str, Any]]:
    if path is None:
        return None
    return {"iuv": path.iuv, "visits": [sorted(c) for c in path.visits]}


def _path_from_dict(payload: Optional[Dict[str, Any]]) -> Optional[CycleAccuratePath]:
    if payload is None:
        return None
    return CycleAccuratePath(
        iuv=payload["iuv"],
        visits=tuple(frozenset(c) for c in payload["visits"]),
    )


# ---------------------------------------------------------- uPATH summaries
def _upath_to_dict(upath: UPathSummary) -> Dict[str, Any]:
    return {
        "pl_set": sorted(upath.pl_set),
        "revisit": dict(upath.revisit),
        "hb_edges": sorted([a, b] for a, b in upath.hb_edges),
        "run_lengths": {pl: sorted(v) for pl, v in upath.run_lengths.items()},
        "example": _path_to_dict(upath.example),
    }


def _upath_from_dict(payload: Dict[str, Any]) -> UPathSummary:
    return UPathSummary(
        pl_set=frozenset(payload["pl_set"]),
        revisit=dict(payload["revisit"]),
        hb_edges=frozenset((a, b) for a, b in payload["hb_edges"]),
        run_lengths={
            pl: frozenset(v) for pl, v in payload["run_lengths"].items()
        },
        example=_path_from_dict(payload["example"]),
    )


# ------------------------------------------------------------ decision sets
def _decisions_to_dict(decisions: DecisionSet) -> Dict[str, Any]:
    return {
        "iuv": decisions.iuv,
        "by_source": {
            src: sorted(sorted(dst) for dst in dsts)
            for src, dsts in decisions.by_source.items()
        },
    }


def _decisions_from_dict(payload: Dict[str, Any]) -> DecisionSet:
    return DecisionSet(
        iuv=payload["iuv"],
        by_source={
            src: {frozenset(dst) for dst in dsts}
            for src, dsts in payload["by_source"].items()
        },
    )


# ------------------------------------------------------------- full results
def mupath_result_to_dict(result: MuPathResult) -> Dict[str, Any]:
    return {
        "iuv": result.iuv,
        "iuv_pls": sorted(result.iuv_pls),
        "dominates": sorted([a, b] for a, b in result.dominates),
        "exclusive": sorted(sorted(pair) for pair in result.exclusive),
        "candidate_sets_considered": result.candidate_sets_considered,
        "naive_power_set_size": result.naive_power_set_size,
        "upaths": [_upath_to_dict(u) for u in result.upaths],
        "concrete_paths": [_path_to_dict(p) for p in result.concrete_paths],
        "decisions": _decisions_to_dict(result.decisions),
        "run_lengths": {pl: sorted(v) for pl, v in result.run_lengths.items()},
        "truncated": bool(result.truncated),
    }


def mupath_result_from_dict(payload: Dict[str, Any]) -> MuPathResult:
    return MuPathResult(
        iuv=payload["iuv"],
        iuv_pls=frozenset(payload["iuv_pls"]),
        dominates=frozenset((a, b) for a, b in payload["dominates"]),
        exclusive=frozenset(frozenset(pair) for pair in payload["exclusive"]),
        candidate_sets_considered=payload["candidate_sets_considered"],
        naive_power_set_size=payload["naive_power_set_size"],
        upaths=[_upath_from_dict(u) for u in payload["upaths"]],
        concrete_paths=[_path_from_dict(p) for p in payload["concrete_paths"]],
        decisions=_decisions_from_dict(payload["decisions"]),
        run_lengths={
            pl: frozenset(v) for pl, v in payload["run_lengths"].items()
        },
        truncated=bool(payload["truncated"]),
    )


# ------------------------------------------------------- per-property results
def check_results_to_dicts(results: List[CheckResult]) -> List[Dict[str, Any]]:
    return [r.to_dict() for r in results]

