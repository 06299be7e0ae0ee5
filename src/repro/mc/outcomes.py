"""Model-checker verdicts.

The paper's entire methodology is phrased over the three JasperGold cover
outcomes (SS V-B): *reachable* (a witness trace exists), *unreachable* (a
proof that none exists), and *undetermined* (timeout / resource limits).
``UNDETERMINED`` handling is load-bearing: RTL2MuPATH/SynthLC can interpret
it as reachable or unreachable, trading completeness against soundness
(SS VII-B4), and our engines reproduce that trichotomy honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["REACHABLE", "UNREACHABLE", "UNDETERMINED", "CheckResult"]

REACHABLE = "reachable"
UNREACHABLE = "unreachable"
UNDETERMINED = "undetermined"


@dataclass
class CheckResult:
    """Outcome of one query evaluation.

    ``depth`` and ``solver`` carry the engine's effort accounting:
    ``depth`` is the unroll horizon (BMC), induction depth k
    (k-induction), or trace horizon (enumerative); ``solver`` is a dict
    of per-check search-effort counters -- for SAT-backed engines the
    :attr:`repro.solver.sat.SatSolver.last_solve` delta (conflicts,
    decisions, propagations, restarts, learned clauses, formula sizes),
    for the enumerative engine the contexts scanned.  Both default to
    None and round-trip through :meth:`to_dict`/:meth:`from_dict`
    backward-compatibly: payloads written before these fields existed
    still load (the proof cache replays old entries unchanged).
    """

    query_name: str
    outcome: str
    engine: str
    witness: Optional[List[Dict[str, int]]] = None  # per-cycle observations
    time_seconds: float = 0.0
    detail: str = ""
    depth: Optional[int] = None
    solver: Optional[Dict[str, int]] = None
    # verdict certificate bundle (see repro.cert): a "witness" bundle for
    # REACHABLE (decoded input trace, replay-confirmed on the simulator)
    # or a "drat" bundle for UNREACHABLE (checkable proof logs for every
    # solve leg).  None = uncertified (certify off, or a pre-certificate
    # cache entry); UNDETERMINED verdicts are honestly uncertifiable and
    # never carry one.
    certificate: Optional[Dict] = None

    @property
    def reachable(self):
        return self.outcome == REACHABLE

    @property
    def unreachable(self):
        return self.outcome == UNREACHABLE

    @property
    def undetermined(self):
        return self.outcome == UNDETERMINED

    def interpret_undetermined(self, as_outcome: str) -> str:
        """Resolve an undetermined verdict per tool configuration (SS VII-B4)."""
        if self.outcome == UNDETERMINED:
            return as_outcome
        return self.outcome

    def to_dict(self) -> Dict:
        """JSON-ready form; exact inverse of :meth:`from_dict`.

        The effort fields are emitted only when present, so payloads
        stay byte-compatible with pre-observability readers.
        """
        payload = {
            "query_name": self.query_name,
            "outcome": self.outcome,
            "engine": self.engine,
            "witness": self.witness,
            "time_seconds": self.time_seconds,
            "detail": self.detail,
        }
        if self.depth is not None:
            payload["depth"] = self.depth
        if self.solver is not None:
            payload["solver"] = self.solver
        if self.certificate is not None:
            payload["certificate"] = self.certificate
        return payload

    @staticmethod
    def from_dict(payload: Dict) -> "CheckResult":
        return CheckResult(
            query_name=payload["query_name"],
            outcome=payload["outcome"],
            engine=payload["engine"],
            witness=payload.get("witness"),
            time_seconds=payload.get("time_seconds", 0.0),
            detail=payload.get("detail", ""),
            depth=payload.get("depth"),
            solver=payload.get("solver"),
            certificate=payload.get("certificate"),
        )
