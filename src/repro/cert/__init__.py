"""repro.cert: certified verdicts for the model-checking engines.

The verdict lattice (REACHABLE / UNREACHABLE / UNDETERMINED, paper
SS V-B, SS VII-B3) is only as trustworthy as the solve path that produced
it -- and that path carries verdict-affecting optimizations (incremental
contexts with retractable property groups, COI slicing).  This package
removes the "trusted model checker" assumption by making every final
verdict carry an independently checkable *certificate*:

* **REACHABLE** -- a *witness* certificate: the SAT model decoded into an
  initial register state plus a per-cycle input trace, replayed on the
  concrete simulator (:mod:`repro.sim`) to confirm the cover actually
  fires at the claimed depth.  The replay shares zero code with the
  SAT engine, so a solver soundness bug cannot vouch for itself.
* **UNREACHABLE** -- a *DRAT* certificate: the solver's proof log (input
  clauses and CDCL-learned clauses) plus the terminal negation-of-core
  lemma, for *both* legs of a k-induction proof, checked by the
  pure-Python backward RUP checker in :mod:`.drat` -- independent of
  the solver's watch lists, trail, and heuristics.
* **UNDETERMINED** -- honestly uncertifiable: budget exhaustion has no
  finite refutation or witness, so undetermined results never carry a
  certificate (and, as before, are never cached).

Certificates travel inside :class:`~repro.mc.outcomes.CheckResult`
bundles, through the worker reports and the format-v2 proof cache
(digest-verified on read-through).  A certification
*failure* never aborts a campaign: the scheduler quarantines the result
and re-solves the job on the conservative path (fresh non-incremental
contexts) when the job has one -- see DESIGN SS5j.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..obs import span as _span
from ..obs.metrics import REGISTRY

__all__ = [
    "CertifyPolicy",
    "MODES",
    "canonical_payload_bytes",
    "payload_digest",
    "make_certificate",
    "verify_certificate_digest",
    "certificate_failed",
    "failed_certificates",
    "checked_certificates",
    "drat_certificate",
    "witness_certificate",
    "cover_witness_certificate",
    "replay_witness",
]

MODES = ("off", "spot", "full")

# max proof entries a single DRAT leg may have and still be checked
PROOF_LIMIT = 200_000
# wall-clock seconds budget per DRAT check
TIME_BUDGET = 10.0
# max canonical-JSON bytes of payload retained inside a bundle; larger
# payloads are checked, then dropped to digest-only
PAYLOAD_LIMIT = 2_000_000
# spot mode checks the proofs of 1 in SPOT_MODULUS query names
SPOT_MODULUS = 4

_CHECKS = REGISTRY.counter(
    "repro_cert_checks_total", "certificate checks, by kind and status"
)
_CHECK_SECONDS = REGISTRY.histogram(
    "repro_cert_check_seconds", "wall-clock seconds per certificate check"
)
_UNCAUGHT = REGISTRY.counter(
    "repro_cert_uncaught_total",
    "certification failures that survived into final results",
)


@dataclass(frozen=True)
class CertifyPolicy:
    """How aggressively to check certificates (the ``--certify`` mode).

    ``off`` disables proof logging entirely (zero overhead); ``spot``
    logs everything but only *checks* a deterministic 1-in-``SPOT_MODULUS``
    sample of certificates (witness replays are cheap and always run);
    ``full`` checks every certificate, subject to the per-check proof
    size and time budgets (``PROOF_LIMIT``, ``TIME_BUDGET``) -- a
    budgeted skip is reported as ``budget``, never as a failure.
    """

    mode: str = "off"

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def should_check_proof(self, name: str) -> bool:
        """Whether to run the (expensive) DRAT check for ``name``."""
        if self.mode == "full":
            return True
        if self.mode != "spot":
            return False
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        return digest[0] % SPOT_MODULUS == 0

    @classmethod
    def from_mode(cls, mode: str) -> "CertifyPolicy":
        if mode not in MODES:
            raise ValueError(f"unknown certify mode: {mode!r}")
        return cls(mode=mode)


# ----------------------------------------------------------------- bundles
def canonical_payload_bytes(payload) -> bytes:
    """Canonical JSON encoding (sorted keys, no whitespace) of a payload."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("utf-8")


def payload_digest(payload) -> str:
    return hashlib.sha256(canonical_payload_bytes(payload)).hexdigest()


def make_certificate(
    kind: str,
    payload,
    status: str,
    detail: str = "",
) -> dict:
    """Assemble a certificate bundle around a checked (or skipped) payload.

    ``status`` is one of ``verified`` / ``failed`` / ``skipped`` /
    ``budget`` / ``overflow``; ``verified`` is the derived tri-state the
    rest of the system branches on (True / False / None-for-unchecked).
    The payload is retained only under ``PAYLOAD_LIMIT`` bytes -- a
    dropped payload keeps its digest, so cache read-through checks can
    still prove the bytes they *do* see are the bytes that were checked.
    """
    data = canonical_payload_bytes(payload)
    cert = {
        "kind": kind,
        "status": status,
        "verified": True if status == "verified" else (
            False if status == "failed" else None
        ),
        "digest": hashlib.sha256(data).hexdigest(),
    }
    if detail:
        cert["detail"] = detail
    if len(data) <= PAYLOAD_LIMIT:
        cert["payload"] = payload
    else:
        cert["payload"] = None
        cert["payload_dropped"] = True
    _CHECKS.inc(kind=kind, status=status)
    return cert


def verify_certificate_digest(cert: dict) -> bool:
    """Re-derive the payload digest; True when intact or payload absent."""
    if not isinstance(cert, dict):
        return False
    payload = cert.get("payload")
    if payload is None:
        return True  # digest-only bundles have nothing left to corrupt
    return payload_digest(payload) == cert.get("digest")


def certificate_failed(result) -> bool:
    """Whether a CheckResult (or bare bundle) carries a *failed* certificate."""
    cert = getattr(result, "certificate", result)
    return isinstance(cert, dict) and cert.get("verified") is False


def failed_certificates(results: Iterable) -> List[str]:
    """Query names whose results carry failed certificates."""
    return [
        getattr(r, "query_name", "?") for r in results if certificate_failed(r)
    ]


def checked_certificates(results: Iterable) -> int:
    """How many results carry a certificate that was actually checked."""
    count = 0
    for r in results:
        cert = getattr(r, "certificate", None)
        if isinstance(cert, dict) and cert.get("verified") is not None:
            count += 1
    return count


def note_uncaught(count: int) -> None:
    if count:
        _UNCAUGHT.inc(count)


# ------------------------------------------------------------- DRAT bundles
def drat_certificate(
    legs: Dict[str, Tuple[Sequence, Sequence[int]]],
    policy: CertifyPolicy,
    name: str = "",
    overflow: bool = False,
) -> dict:
    """Build (and per policy, check) a DRAT certificate over proof legs.

    ``legs`` maps a leg label (``base`` / ``step`` for k-induction,
    ``proof`` for plain BMC exhaustion) to ``(entries, final)`` where
    ``entries`` is the solver's proof log slice and ``final`` the
    terminal lemma (empty tuple = empty clause).  All legs must verify
    for the certificate to verify; a budget/overflow skip on any leg
    demotes the whole bundle to unchecked rather than failed.

    For a query the policy will *not* check (spot-unsampled), a leg's
    ``entries`` may be a bare int (the solver's ``proof_length()``)
    instead of the materialized log -- the engines use this to skip the
    snapshot copy of a shared incremental log entirely.
    """
    from . import drat

    if not policy.should_check_proof(name):
        # Nothing will be checked, so don't pay for materializing +
        # canonicalizing + digesting a payload nobody will ever look at
        # (that cost alone blows the spot-mode overhead budget).  The
        # bundle is digest-only from birth; its digest pins the proof
        # *shape* (per-leg entry counts + final lemma), which is all an
        # unchecked bundle can vouch for.
        shape = {
            label: {
                "entries": entries if isinstance(entries, int)
                else len(entries),
                "final": list(final),
            }
            for label, (entries, final) in legs.items()
        }
        status = "overflow" if overflow else "skipped"
        cert = {
            "kind": "drat",
            "status": status,
            "verified": None,
            "digest": payload_digest({"shape": shape}),
            "payload": None,
            "payload_dropped": True,
        }
        if overflow:
            cert["detail"] = "proof log overflowed the retention cap"
        _CHECKS.inc(kind="drat", status=status)
        return cert

    payload = {
        "legs": {
            label: {
                "entries": [[tag, list(lits)] for tag, lits in entries],
                "final": list(final),
            }
            for label, (entries, final) in legs.items()
        }
    }
    if overflow:
        return make_certificate(
            "drat", payload, "overflow",
            detail="proof log overflowed the retention cap",
        )
    status = "verified"
    detail = ""
    started = time.perf_counter()
    with _span("cert.check", kind="drat", query=name) as sp:
        for label, (entries, final) in legs.items():
            if len(entries) > PROOF_LIMIT:
                status, detail = "budget", f"{label}: {len(entries)} entries"
                break
            remaining = TIME_BUDGET - (time.perf_counter() - started)
            outcome = drat.check_proof(
                entries, final, max_seconds=max(0.1, remaining)
            )
            if outcome.status == "budget":
                status, detail = "budget", f"{label}: {outcome.detail}"
                break
            if outcome.status != "ok":
                status, detail = "failed", f"{label}: {outcome.detail}"
                break
        sp.set("status", status)
    _CHECK_SECONDS.observe(time.perf_counter() - started)
    return make_certificate("drat", payload, status, detail=detail)


# ---------------------------------------------------------- witness bundles
def witness_certificate(
    netlist,
    registers: Dict[str, int],
    inputs: Sequence[Dict[str, int]],
    evaluate,
    name: str = "",
) -> dict:
    """Build and replay-check a witness certificate for a REACHABLE verdict.

    ``registers`` is the decoded initial register state, ``inputs`` the
    decoded per-cycle input words, and ``evaluate`` a callable mapping
    the replayed :class:`~repro.props.views.ConcreteTraceView` to a bool
    (the cover/property, interpreted concretely).  Witness replays are
    cheap -- depth-many simulator steps -- so every REACHABLE verdict is
    replay-confirmed in both ``spot`` and ``full`` modes.
    """
    payload = {
        "depth": len(inputs),
        "registers": {k: int(v) for k, v in registers.items()},
        "inputs": [{k: int(v) for k, v in cycle.items()} for cycle in inputs],
    }
    started = time.perf_counter()
    with _span("cert.check", kind="witness", query=name) as sp:
        try:
            ok = replay_witness(netlist, payload, evaluate)
        except Exception as exc:  # replay crash = the witness is bogus
            ok = False
            detail = f"replay error: {exc}"
        else:
            detail = "" if ok else "replayed trace does not satisfy the property"
        status = "verified" if ok else "failed"
        sp.set("status", status)
    _CHECK_SECONDS.observe(time.perf_counter() - started)
    return make_certificate("witness", payload, status, detail=detail)


def cover_witness_certificate(name: str, payload: dict, replay) -> dict:
    """Bundle a replay check of an enumerative cover witness.

    The synthesis phase's REACHABLE verdicts come from scanning simulated
    trace databases, not the SAT engine -- each one is witnessed by a
    concrete context.  ``replay`` re-simulates that context on a fresh
    simulator and re-evaluates the cover predicate on the replayed path
    (see :class:`repro.core.rtl2mupath._CoverCertifier`); this function
    wraps the outcome in a standard certificate bundle so the scheduler's
    quarantine/degrade machinery treats cover verdicts and solver
    verdicts uniformly.
    """
    started = time.perf_counter()
    with _span("cert.check", kind="cover-witness", query=name) as sp:
        try:
            ok = replay()
        except Exception as exc:  # replay crash = the witness is bogus
            ok, detail = False, f"replay error: {exc}"
        else:
            detail = (
                "" if ok else "replayed context does not witness the cover"
            )
        status = "verified" if ok else "failed"
        sp.set("status", status)
    _CHECK_SECONDS.observe(time.perf_counter() - started)
    return make_certificate("cover-witness", payload, status, detail=detail)


def replay_witness(netlist, payload: dict, evaluate) -> bool:
    """Re-simulate a witness payload and evaluate the property on it.

    Independent path: uses only :mod:`repro.sim` (the enumerative
    engine's simulator) and the concrete property interpretation --
    nothing the SAT engine touched.
    """
    from ..sim.simulator import Simulator
    from .witness import replay_view

    view = replay_view(Simulator(netlist), payload)
    return bool(evaluate(view))
