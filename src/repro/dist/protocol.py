"""The distributed runner's wire protocol: JSON-lines frames plus exact
job / report round-trips.

Every connection (client->broker, worker->broker) speaks newline-
delimited JSON: one UTF-8 encoded JSON object per line, each carrying a
``type`` field.  The framing is deliberately boring -- it is inspectable
with ``nc`` and fuzzable with a random-bytes generator -- and every
decode failure maps to :class:`ProtocolError`, never to an unhandled
exception inside the broker (the protocol-fuzz tests assert exactly
this).

Three invariants make distribution a no-op for verdict semantics:

* **Jobs round-trip exactly.**  The engine's job specs are frozen
  dataclasses of scalars and (nested) tuples; :func:`encode_job` /
  :func:`decode_job` rebuild an ``==``-equal spec on the worker, so
  ``cache_key()`` -- a canonical hash over the spec's contents -- is
  *identical* on every node.  Tuples survive JSON via a tagged encoding
  (``{"__tuple__": [...]}``), the one container JSON would silently
  degrade to lists.
* **Reports round-trip exactly.**  Worker reports reuse the proof
  cache's CheckResult dicts and the job's own ``encode_value`` /
  ``decode_value`` payload codec, so a report that crossed the network
  folds into stats, cache, and checkpoint byte-identically to one from
  a local ``ProcessPoolExecutor`` worker.
* **Opaque routing metadata.**  The broker routes on ``job_id`` /
  ``group`` / ``priority`` alone and never decodes the spec itself, so
  new job types need no broker changes -- they register here
  (:func:`register_job_type`) and both endpoints agree.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Tuple, Type

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "register_job_type",
    "encode_job",
    "decode_job",
    "report_to_wire",
    "report_from_wire",
]

#: bumped when frame or payload semantics change; hello/welcome exchange it
PROTOCOL_VERSION = 2

#: hard per-frame ceiling -- a peer sending an unterminated line cannot
#: balloon broker memory (asyncio's readline enforces it for us)
MAX_FRAME_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed, oversized, or semantically invalid frame."""


# ------------------------------------------------------------------- framing
def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message -> one newline-terminated JSON line."""
    try:
        line = json.dumps(message, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError("unencodable frame: %s" % exc) from None
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds limit" % len(data))
    return data


def decode_frame(line: bytes) -> Dict[str, Any]:
    """One received line -> a validated message dict (must carry ``type``)."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds limit" % len(line))
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("undecodable frame: %s" % exc) from None
    if not isinstance(message, dict):
        raise ProtocolError(
            "frame is %s, not an object" % type(message).__name__
        )
    kind = message.get("type")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("frame has no 'type' field")
    return message


# ---------------------------------------------------- tagged value encoding
#
# Job specs contain tuples (often nested: frozen config params are tuples
# of (key, value) pairs whose values are themselves tuples).  JSON would
# silently turn them into lists and the rebuilt dataclass would no longer
# equal -- or hash like -- the original, so tuples and frozensets travel
# under explicit tags.

_TUPLE = "__tuple__"
_FROZENSET = "__frozenset__"


def _encode_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return {_TUPLE: [_encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        return {_FROZENSET: sorted(_encode_value(v) for v in value)}
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ProtocolError(
        "job field value of type %r is not wire-encodable"
        % type(value).__name__
    )


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {_TUPLE}:
            return tuple(_decode_value(v) for v in value[_TUPLE])
        if set(value) == {_FROZENSET}:
            return frozenset(_decode_value(v) for v in value[_FROZENSET])
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


# --------------------------------------------------------- job registration
_JOB_TYPES: Dict[str, Type] = {}


def register_job_type(cls: Type) -> Type:
    """Register a frozen-dataclass job type for wire transport.

    Both endpoints must register the same types (the built-in engine
    jobs are registered below at import time).  Returns ``cls`` so it
    doubles as a decorator for test-local job types.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError("job type %r is not a dataclass" % cls.__name__)
    _JOB_TYPES[cls.__name__] = cls
    return cls


def _builtin_job_types() -> None:
    from ..engine import specs

    register_job_type(specs.SynthesisJob)
    register_job_type(specs.SynthLCJob)
    register_job_type(specs.ReachJob)
    register_job_type(specs.PerfJob)
    register_job_type(specs.DesignSpec)
    register_job_type(specs.ProviderSpec)


def _encode_dataclass(obj: Any) -> Dict[str, Any]:
    name = type(obj).__name__
    if name not in _JOB_TYPES or type(obj) is not _JOB_TYPES[name]:
        raise ProtocolError("unregistered job type %r" % name)
    fields = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            fields[field.name] = {"__dc__": _encode_dataclass(value)}
        else:
            fields[field.name] = _encode_value(value)
    return {"kind": name, "fields": fields}


def _decode_dataclass(payload: Any) -> Any:
    if not isinstance(payload, dict):
        raise ProtocolError("job payload is not an object")
    name = payload.get("kind")
    cls = _JOB_TYPES.get(name)
    if cls is None:
        raise ProtocolError("unregistered job type %r" % name)
    raw = payload.get("fields")
    if not isinstance(raw, dict):
        raise ProtocolError("job payload for %r has no fields" % name)
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ProtocolError("unknown field %r for job type %r" % (key, name))
        if isinstance(value, dict) and set(value) == {"__dc__"}:
            kwargs[key] = _decode_dataclass(value["__dc__"])
        else:
            kwargs[key] = _decode_value(value)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            "cannot rebuild %s from wire payload: %s" % (name, exc)
        ) from None


def encode_job(job: Any) -> Dict[str, Any]:
    """Job spec -> wire dict: opaque spec plus the broker's routing keys."""
    getter = getattr(job, "group_key", None)
    group = getter() if callable(getter) else "job:%s" % job.job_id
    return {
        "job_id": job.job_id,
        "group": group,
        "spec": _encode_dataclass(job),
    }


def decode_job(wire: Dict[str, Any]) -> Any:
    """Wire dict -> an ``==``-equal job spec (workers call this)."""
    if not isinstance(wire, dict):
        raise ProtocolError("wire job is not an object")
    job = _decode_dataclass(wire.get("spec"))
    job_id = wire.get("job_id")
    if job_id is not None and job.job_id != job_id:
        raise ProtocolError(
            "wire job_id %r does not match rebuilt spec %r"
            % (job_id, job.job_id)
        )
    return job


# ------------------------------------------------------------------ reports
#: headroom reserved for the result frame's envelope around the report
#: (type / tag / job_id) when deciding whether certificates must degrade
_FRAME_MARGIN = 64 * 1024


def _wire_bytes(wire: Dict[str, Any]) -> int:
    try:
        return len(
            json.dumps(wire, sort_keys=True, separators=(",", ":"))
        ) + 1
    except (TypeError, ValueError) as exc:
        raise ProtocolError("unencodable report: %s" % exc) from None


def _fit_certificates(wire: Dict[str, Any], limit: int) -> None:
    """Degrade certificate payloads until the report fits under ``limit``.

    A verdict whose proof log outgrew the frame cap must not kill the
    connection -- the report degrades to digest-only bundles (largest
    payload first; the digest still pins the checked bytes) and only the
    proof *transport* is lost, never the verdict or its check status.
    Result dicts are copied before stripping so the worker's in-memory
    CheckResults keep their full bundles.
    """
    from ..cert import canonical_payload_bytes, strip_payload

    if _wire_bytes(wire) <= limit:
        return
    results = wire.get("results") or []
    sized = []
    for index, result in enumerate(results):
        cert = result.get("certificate") if isinstance(result, dict) else None
        if isinstance(cert, dict) and cert.get("payload") is not None:
            sized.append((len(canonical_payload_bytes(cert["payload"])), index))
    for _size, index in sorted(sized, reverse=True):
        stripped = dict(results[index])
        stripped["certificate"] = strip_payload(stripped["certificate"])
        results[index] = stripped
        if _wire_bytes(wire) <= limit:
            return


def report_to_wire(report, job) -> Dict[str, Any]:
    """WorkerReport -> JSON-safe dict (worker side).

    The value payload uses the job's own codec -- the same one the proof
    cache stores -- and CheckResults their to_dict form, so the client
    rebuilds exactly what a local worker would have handed back.  Reports
    whose certificate payloads would overflow the frame cap degrade those
    bundles to digest-only (see :func:`_fit_certificates`).
    """
    payload = None
    if report.error is None:
        encode = getattr(job, "encode_value", None)
        payload = encode(report.value) if encode else report.value
    wire = {
        "job_id": report.job_id,
        "error": report.error,
        "quarantined": bool(report.quarantined),
        "payload": payload,
        "results": [r.to_dict() for r in report.results],
        "attempts": [dataclasses.asdict(a) for a in report.attempts],
        "spans": [[kind, fields] for kind, fields in report.spans],
        "node": getattr(report, "node_id", None),
    }
    cert_failures = int(getattr(report, "cert_failures", 0) or 0)
    cert_degraded = bool(getattr(report, "cert_degraded", False))
    cert_divergences = list(getattr(report, "cert_divergences", ()) or ())
    cert_uncaught = int(getattr(report, "cert_uncaught", 0) or 0)
    if cert_failures or cert_degraded or cert_divergences or cert_uncaught:
        wire["cert_failures"] = cert_failures
        wire["cert_degraded"] = cert_degraded
        wire["cert_divergences"] = cert_divergences
        wire["cert_uncaught"] = cert_uncaught
    _fit_certificates(wire, MAX_FRAME_BYTES - _FRAME_MARGIN)
    return wire


def _spot_check_certificates(results) -> int:
    """Verify arrived certificate digests; demote corrupted ones to failed.

    Broker-received reports are spot-checkable on arrival: the digest in
    every bundle pins the payload bytes that were checked worker-side, so
    a bundle corrupted in flight (or by a hostile peer) is detectable
    without re-running the proof.  A mismatch marks that certificate
    failed rather than raising -- the verdict still folds, and the
    client's manifest accounting surfaces the failure.
    """
    from ..cert import verify_certificate_digest

    demoted = 0
    for result in results:
        cert = getattr(result, "certificate", None)
        if isinstance(cert, dict) and not verify_certificate_digest(cert):
            result.certificate = dict(
                cert,
                status="failed",
                verified=False,
                detail="wire digest mismatch",
            )
            demoted += 1
    return demoted


def report_from_wire(wire: Dict[str, Any], job) -> Any:
    """JSON dict -> WorkerReport with decoded value/results (client side)."""
    from ..engine.scheduler import AttemptRecord, WorkerReport
    from ..mc.outcomes import CheckResult

    if not isinstance(wire, dict):
        raise ProtocolError("wire report is not an object")
    error = wire.get("error")
    value = None
    if error is None:
        decode = getattr(job, "decode_value", None)
        payload = wire.get("payload")
        value = decode(payload) if decode is not None else payload
    try:
        results = [CheckResult.from_dict(d) for d in wire.get("results") or []]
        attempts = [
            AttemptRecord(**record) for record in wire.get("attempts") or []
        ]
        spans: List[Tuple[str, Dict[str, Any]]] = [
            (kind, fields) for kind, fields in wire.get("spans") or []
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError("malformed wire report: %s" % exc) from None
    node = wire.get("node")
    demoted = _spot_check_certificates(results)
    return WorkerReport(
        job_id=wire.get("job_id") or job.job_id,
        value=value,
        results=results,
        attempts=attempts,
        error=error,
        quarantined=bool(wire.get("quarantined")),
        spans=spans,
        node_id=node if isinstance(node, str) else None,
        # cert accounting travels only when nonzero; reports from pre-cert
        # workers decode with the zero defaults.  An arrival-time digest
        # mismatch counts as a failure the worker could not have degraded
        # (it happened after the solve), hence uncaught.
        cert_failures=int(wire.get("cert_failures") or 0) + demoted,
        cert_degraded=bool(wire.get("cert_degraded")),
        cert_divergences=list(wire.get("cert_divergences") or []),
        cert_uncaught=int(wire.get("cert_uncaught") or 0) + demoted,
    )


def worker_options(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """The scheduler's worker kwargs, restricted to the wire-safe subset.

    Fault plans are deliberately not shipped: chaos injection is armed on
    the node that should suffer it (``repro worker --fault-plan``), not
    dictated by a remote client.

    The filter also runs worker-side on received run options, so keys
    that ride in the options dict but are not scheduler kwargs (the
    ``trace`` context a tracing client attaches) are dropped here
    instead of leaking into ``_run_job_with_retries``.
    """
    allowed = (
        "max_attempts",
        "timeout_seconds",
        "escalation_factor",
        "collect_spans",
        "max_rss_mb",
    )
    return {key: kwargs[key] for key in allowed if key in kwargs}


_builtin_job_types()
