"""Persistent proof cache with canonical content hashing.

The paper's dominant cost is re-discharging tens of thousands of cover /
assert properties on every run (SS VII-B3 reports multi-day JasperGold
wall-clock).  Verdicts, however, are pure functions of four inputs: the
elaborated netlist, the context-family configuration, the property
template, and the engine configuration.  This module keys prior
REACHABLE / UNREACHABLE verdicts by a canonical content hash of exactly
those components, so re-runs answer instantly and any change to a key
component invalidates the entry automatically (a different hash simply
never matches).

Two rules keep the cache sound:

* **UNDETERMINED is never cached as final.**  A resource-limited verdict
  may flip with a bigger budget; entries containing one are not written.
* **Truncated context families are never cached.**  Their negative
  verdicts are sampled, not proven (job types veto via ``value_is_final``).

Layout: ``<cache_dir>/<key[:2]>/<key>.json``, written atomically
(temp file + rename) so concurrent runs sharing a cache directory can
only ever observe complete entries.

Integrity: every entry carries a SHA-256 checksum over its own canonical
JSON (minus the checksum field).  A read that fails to parse or whose
checksum mismatches -- a truncated write surviving a crash, bit rot, a
partial copy -- is *quarantined*: moved into ``<cache_dir>/quarantine/``
(never deleted, so the evidence survives for inspection) and reported as
a plain miss, after which the next run simply recomputes and rewrites
the entry.  Entries from older format versions are left in place and
treated as misses; the next ``put`` overwrites them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from typing import Any, Dict, Optional

from ..obs.metrics import REGISTRY
from ..rtl.netlist import netlist_fingerprint

__all__ = [
    "canonical_json",
    "content_key",
    "netlist_fingerprint",
    "observable_fingerprint",
    "ProofCache",
]

# v2: entries gain a "checksum" field (sha256 of the entry's canonical
# JSON minus that field); v1 entries read as stale misses, not corruption
CACHE_FORMAT_VERSION = 2

_QUARANTINED = REGISTRY.counter(
    "repro_cache_quarantined_total",
    "corrupt cache entries moved to quarantine, by reason",
)


# ------------------------------------------------------------ canonical hash
def _canon_default(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError("not canonically serializable: %r" % type(obj).__name__)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, sets sorted."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_canon_default
    )


def content_key(**components) -> str:
    """SHA-256 over the canonical JSON of the named key components."""
    return hashlib.sha256(canonical_json(components).encode("utf-8")).hexdigest()


def entry_checksum(entry: Dict[str, Any]) -> str:
    """SHA-256 of an entry's canonical JSON, excluding its checksum field."""
    body = {k: v for k, v in entry.items() if k != "checksum"}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def observable_fingerprint(netlist) -> str:
    """Structural hash of the *observable* slice of a netlist.

    The netlist is first sliced to the sequential cone of influence of
    every named signal and output (:func:`repro.rtl.coi.observable_names`)
    and the slice is hashed with :func:`netlist_fingerprint`.  Any
    property the toolchain can state refers only to named signals, so two
    designs with equal observable fingerprints are property-equivalent:
    RTL edits outside every observable cone -- debug-only scaffolding,
    dead logic, disconnected experiments -- keep cached verdicts valid
    instead of invalidating the whole proof cache.
    """
    from ..rtl.coi import coi_slice, observable_names

    sliced = coi_slice(netlist, observable_names(netlist))
    return netlist_fingerprint(sliced)


# -------------------------------------------------------------- on-disk store
class ProofCache:
    """Content-addressed verdict store under ``cache_dir``."""

    #: subdirectory corrupt entries are moved into (never matched by get)
    QUARANTINE_DIR = "quarantine"

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self.quarantine_dir = os.path.join(cache_dir, self.QUARANTINE_DIR)
        #: corrupt entries this ProofCache instance quarantined
        self.quarantined_session = 0
        os.makedirs(cache_dir, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    # ------------------------------------------------------------- quarantine
    def _quarantine(self, path: str, reason: str) -> None:
        """Move a damaged entry file aside instead of serving or deleting it."""
        os.makedirs(self.quarantine_dir, exist_ok=True)
        target = os.path.join(self.quarantine_dir, os.path.basename(path))
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(
                self.quarantine_dir,
                "%s.%d" % (os.path.basename(path), suffix),
            )
        try:
            os.replace(path, target)
        except OSError:
            return  # a concurrent reader already moved it
        self.quarantined_session += 1
        _QUARANTINED.inc(reason=reason)

    def quarantined(self) -> int:
        """Number of entry files sitting in quarantine (all-time)."""
        try:
            return sum(
                1 for name in os.listdir(self.quarantine_dir)
                if not name.startswith(".")
            )
        except OSError:
            return 0

    # ------------------------------------------------------------------- get
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the entry for ``key``, or None (absent, corrupt, stale
        format, or not final).  Corrupt files -- unparseable JSON or a
        checksum mismatch -- are moved to ``quarantine/`` on the way out."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            return None
        except ValueError:
            self._quarantine(path, reason="unparseable")
            return None
        if not isinstance(entry, dict):
            self._quarantine(path, reason="unparseable")
            return None
        if entry.get("format") != CACHE_FORMAT_VERSION:
            return None  # stale format: a miss, overwritten by the next put
        if entry.get("checksum") != entry_checksum(entry):
            self._quarantine(path, reason="checksum_mismatch")
            return None
        reason = self._certificate_problem(entry)
        if reason is not None:
            # the bytes are intact (checksum passed) but a carried
            # certificate is corrupt or refuted: the verdict cannot be
            # replayed as proven
            self._quarantine(path, reason=reason)
            return None
        if not entry.get("final"):
            return None
        return entry

    @staticmethod
    def _certificate_problem(entry: Dict[str, Any]) -> Optional[str]:
        """Why the entry's certificates forbid replaying it, or None.

        The checksum proves the *bytes* are the bytes that were written;
        a certificate digest proves the *payload* is the payload that
        was checked, and ``verified: false`` means that check refuted
        the verdict.  Entries without certificates (pre-certification
        writes, certify-off runs) are fine -- ``certificate`` is simply
        absent and the entry stays a valid hit.
        """
        from ..cert import verify_certificate_digest

        for result in entry.get("results") or []:
            if not isinstance(result, dict):
                continue
            cert = result.get("certificate")
            if cert is None:
                continue
            if not isinstance(cert, dict) or not verify_certificate_digest(cert):
                return "certificate_mismatch"
            if cert.get("verified") is False:
                return "certificate_failed"
        return None

    def verify_store(self) -> Dict[str, Any]:
        """Re-verify every stored entry (``repro cache-info --verify``).

        Walks the store re-running the full read-side validation --
        JSON parse, entry checksum, certificate digests and verdicts --
        quarantining every entry that fails, and returns a summary:
        entries checked / ok / quarantined (with per-reason counts),
        plus how many carried certificates at all.
        """
        checked = ok = stale = with_certs = 0
        quarantined: Dict[str, int] = {}

        def _bad(path: str, reason: str) -> None:
            self._quarantine(path, reason)
            quarantined[reason] = quarantined.get(reason, 0) + 1

        for dirpath, dirnames, filenames in os.walk(self.cache_dir):
            if self.QUARANTINE_DIR in dirnames:
                dirnames.remove(self.QUARANTINE_DIR)
            for name in sorted(filenames):
                if not name.endswith(".json") or name.startswith(".tmp-"):
                    continue
                path = os.path.join(dirpath, name)
                checked += 1
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        entry = json.load(handle)
                except OSError:
                    checked -= 1
                    continue
                except ValueError:
                    _bad(path, "unparseable")
                    continue
                if not isinstance(entry, dict):
                    _bad(path, "unparseable")
                    continue
                if entry.get("format") != CACHE_FORMAT_VERSION:
                    stale += 1  # old format: a miss, not damage
                    continue
                if entry.get("checksum") != entry_checksum(entry):
                    _bad(path, "checksum_mismatch")
                    continue
                reason = self._certificate_problem(entry)
                if reason is not None:
                    _bad(path, reason)
                    continue
                if any(
                    isinstance(r, dict) and r.get("certificate") is not None
                    for r in entry.get("results") or []
                ):
                    with_certs += 1
                ok += 1
        return {
            "checked": checked,
            "ok": ok,
            "stale_format": stale,
            "with_certificates": with_certs,
            "quarantined": sum(quarantined.values()),
            "quarantined_by_reason": dict(sorted(quarantined.items())),
        }

    def put(
        self,
        key: str,
        job_id: str,
        payload: Any,
        results: list,
        final: bool = True,
    ) -> bool:
        """Store a verdict entry; non-final entries are refused (the
        UNDETERMINED rule).  Returns True when an entry was written."""
        if not final:
            return False
        entry = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "job_id": job_id,
            "created": time.time(),
            "final": True,
            "payload": payload,
            "results": results,
        }
        entry["checksum"] = entry_checksum(entry)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # json.dump always runs the pure-Python encoder; dumps
                # takes the C one and writes the same bytes
                handle.write(json.dumps(entry))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return True

    def __contains__(self, key: str) -> bool:
        # existence check only -- get() does the full parse + checksum;
        # callers that need the entry's contents should call get directly
        return os.path.isfile(self._path(key))

    def entries(self) -> int:
        """Number of stored entries (for telemetry / tests); quarantined
        files are damage reports, not entries, and are not counted."""
        count = 0
        for dirpath, dirnames, filenames in os.walk(self.cache_dir):
            if self.QUARANTINE_DIR in dirnames:
                dirnames.remove(self.QUARANTINE_DIR)
            count += sum(
                1 for f in filenames
                if f.endswith(".json") and not f.startswith(".tmp-")
            )
        return count

    def stats(self) -> Dict[str, Any]:
        """One-pass store summary for ``repro cache-info``: entry/byte
        counts, quarantine totals.  Reads only directory metadata --
        entries are counted and sized, never parsed.
        """
        entries = entry_bytes = 0
        quarantined = quarantined_bytes = 0
        oldest = newest = None
        try:
            for name in os.listdir(self.quarantine_dir):
                if name.startswith("."):
                    continue
                quarantined += 1
                try:
                    quarantined_bytes += os.path.getsize(
                        os.path.join(self.quarantine_dir, name)
                    )
                except OSError:
                    pass
        except OSError:
            pass
        for dirpath, dirnames, filenames in os.walk(self.cache_dir):
            if self.QUARANTINE_DIR in dirnames:
                dirnames.remove(self.QUARANTINE_DIR)
            for name in filenames:
                if not name.endswith(".json") or name.startswith(".tmp-"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                entries += 1
                entry_bytes += info.st_size
                if oldest is None or info.st_mtime < oldest:
                    oldest = info.st_mtime
                if newest is None or info.st_mtime > newest:
                    newest = info.st_mtime
        return {
            "cache_dir": self.cache_dir,
            "format": CACHE_FORMAT_VERSION,
            "entries": entries,
            "entry_bytes": entry_bytes,
            "quarantined": quarantined,
            "quarantined_bytes": quarantined_bytes,
            "oldest_entry": round(oldest, 6) if oldest is not None else None,
            "newest_entry": round(newest, 6) if newest is not None else None,
        }
