"""Result cache with request coalescing and an optional persistent tier.

The byte-identity invariant makes caching trivially sound: two jobs whose
:func:`~repro.service.jobs.cache_key` match are *guaranteed* the same
canonical result, whatever execution strategy (workers, shards, resume
path) either would have used.  The cache therefore has three layers:

* **completed** — key → finished :class:`AnchoredCoreResult`.  Only clean
  results are stored: anything ``interrupted`` or ``timed_out`` is a
  partial answer and must not shadow a future full run.
* **in-flight** — key → the queued/running :class:`Job`.  A second
  submission of an identical spec gets a handle onto the *existing* job
  instead of a duplicate campaign (request coalescing); the entry is
  released when the job reaches a terminal state.
* **disk** (optional) — a :class:`DiskCacheTier` under the service state
  directory.  Results are written through as checksummed JSON envelopes
  so cache hits survive a service restart.  Every read validates schema, key, and checksum; any
  mismatch — a torn write, a flipped bit, a stale schema — degrades to a
  cache *miss*, never a wrong result.  Writes go through the atomic
  writer from :mod:`repro.resilience` with bounded retry, and carry the
  ``service.cache_persist`` fault site for chaos coverage; a failed write
  leaves the in-memory cache authoritative (the tier is best-effort).

Thread safety: one lock around the in-memory indexes; the disk tier keeps
its own lock for its counters.  No method calls back into service code.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.core.result import AnchoredCoreResult
from repro.resilience.envelope import (
    EnvelopeError,
    canonical,
    checksum,
    read_envelope,
    write_envelope,
)
from repro.service.jobs import Job

__all__ = ["ResultCache", "DiskCacheTier", "CACHE_SCHEMA"]

#: Envelope schema tag; bump on any incompatible layout change so stale
#: files from older builds read as cold-cache misses, not decode errors.
CACHE_SCHEMA = "service-cache-1"


class DiskCacheTier:
    """Checksummed on-disk key/value store for cache entries.

    Entries live under ``root`` as ``<kind>-<sha256(key)>.json`` files,
    each a ``{schema, checksum, payload}`` envelope
    (:mod:`repro.resilience.envelope`) whose payload embeds the full key.
    The filename hash routes lookups; the embedded key is what is
    *trusted* — a hash collision or a file copied between state
    directories reads as a miss, never as another key's value.
    """

    def __init__(self, root: str,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.root = root
        self._sleep = sleep
        self._lock = threading.Lock()
        self._stores = 0
        self._loads = 0
        self._corrupt = 0
        self._write_errors = 0
        os.makedirs(root, exist_ok=True)

    # -- paths -----------------------------------------------------------

    def _path(self, kind: str, key: object) -> str:
        digest = checksum(key)
        return os.path.join(self.root, "%s-%s.json" % (kind, digest))

    # -- write path ------------------------------------------------------

    def store(self, kind: str, key: object, payload: object) -> bool:
        """Persist ``payload`` under ``(kind, key)``; best-effort.

        Returns False (and counts the error) when the write fails for any
        reason — the caller's in-memory copy stays authoritative and the
        service keeps running on a memory-only cache.
        """
        try:
            write_envelope(self._path(kind, key), CACHE_SCHEMA,
                           {"kind": kind, "key": key, "value": payload},
                           site="service.cache_persist", sleep=self._sleep)
        # repro: boundary — FaultInjected, exhausted OSError retries, unserializable payloads all degrade to "not persisted"
        except Exception:
            with self._lock:
                self._write_errors += 1
            return False
        with self._lock:
            self._stores += 1
        return True

    # -- read path -------------------------------------------------------

    def load(self, kind: str, key: object) -> Optional[object]:
        """The persisted payload for ``(kind, key)``, or None.

        Any validation failure — unreadable or non-UTF-8 file, bad JSON,
        wrong schema, checksum mismatch (torn write), embedded-key
        mismatch — counts as corrupt and returns None: cold cache, never a
        wrong result.  A missing file is a plain, uncounted miss.
        """
        try:
            payload = read_envelope(self._path(kind, key), CACHE_SCHEMA,
                                    "cache entry")
            if payload.get("kind") != kind \
                    or payload.get("key") != _round_trip(key) \
                    or "value" not in payload:
                raise EnvelopeError("cache entry key mismatch")
        except EnvelopeError as error:
            if not isinstance(error.__cause__, FileNotFoundError):
                with self._lock:
                    self._corrupt += 1
            return None
        value = payload["value"]
        with self._lock:
            self._loads += 1
        return value

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"stores": self._stores,
                    "loads": self._loads,
                    "corrupt": self._corrupt,
                    "write_errors": self._write_errors}


def _round_trip(key: object) -> object:
    """``key`` as JSON would give it back (tuples become lists)."""
    return json.loads(canonical(key))


class ResultCache:
    """Completed-result memo plus in-flight coalescing index.

    With ``persist`` set, clean results are written through to the disk
    tier and ``lookup`` falls back to it on an in-memory miss, so the hit
    rate survives restarts.  Persisted results that fail to reconstruct
    (or are flagged partial) are treated as misses.
    """

    def __init__(self, persist: Optional[DiskCacheTier] = None) -> None:
        self._lock = threading.Lock()
        self._completed: Dict[Tuple[object, ...], AnchoredCoreResult] = {}
        self._inflight: Dict[Tuple[object, ...], Job] = {}
        self._persist = persist
        self._hits = 0
        self._disk_hits = 0
        self._coalesced = 0

    def lookup(self, key: Tuple[object, ...]) -> Optional[AnchoredCoreResult]:
        """A previously completed clean result for ``key``, if any."""
        with self._lock:
            result = self._completed.get(key)
            if result is not None:
                self._hits += 1
                return result
        if self._persist is None:
            return None
        payload = self._persist.load("result", list(key))
        if payload is None:
            return None
        from repro.experiments.export import result_from_dict

        try:
            result = result_from_dict(payload)  # type: ignore[arg-type]
        # repro: boundary — a persisted result that cannot be rebuilt is a cache miss, never an error
        except Exception:
            return None
        if result.interrupted or result.timed_out:
            return None
        with self._lock:
            self._completed.setdefault(key, result)
            self._hits += 1
            self._disk_hits += 1
        return result

    def claim_inflight(self, key: Tuple[object, ...],
                       job: Job) -> Optional[Job]:
        """Register ``job`` as the runner for ``key``, or coalesce.

        Returns the already-registered job when one exists (the caller
        should hand out a handle to *that* job and discard ``job``), else
        registers ``job`` and returns None.
        """
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self._coalesced += 1
                return existing
            self._inflight[key] = job
            return None

    def release(self, key: Tuple[object, ...], job: Job) -> None:
        """Drop the in-flight entry for ``key`` if ``job`` still owns it."""
        with self._lock:
            if self._inflight.get(key) is job:
                del self._inflight[key]

    def store(self, key: Tuple[object, ...],
              result: AnchoredCoreResult) -> None:
        """Memoize a finished result; partial answers are refused here.

        The caller filters, but this guards the invariant anyway: an
        ``interrupted`` or ``timed_out`` result is silently not cached.
        """
        if result.interrupted or result.timed_out:
            return
        with self._lock:
            self._completed[key] = result
        if self._persist is not None:
            from repro.experiments.export import result_to_dict

            self._persist.store("result", list(key), result_to_dict(result))

    def stats(self) -> Dict[str, int]:
        """Counters for ``CampaignService.stats()``."""
        with self._lock:
            stats = {"completed": len(self._completed),
                     "inflight": len(self._inflight),
                     "hits": self._hits,
                     "disk_hits": self._disk_hits,
                     "coalesced": self._coalesced}
        if self._persist is not None:
            for name, value in self._persist.stats().items():
                stats["disk_" + name] = value
        return stats
