"""The one persisted envelope: checksummed JSON, written atomically.

Every small JSON artifact this repository persists — campaign checkpoints
(:mod:`repro.resilience.checkpoint`), the campaign service's queue file
(:mod:`repro.service.queue`) and its disk cache entries
(:mod:`repro.service.cache`) — is the same envelope::

    {"checksum": "<sha256 of canonical(payload)>", "payload": {...},
     "schema": <format tag>}

This module owns the four things the formats share:

* the layout, with the checksum taken over :func:`canonical` (sorted keys,
  no whitespace) so it is independent of the text layout on disk;
* one text layout, ``indent=2, sort_keys=True`` plus a trailing newline;
* the write: atomic replace (:mod:`repro.resilience.atomic`) with bounded
  retry on transient ``OSError`` (:data:`CHECKPOINT_WRITE_BACKOFF`) and an
  optional fault site that fires once per attempt;
* the read: bytes decoded strictly as UTF-8, parsed as JSON (any layout),
  then checked for an object with an object payload, the expected schema,
  and the checksum, in that order.  Every way a file can be unusable
  raises the one :class:`EnvelopeError`; each format's loader translates
  it into its own typed error, or — for the cache — a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable, Dict, Optional, Union

from repro.exceptions import ReproError
from repro.resilience.atomic import atomic_write_text
from repro.resilience.faults import fault_site
from repro.resilience.retry import Backoff, retry

__all__ = ["CHECKPOINT_WRITE_BACKOFF", "EnvelopeError", "canonical",
           "checksum", "read_envelope", "write_envelope"]

#: Default retry policy for envelope writes.  Checkpoints are the one
#: artifact whose loss costs hours (a failed report write loses a file; a
#: failed checkpoint write loses the crash-recovery story), so every save
#: absorbs up to two transient ``OSError``\ s before giving up.
CHECKPOINT_WRITE_BACKOFF = Backoff(attempts=3, base=0.05)

PathLike = Union[str, "os.PathLike[str]"]


class EnvelopeError(ReproError):
    """A persisted envelope is unreadable, malformed, or fails its checks."""


def canonical(value: object) -> str:
    """Deterministic compact JSON: sorted keys, no whitespace, ASCII."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def checksum(value: object) -> str:
    """SHA-256 hex digest of ``value``'s canonical JSON."""
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


def write_envelope(path: PathLike, schema: object,
                   payload: Dict[str, object], site: Optional[str] = None,
                   backoff: Optional[Backoff] = None,
                   sleep: Callable[[float], None] = time.sleep) -> None:
    """Atomically replace ``path`` with the envelope of ``payload``.

    A transient ``OSError`` is retried with deterministic backoff
    (:data:`CHECKPOINT_WRITE_BACKOFF` unless ``backoff`` overrides it);
    the fault site ``site``, when given, fires once per attempt.
    """
    envelope = {"schema": schema, "checksum": checksum(payload),
                "payload": payload}
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"

    def _write() -> None:
        if site is not None:
            fault_site(site)
        atomic_write_text(path, text)

    retry(_write, backoff=backoff or CHECKPOINT_WRITE_BACKOFF,
          retry_on=(OSError,), sleep=sleep)


def read_envelope(path: PathLike, schema: object,
                  what: str) -> Dict[str, object]:
    """The verified payload of the envelope at ``path``.

    ``what`` names the format in error messages ("checkpoint", ...).
    Raises :class:`EnvelopeError` for unreadable input, non-UTF-8 bytes,
    bad JSON, a non-object, a missing or non-object payload, a schema
    other than ``schema``, or a checksum mismatch.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise EnvelopeError(
            "cannot read %s %s: %s" % (what, path, error)) from error
    try:
        envelope = json.loads(data.decode("utf-8"))
    except ValueError as error:  # UnicodeDecodeError or JSONDecodeError
        raise EnvelopeError(
            "%s %s is not valid JSON (truncated write?): %s"
            % (what, path, error)) from error
    if not isinstance(envelope, dict) \
            or not isinstance(envelope.get("payload"), dict):
        raise EnvelopeError("%s %s has no payload envelope" % (what, path))
    found = envelope.get("schema")
    if type(found) is not type(schema) or found != schema:
        raise EnvelopeError(
            "%s %s has schema version %r; this build reads version %r"
            % (what, path, found, schema))
    payload: Dict[str, object] = envelope["payload"]
    if envelope.get("checksum") != checksum(payload):
        raise EnvelopeError(
            "%s %s failed its checksum; the file is corrupt" % (what, path))
    return payload
