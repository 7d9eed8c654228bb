"""Resilience layer: checkpoint/resume, crash-safe writes, fault injection.

Long reinforcement campaigns (hours on KONECT-scale graphs) must survive
crashes, OOM, and Ctrl-C without losing verified progress.  This package
holds the pieces, each usable on its own:

* :mod:`repro.resilience.atomic` — write-temp/fsync/rename file writes;
* :mod:`repro.resilience.envelope` — the one persisted envelope
  (``{schema, checksum, payload}``, atomic retried write, strict read with
  a single typed ``EnvelopeError``) behind checkpoints and the
  campaign service's queue file and disk cache;
* :mod:`repro.resilience.checkpoint` — :class:`CampaignCheckpoint` with a
  graph fingerprint, checksummed persistence, and resume validation.  One
  format for every campaign: every shard plan writes the same file, in
  global vertex ids, and any checkpoint resumes under any ``shards`` and
  ``workers`` values;
* :mod:`repro.resilience.faults` — deterministic seeded fault injection
  (:class:`FaultPlan` + instrumented ``fault_site`` calls);
* :mod:`repro.resilience.retry` — bounded deterministic backoff for
  transient artifact-write failures;
* :mod:`repro.resilience.signals` — :class:`TerminationFlag`, the
  cooperative SIGTERM latch behind ``run_engine(handle_sigterm=True)``
  and the campaign service's graceful drain.

The engine hooks (``run_engine(checkpoint=..., resume_from=...)``, graceful
``interrupted=True`` degradation, :class:`repro.exceptions.AbortCampaign`)
are documented in ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

from repro.resilience.atomic import atomic_write_text, atomic_writer
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    CampaignCheckpoint,
    graph_fingerprint,
    load_checkpoint,
)
from repro.resilience.faults import FaultPlan, FaultSpec, active_plan, fault_site
from repro.resilience.retry import Backoff
from repro.resilience.signals import TerminationFlag

__all__ = [
    "atomic_write_text",
    "atomic_writer",
    "CHECKPOINT_SCHEMA",
    "CampaignCheckpoint",
    "graph_fingerprint",
    "load_checkpoint",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "fault_site",
    "Backoff",
    "TerminationFlag",
]
