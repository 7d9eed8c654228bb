"""Batch scheduling: group compatible queued jobs onto shared contexts.

The campaign service runs every job against the *same* graph, so any two
queued engine-family jobs with the same ``(α, β)`` can share the whole
(α, β)-invariant substrate — deletion-order seed, base core, CSR follower
kernel, warm verification tables — through one
:class:`repro.core.batch.SharedCampaignContext`.  :class:`BatchScheduler`
is the service-side registry of those contexts:

* **acquire/release** — refcounted checkout of the context for a job's
  ``(α, β)``; contexts are built lazily on first use and kept in an LRU
  registry (refcount-0 entries beyond ``max_contexts`` are closed).
* **choose** — the queue's dispatch hook.  Among the pending jobs *of the
  head job's priority class* it prefers one whose context is already warm
  or checked out, so same-``(α, β)`` jobs run back-to-back and reuse the
  seed while it is hot.  Priority order is untouched: a lower-priority
  job is never chosen over a higher-priority one; within a class the
  regrouping only changes FIFO order among jobs that were already equally
  eligible.
* **persistence** — warm seeds are written through the service's
  :class:`~repro.service.cache.DiskCacheTier` on release/close and
  restored on the next build, so a restarted service starts with warm
  verification tables (validated by checksum; corruption degrades to a
  cold context).

Soundness: sharing is *transparent* — the context serves only values an
engine run would have computed identically itself (see
``docs/PERF.md``), so batching never changes result bytes, and admission
control / quarantine semantics are untouched (a job whose context
acquisition fails simply runs cold).  Jobs outside the engine family, or
sharded jobs (per-shard state), are ineligible and run exactly as before.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bigraph.graph import BipartiteGraph
from repro.core.api import ENGINE_METHODS
from repro.core.batch import SharedCampaignContext
from repro.service.cache import DiskCacheTier
from repro.service.jobs import Job, JobSpec

__all__ = ["BatchScheduler", "DEFAULT_MAX_CONTEXTS"]

#: How many idle (refcount-0) contexts the registry keeps warm at once.
DEFAULT_MAX_CONTEXTS = 4


class _Entry:
    """One registered context plus its checkout bookkeeping."""

    __slots__ = ("context", "refs", "persisted")

    def __init__(self, context: SharedCampaignContext) -> None:
        self.context = context
        self.refs = 0
        self.persisted = False


class BatchScheduler:
    """Refcounted ``(α, β)`` → shared-context registry for one service."""

    def __init__(self, graph: BipartiteGraph, fingerprint: str,
                 persist: Optional[DiskCacheTier] = None,
                 max_contexts: int = DEFAULT_MAX_CONTEXTS) -> None:
        self._graph = graph
        self._fingerprint = fingerprint
        self._persist = persist
        self._max_contexts = max(1, max_contexts)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, int], _Entry]" = OrderedDict()
        self._closed = False
        self._hits = 0
        self._builds = 0
        self._evictions = 0
        self._seed_restores = 0
        self._grouped = 0

    # ------------------------------------------------------------------
    # Eligibility and checkout
    # ------------------------------------------------------------------

    @staticmethod
    def eligible(spec: JobSpec) -> bool:
        """Whether a spec can run against a shared context.

        Engine-family methods only (the baselines have no substrate to
        share), and unsharded only (the sharded substrate builds
        per-shard state and ignores contexts).
        """
        return spec.method in ENGINE_METHODS and spec.shards is None

    def acquire(self, spec: JobSpec) -> Optional[SharedCampaignContext]:
        """Check out the shared context for ``spec``, or None if ineligible.

        Builds the context on first use for its ``(α, β)`` — restoring a
        persisted seed when the disk tier has a valid one — and bumps its
        refcount; the caller must :meth:`release` it in a ``finally``.
        """
        if not self.eligible(spec):
            return None
        key = (spec.alpha, spec.beta)
        with self._lock:
            if self._closed:
                return None
            entry = self._entries.get(key)
            if entry is None:
                context = SharedCampaignContext(
                    self._graph, spec.alpha, spec.beta)
                if self._restore_seed(context):
                    self._seed_restores += 1
                entry = _Entry(context)
                self._entries[key] = entry
                self._builds += 1
                self._evict_idle()
            else:
                self._hits += 1
            entry.refs += 1
            self._entries.move_to_end(key)
            return entry.context

    def release(self, spec: JobSpec,
                context: Optional[SharedCampaignContext]) -> None:
        """Return a checked-out context; persists its seed once warm."""
        if context is None:
            return
        key = (spec.alpha, spec.beta)
        persist_entry: Optional[_Entry] = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.context is not context:
                # Evicted while checked out (registry pressure): the
                # borrower was the last user; close it now.
                context.close()
                return
            entry.refs = max(0, entry.refs - 1)
            if not entry.persisted and self._persist is not None:
                persist_entry = entry
        if persist_entry is not None:
            self._persist_seed(persist_entry)

    # ------------------------------------------------------------------
    # Dispatch grouping
    # ------------------------------------------------------------------

    def choose(self, jobs: Sequence[Job]) -> Optional[Job]:
        """Pick the next job to dispatch from the pending list.

        ``jobs`` arrive in strict dispatch order (priority, then FIFO).
        Only the head job's priority class is considered, so a warm
        context never promotes a job over a higher-priority one.  Within
        that class, the first job whose ``(α, β)`` context is already
        registered wins; otherwise the head runs (and its context becomes
        the warm one for the jobs behind it).
        """
        if not jobs:
            return None
        head = jobs[0]
        with self._lock:
            if self._closed or not self._entries:
                return head
            for job in jobs:
                if job.spec.priority != head.spec.priority:
                    break
                if self.eligible(job.spec) \
                        and (job.spec.alpha, job.spec.beta) in self._entries:
                    if job is not head:
                        self._grouped += 1
                    return job
        return head

    # ------------------------------------------------------------------
    # Seed persistence
    # ------------------------------------------------------------------

    def _seed_key(self, alpha: int, beta: int) -> List[object]:
        return [self._fingerprint, alpha, beta]

    def _restore_seed(self, context: SharedCampaignContext) -> bool:
        """Install a persisted seed into a freshly built context."""
        if self._persist is None:
            return False
        payload = self._persist.load(
            "seed", self._seed_key(context.alpha, context.beta))
        if payload is None:
            return False
        try:
            return context.install_seed_payload(payload)  # type: ignore[arg-type]
        # repro: boundary — a malformed persisted seed degrades to a cold context, never an error
        except Exception:
            return False

    def _persist_seed(self, entry: _Entry) -> None:
        """Write-through a warm seed; no-op while the context is cold."""
        if self._persist is None or entry.persisted:
            return
        payload = entry.context.seed_payload()
        if payload is None:
            return
        key = self._seed_key(entry.context.alpha, entry.context.beta)
        if self._persist.store("seed", key, payload):
            entry.persisted = True

    # ------------------------------------------------------------------
    # Lifecycle / diagnostics
    # ------------------------------------------------------------------

    def _evict_idle(self) -> None:
        """Close oldest refcount-0 contexts beyond the cap (lock held)."""
        while len(self._entries) > self._max_contexts:
            victim_key = None
            for key, entry in self._entries.items():
                if entry.refs == 0:
                    victim_key = key
                    break
            if victim_key is None:
                return
            entry = self._entries.pop(victim_key)
            self._evictions += 1
            # Persist outside the lock is nicer, but eviction only
            # happens under registry pressure and the payload build is
            # pure in-memory work; keep the invariant simple.
            self._persist_seed(entry)
            entry.context.close()

    def close(self) -> None:
        """Persist every warm seed and close all registered contexts."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            self._persist_seed(entry)
            entry.context.close()

    def stats(self) -> Dict[str, object]:
        """Counters for ``CampaignService.stats()``."""
        with self._lock:
            return {
                "contexts": len(self._entries),
                "hits": self._hits,
                "builds": self._builds,
                "evictions": self._evictions,
                "seed_restores": self._seed_restores,
                "grouped": self._grouped,
                "warm": sorted(key for key, entry in self._entries.items()
                               if entry.context.seed_payload() is not None),
            }
