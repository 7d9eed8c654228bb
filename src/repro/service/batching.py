"""Batch scheduling: group compatible queued jobs onto shared contexts.

The campaign service runs every job against the *same* graph, so any two
queued engine-family jobs with the same ``(α, β)`` can share the whole
(α, β)-invariant substrate — base core, shard views, pristine order
states and each pristine shard's seeded ranked lists — through one
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

Contexts live in memory only.  A restarted service rebuilds each
``(α, β)``'s context on first use — one filter pass, tens of milliseconds
on the benchmark graphs — while finished jobs come back from the result
cache's disk tier.

Soundness: sharing is *transparent* — the context serves only values an
engine run would have computed identically itself (``docs/PERF.md``), so
batching never changes result bytes; a job whose context acquisition
fails simply runs cold.  Every engine-family job is eligible, whatever its
``shards``; the baselines run exactly as before.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.bigraph.graph import BipartiteGraph
from repro.core.api import ENGINE_METHODS
from repro.core.batch import SharedCampaignContext
from repro.service.jobs import Job, JobSpec

__all__ = ["BatchScheduler", "DEFAULT_MAX_CONTEXTS"]

#: How many idle (refcount-0) contexts the registry keeps warm at once.
DEFAULT_MAX_CONTEXTS = 4


class _Entry:
    """One registered context plus its checkout bookkeeping."""

    __slots__ = ("context", "refs")

    def __init__(self, context: SharedCampaignContext) -> None:
        self.context = context
        self.refs = 0


class BatchScheduler:
    """Refcounted ``(α, β)`` → shared-context registry for one service."""

    def __init__(self, graph: BipartiteGraph,
                 max_contexts: int = DEFAULT_MAX_CONTEXTS) -> None:
        self._graph = graph
        self._max_contexts = max(1, max_contexts)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, int], _Entry]" = OrderedDict()
        self._closed = False
        self._hits = 0
        self._builds = 0
        self._evictions = 0
        self._grouped = 0

    # ------------------------------------------------------------------
    # Eligibility and checkout
    # ------------------------------------------------------------------

    @staticmethod
    def eligible(spec: JobSpec) -> bool:
        """Whether a spec can run against a shared context: engine-family
        methods only (the baselines have no substrate to share)."""
        return spec.method in ENGINE_METHODS

    def acquire(self, spec: JobSpec) -> Optional[SharedCampaignContext]:
        """Check out the shared context for ``spec``, or None if ineligible.

        Builds the context on first use for its ``(α, β)`` and bumps its
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
                entry = _Entry(SharedCampaignContext(
                    self._graph, spec.alpha, spec.beta))
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
        """Return a checked-out context."""
        if context is None:
            return
        key = (spec.alpha, spec.beta)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.context is not context:
                # Evicted while checked out (registry pressure): the
                # borrower was the last user; close it now.
                context.close()
                return
            entry.refs = max(0, entry.refs - 1)

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
            entry.context.close()

    def close(self) -> None:
        """Close all registered contexts."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.context.close()

    def stats(self) -> Dict[str, object]:
        """Counters for ``CampaignService.stats()``."""
        with self._lock:
            return {
                "contexts": len(self._entries),
                "hits": self._hits,
                "builds": self._builds,
                "evictions": self._evictions,
                "grouped": self._grouped,
                "warm": sorted(key for key, entry in self._entries.items()
                               if entry.context.stats()["warm"]),
            }
