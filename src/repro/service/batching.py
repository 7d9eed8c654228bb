"""Batch registry: one shared context per ``(α, β)`` for the service.

The campaign service runs every job against the *same* graph, so any two
engine-family jobs with the same ``(α, β)`` can share the whole
(α, β)-invariant substrate — base core, shard views, pristine order
states and each pristine shard's seeded ranked lists — through one
:class:`repro.core.batch.SharedCampaignContext`.  :class:`BatchScheduler`
is the service-side registry of those contexts: a job's context is built
on first use of its ``(α, β)`` and kept in an LRU registry of at most
:data:`DEFAULT_MAX_CONTEXTS` entries.  Dispatch order is the queue's own
(priority, then FIFO); the registry never reorders jobs.

Eviction is safe while a job still runs against the evicted context:
closing only shuts down idle pooled evaluators, and the job's reads of
the shared substrate never consult the closed flag
(:meth:`SharedCampaignContext.close`).

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
from typing import Dict, Optional, Tuple

from repro.bigraph.graph import BipartiteGraph
from repro.core.api import ENGINE_METHODS
from repro.core.batch import SharedCampaignContext
from repro.service.jobs import JobSpec

__all__ = ["BatchScheduler", "DEFAULT_MAX_CONTEXTS"]

#: How many contexts the registry keeps at once.
DEFAULT_MAX_CONTEXTS = 4


class BatchScheduler:
    """Bounded LRU ``(α, β)`` → shared-context registry for one service."""

    def __init__(self, graph: BipartiteGraph) -> None:
        self._graph = graph
        self._lock = threading.Lock()
        # Least recently acquired first.
        self._contexts: "OrderedDict[Tuple[int, int], SharedCampaignContext]"
        self._contexts = OrderedDict()
        self._closed = False
        self._hits = 0
        self._builds = 0
        self._evictions = 0

    def acquire(self, spec: JobSpec) -> Optional[SharedCampaignContext]:
        """The shared context for ``spec``'s ``(α, β)``, or None for a
        baseline method (no substrate to share) or a closed registry.

        Builds the context on first use and marks it most recently used;
        past :data:`DEFAULT_MAX_CONTEXTS` entries the least recently
        acquired one is closed, even if a job still holds it.
        """
        if spec.method not in ENGINE_METHODS:
            return None
        key = (spec.alpha, spec.beta)
        with self._lock:
            if self._closed:
                return None
            context = self._contexts.get(key)
            if context is None:
                context = SharedCampaignContext(
                    self._graph, spec.alpha, spec.beta)
                self._contexts[key] = context
                self._builds += 1
                if len(self._contexts) > DEFAULT_MAX_CONTEXTS:
                    _key, victim = self._contexts.popitem(last=False)
                    self._evictions += 1
                    victim.close()
            else:
                self._hits += 1
                self._contexts.move_to_end(key)
            return context

    def close(self) -> None:
        """Close all registered contexts."""
        with self._lock:
            self._closed = True
            contexts = list(self._contexts.values())
            self._contexts.clear()
        for context in contexts:
            context.close()

    def stats(self) -> Dict[str, object]:
        """Counters for ``CampaignService.stats()``."""
        with self._lock:
            return {
                "contexts": len(self._contexts),
                "hits": self._hits,
                "builds": self._builds,
                "evictions": self._evictions,
                "warm": sorted(key for key, context in self._contexts.items()
                               if context.stats()["warm"]),
            }
