"""Reinforcement-as-a-service: a supervised, fault-tolerant campaign server.

Load a graph once, serve many ``reinforce`` jobs against it — with
priority/deadline queueing, byte-budget admission control, per-job
checkpointed retries, poison-job quarantine, request coalescing over the
byte-identity result cache (with a checksummed on-disk tier that survives
restarts), one shared warm substrate per ``(α, β)`` for engine-family
jobs, and graceful SIGTERM drain with restart recovery.  Pure
stdlib (``threading`` + a condition-variable queue); no
web framework.  See ``docs/SERVICE.md`` for the architecture and the
failure-mode table, and ``tests/test_service_faults.py`` for the
deterministic chaos suite that exercises every degradation path.

In-process use::

    from repro.service import CampaignService, JobSpec

    with CampaignService(graph, workers=2) as service:
        handle = service.submit(JobSpec(alpha=2, beta=2, b1=3, b2=3))
        result = handle.result()

Command line: ``python -m repro.service --input graph.txt --jobs jobs.json``.
"""

from __future__ import annotations

from repro.service.batching import BatchScheduler
from repro.service.cache import DiskCacheTier, ResultCache
from repro.service.jobs import (
    FailureRecord,
    Job,
    JobHandle,
    JobSpec,
    JobState,
    cache_key,
)
from repro.service.queue import AdmissionController, JobQueue
from repro.service.server import CampaignService
from repro.service.supervisor import JobSupervisor

__all__ = [
    "AdmissionController",
    "BatchScheduler",
    "CampaignService",
    "DiskCacheTier",
    "FailureRecord",
    "Job",
    "JobHandle",
    "JobQueue",
    "JobSpec",
    "JobState",
    "JobSupervisor",
    "ResultCache",
    "cache_key",
]
