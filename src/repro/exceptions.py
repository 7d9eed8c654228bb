"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from :class:`ReproError`
so that callers can catch library failures with a single ``except`` clause
while letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphConstructionError",
    "InvalidParameterError",
    "DatasetError",
    "ExperimentError",
    "CheckpointError",
    "AbortCampaign",
    "EvaluationStopped",
    "FaultInjected",
    "ServiceError",
    "AdmissionError",
    "QuarantinedJobError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphConstructionError(ReproError):
    """Raised when a bipartite graph cannot be built from the given input."""


class InvalidParameterError(ReproError, ValueError):
    """Raised when algorithm parameters (alpha, beta, budgets, t) are invalid."""


class DatasetError(ReproError):
    """Raised when a dataset surrogate cannot be generated or located."""


class ExperimentError(ReproError):
    """Raised when an experiment harness is misconfigured."""


class CheckpointError(ReproError):
    """Raised when a campaign checkpoint cannot be written, read, or safely
    resumed (corrupt file, schema mismatch, or a different graph/problem)."""


class AbortCampaign(ReproError):
    """Raised by an ``on_iteration`` observer to stop a campaign gracefully.

    The engine treats it as a controlled stop: the best-so-far result is
    finalized and returned with ``interrupted=True`` instead of the
    exception propagating (see ``docs/RESILIENCE.md``).
    """


class EvaluationStopped(Exception):
    """Internal signal: a pool worker observed the deadline or stop flag.

    Raised by :meth:`repro.parallel.ShardedEvaluator.evaluate`.
    Deliberately *not* a :class:`ReproError`: it never escapes the engine,
    whose verification scan translates it into ``timed_out=True`` exactly
    like its own deadline check.
    """


class FaultInjected(ReproError):
    """Default exception raised by the deterministic fault-injection harness
    (:mod:`repro.resilience.faults`) when a plan does not specify one."""


class ServiceError(ReproError):
    """Base class for campaign-service failures (:mod:`repro.service`):
    draining shutdowns, unusable persisted queue state, jobs that the
    service could not carry to completion."""


class AdmissionError(ServiceError):
    """Raised when the campaign service refuses to accept a job: the
    service is draining, the pending queue is full, or the memory budget
    cannot ever accommodate the job (see ``docs/SERVICE.md``)."""


class QuarantinedJobError(ServiceError):
    """Raised by :meth:`repro.service.JobHandle.result` for a poison job.

    Carries the job's structured :class:`repro.service.FailureRecord` list
    in ``failures`` so callers can inspect every attempt that was made
    before the job was quarantined.
    """

    def __init__(self, message: str, failures=()):  # type: ignore[no-untyped-def]
        super().__init__(message)
        #: The per-attempt failure records accumulated before quarantine.
        self.failures = list(failures)
