"""Job model for the campaign service: specs, states, handles, failures.

A *job* is one ``reinforce`` request flowing through
:class:`repro.service.CampaignService`.  The split mirrors the rest of the
repository's persistence design:

* :class:`JobSpec` — the immutable problem statement (parameters plus
  queueing metadata: priority and a relative deadline).  JSON-safe via
  ``to_payload``/``from_payload`` so the pending queue survives restarts.
* :class:`Job` — the service-owned mutable record: state machine, attempt
  counter, per-attempt :class:`FailureRecord` log, checkpoint path, and a
  ``threading.Event`` that fires exactly once when the job reaches a
  terminal state.
* :class:`JobHandle` — the caller's read-only view.  ``result()`` blocks
  until terminal and either returns the
  :class:`~repro.core.result.AnchoredCoreResult` or raises
  :class:`~repro.exceptions.QuarantinedJobError` carrying the full
  failure log.

State machine (terminal states underlined)::

    pending -> running -> completed
       |          |-----> quarantined      (attempts exhausted / poison)
       |          '-----> pending          (worker died; requeued)
       '--------> cancelled                (caller withdrew a pending job)

Timestamps (``submitted_at``, ``last_beat``, ``FailureRecord.at``) are on
the *service clock* — injectable, monotonic by default — so they order
events within one service lifetime; they are not wall-clock times.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.api import _check_arguments
from repro.core.result import AnchoredCoreResult
from repro.exceptions import (
    InvalidParameterError,
    QuarantinedJobError,
    ServiceError,
)

__all__ = ["JobSpec", "JobState", "FailureRecord", "Job", "JobHandle",
           "cache_key"]


class JobState:
    """String constants for the job lifecycle (see the module diagram)."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    QUARANTINED = "quarantined"
    CANCELLED = "cancelled"

    #: States from which a job never moves again.
    TERMINAL = (COMPLETED, QUARANTINED, CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """One immutable ``reinforce`` request plus its queueing metadata.

    ``priority`` orders the pending queue (higher first, FIFO within a
    priority).  ``deadline`` is *relative*: seconds from submission on the
    service clock; a job still pending when it expires is quarantined at
    dispatch instead of running late.  After a service restart the
    deadline restarts from the restore time — relative deadlines are the
    only kind that survive a monotonic-clock epoch change.
    """

    alpha: int
    beta: int
    b1: int
    b2: int
    method: str = "filver++"
    t: int = 5
    seed: Optional[int] = None
    time_limit: Optional[float] = None
    workers: int = 1
    shards: Optional[int] = None
    priority: int = 0
    deadline: Optional[float] = None

    def validate(self) -> None:
        """Reject specs that could never be dispatched.

        The campaign arguments go through the same check as
        :func:`repro.core.api.reinforce`, so a spec ``reinforce`` would
        refuse is refused here, before it is queued; only ``deadline`` is
        the service's own.  Full problem validation against the graph
        (:func:`repro.bigraph.validation.validate_problem`) happens at
        submission.
        """
        _check_arguments(self.method, t=self.t, time_limit=self.time_limit,
                         workers=self.workers, shards=self.shards)
        if self.deadline is not None and self.deadline <= 0:
            raise InvalidParameterError(
                "deadline must be positive seconds, got %r" % self.deadline)

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict for queue persistence."""
        return {
            "alpha": self.alpha, "beta": self.beta,
            "b1": self.b1, "b2": self.b2,
            "method": self.method, "t": self.t, "seed": self.seed,
            "time_limit": self.time_limit, "workers": self.workers,
            "shards": self.shards, "priority": self.priority,
            "deadline": self.deadline,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "JobSpec":
        """Rebuild a spec from a parsed payload dict (extra keys rejected)."""
        try:
            known = {f: payload[f] for f in ("alpha", "beta", "b1", "b2")}
            optional = {f: payload[f] for f in (
                "method", "t", "seed", "time_limit", "workers", "shards",
                "priority", "deadline") if f in payload}
            unknown = set(payload) - set(known) - set(optional)
            if unknown:
                raise ServiceError(
                    "unknown job spec fields: %s" % ", ".join(sorted(unknown)))
            return cls(**dict(known, **optional))  # type: ignore[arg-type]
        except KeyError as error:
            raise ServiceError(
                "job spec payload is missing field %s" % error) from error


def cache_key(fingerprint: str, spec: JobSpec) -> Tuple[object, ...]:
    """The result-cache identity of a job.

    Everything that can change the canonical result bytes is in the key:
    the graph fingerprint, the problem parameters, the method and its
    ``t``/``seed`` knobs, and ``time_limit`` (a timed-out partial result
    differs from a full one).  Deliberately *excluded* are ``workers``,
    ``shards``, ``priority``, and ``deadline`` — the byte-identity
    invariant guarantees execution strategy never changes the answer, so
    a serial and an 8-worker request for the same problem coalesce.
    """
    return (fingerprint, spec.alpha, spec.beta, spec.b1, spec.b2,
            spec.method, spec.t, spec.seed, spec.time_limit)


@dataclass
class FailureRecord:
    """One failed attempt (or supervision event) of one job.

    ``stage`` names where the failure struck: ``"dispatch"`` (before the
    engine started), ``"execute"`` (inside the engine), ``"result"``
    (posting the finished result), ``"worker"`` (the worker thread died),
    or ``"deadline"`` (the job expired while queued).
    """

    attempt: int
    stage: str
    error: str
    traceback: str = ""
    at: float = 0.0

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict for queue/quarantine persistence."""
        return {"attempt": self.attempt, "stage": self.stage,
                "error": self.error, "traceback": self.traceback,
                "at": self.at}

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FailureRecord":
        """Rebuild a record from a parsed payload dict."""
        try:
            return cls(attempt=int(payload["attempt"]),  # type: ignore[arg-type]
                       stage=str(payload["stage"]),
                       error=str(payload.get("error", "")),
                       traceback=str(payload.get("traceback", "")),
                       at=float(payload.get("at", 0.0)))  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(
                "malformed failure record payload: %s" % error) from error


class Job:
    """Service-internal mutable record of one submitted job.

    Owned by the :class:`~repro.service.CampaignService`; callers only see
    it through :class:`JobHandle`.  All mutation happens on the thread
    currently running the job (or the submitting thread, pre-dispatch);
    the ``done`` event is the cross-thread publication point.
    """

    def __init__(self, job_id: int, spec: JobSpec, submitted_at: float = 0.0,
                 deadline_at: Optional[float] = None,
                 checkpoint_path: Optional[str] = None) -> None:
        self.job_id = job_id
        self.spec = spec
        self.state = JobState.PENDING
        self.attempts = 0
        self.failures: List[FailureRecord] = []
        self.checkpoint_path = checkpoint_path
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at
        self.last_beat = submitted_at
        self.result: Optional[AnchoredCoreResult] = None
        self.done = threading.Event()

    def beat(self, now: float) -> None:
        """Record liveness; the supervisor flags jobs whose beat goes stale."""
        self.last_beat = now

    def finish(self, result: AnchoredCoreResult) -> None:
        """Terminal transition to ``completed`` (result may be interrupted)."""
        self.result = result
        self.state = JobState.COMPLETED
        self.done.set()

    def quarantine(self) -> None:
        """Terminal transition to ``quarantined`` (poison job)."""
        self.state = JobState.QUARANTINED
        self.done.set()

    def cancel(self) -> bool:
        """Cancel a still-pending job; returns whether it took effect."""
        if self.state != JobState.PENDING:
            return False
        self.state = JobState.CANCELLED
        self.done.set()
        return True

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict for queue persistence (restart recovery)."""
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_payload(),
            "attempts": self.attempts,
            "failures": [record.to_payload() for record in self.failures],
            "checkpoint": self.checkpoint_path,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object],
                     restored_at: float = 0.0) -> "Job":
        """Rebuild a pending job from a persisted queue entry.

        Attempt count and failure log survive the restart — a job that
        burned two attempts before the crash has only its remaining
        budget afterwards.  The relative deadline restarts from
        ``restored_at`` (see :class:`JobSpec`).
        """
        try:
            spec = JobSpec.from_payload(payload["spec"])  # type: ignore[arg-type]
            job = cls(int(payload["job_id"]), spec,  # type: ignore[arg-type]
                      submitted_at=restored_at,
                      deadline_at=(restored_at + spec.deadline
                                   if spec.deadline is not None else None),
                      checkpoint_path=payload.get("checkpoint"))  # type: ignore[arg-type]
            job.attempts = int(payload.get("attempts", 0))  # type: ignore[arg-type]
            job.failures = [FailureRecord.from_payload(p)
                            for p in payload.get("failures", [])]  # type: ignore[union-attr]
            return job
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(
                "malformed persisted job payload: %s" % error) from error


class JobHandle:
    """Caller-facing view of one submitted job.

    Multiple handles may share one underlying job — that is how request
    coalescing works: a second submission of an identical spec returns a
    new handle onto the already-queued job.
    """

    def __init__(self, job: Job) -> None:
        self._job = job

    @property
    def job_id(self) -> int:
        """The service-assigned id (unique per service state directory)."""
        return self._job.job_id

    @property
    def spec(self) -> JobSpec:
        """The immutable spec this job runs."""
        return self._job.spec

    @property
    def state(self) -> str:
        """Current :class:`JobState` constant."""
        return self._job.state

    @property
    def failures(self) -> Tuple[FailureRecord, ...]:
        """The per-attempt failure log so far (snapshot)."""
        return tuple(self._job.failures)

    def cancel(self) -> bool:
        """Withdraw the job if it is still pending; returns success."""
        return self._job.cancel()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; returns False on timeout."""
        return self._job.done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> AnchoredCoreResult:
        """The job's result, blocking until it is terminal.

        Raises :class:`~repro.exceptions.QuarantinedJobError` (carrying
        the failure log) for a poison job, :class:`ServiceError` for a
        cancelled one, and :class:`TimeoutError` if ``timeout`` elapses
        first.
        """
        if not self._job.done.wait(timeout):
            raise TimeoutError(
                "job %d still %s after %.3fs"
                % (self._job.job_id, self._job.state, timeout or 0.0))
        if self._job.state == JobState.QUARANTINED:
            raise QuarantinedJobError(
                "job %d was quarantined after %d attempt(s): %s"
                % (self._job.job_id, self._job.attempts,
                   self._job.failures[-1].error if self._job.failures
                   else "no failure recorded"),
                failures=self._job.failures)
        if self._job.state == JobState.CANCELLED:
            raise ServiceError("job %d was cancelled" % self._job.job_id)
        assert self._job.result is not None
        return self._job.result
