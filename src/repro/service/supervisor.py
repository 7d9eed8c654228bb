"""Per-job supervision: run, heartbeat, retry from checkpoint, quarantine.

:class:`JobSupervisor` owns the attempt loop of one job at a time.  Each
attempt runs the ordinary :func:`repro.core.api.reinforce` — the same code
path as a one-shot CLI run, which is what makes service results
byte-identical to batch results — with two service hooks threaded in:

* a per-job **campaign checkpoint** (engine-family methods), so a failed
  attempt resumes from the last completed iteration instead of restarting
  the campaign;
* an ``on_iteration`` observer that **heartbeats** the job and raises
  :class:`~repro.exceptions.AbortCampaign` when the service is draining,
  which the engine converts into a verified best-so-far result with
  ``interrupted=True`` at the next iteration boundary.

Failure classification (the poison-job policy):

* :class:`InvalidParameterError` / :class:`CheckpointError` — structural;
  no retry can help.  Immediate quarantine.
* any other ``Exception`` — recorded as a :class:`FailureRecord`, retried
  with deterministic backoff (injectable sleep) from the checkpoint, and
  quarantined once the attempt budget is exhausted.
* ``BaseException`` (worker thread dying: injected ``SystemExit``,
  ``KeyboardInterrupt``) — recorded, the job is requeued (or quarantined
  if out of attempts), and the exception re-raised so the worker actually
  dies and the service's :meth:`supervise` sweep respawns it.

Fault sites: ``service.dispatch`` fires at the top of every attempt,
``service.result`` after the engine returns but before the result is
posted — a fault there exercises the retry-after-success path, which must
replay from the checkpoint and still produce identical bytes.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from typing import TYPE_CHECKING, Callable, Optional

from repro.bigraph.graph import BipartiteGraph
from repro.core.api import ENGINE_METHODS, reinforce
from repro.core.result import AnchoredCoreResult, IterationRecord
from repro.exceptions import (
    AbortCampaign,
    CheckpointError,
    InvalidParameterError,
    ServiceError,
)
from repro.resilience.faults import fault_site
from repro.resilience.retry import Backoff
from repro.service.jobs import FailureRecord, Job, JobState

if TYPE_CHECKING:
    from repro.core.batch import SharedCampaignContext

__all__ = ["JobSupervisor", "SUPERVISOR_BACKOFF"]

#: Default between-attempt backoff; ``base`` is small because the real
#: cost of a retry is the (checkpoint-bounded) replay, not the sleep.
SUPERVISOR_BACKOFF = Backoff(attempts=8, base=0.05, max_delay=1.0)


class JobSupervisor:
    """Runs jobs through the engine with retries, one job per call.

    Stateless across jobs (every attempt counter lives on the
    :class:`Job`), so one supervisor instance is shared by every worker
    thread.  ``clock`` and ``sleep`` are injectable: the chaos suite runs
    entirely on a fake clock with zero real sleeping.  ``on_iteration``
    (called as ``hook(job, record)`` after each heartbeat) is the
    observability tap the drain tests and service metrics hang off.
    """

    def __init__(self, graph: BipartiteGraph, max_retries: int = 2,
                 backoff: Backoff = SUPERVISOR_BACKOFF,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 on_iteration: Optional[
                     Callable[[Job, IterationRecord], None]] = None) -> None:
        if max_retries < 0:
            raise InvalidParameterError(
                "max_retries must be >= 0, got %d" % max_retries)
        self._graph = graph
        self._max_attempts = max_retries + 1
        self._backoff = backoff
        self._clock = clock
        self._sleep = sleep
        self._on_iteration = on_iteration

    def run(self, job: Job, drain: Optional[threading.Event] = None,
            requeue: Optional[Callable[[Job], None]] = None,
            context: Optional["SharedCampaignContext"] = None) -> str:
        """Drive ``job`` to a terminal state; returns the final state.

        ``drain`` is an event-like object (``is_set()``); when it fires,
        the in-flight attempt stops at the next iteration boundary and the
        job completes with its verified best-so-far (``interrupted=True``).
        ``requeue`` is called instead of quarantining when a
        ``BaseException`` kills the attempt with budget remaining.
        ``context`` is the batch scheduler's shared (α, β) substrate for
        this job, threaded into every attempt (the engine ignores the warm
        seed on checkpoint resume, so retry-from-checkpoint stays sound);
        results are byte-identical with or without it.
        """
        job.state = JobState.RUNNING
        delays = self._backoff.delays()
        while True:
            now = self._clock()
            job.beat(now)
            if job.deadline_at is not None and now > job.deadline_at:
                self._record(job, "deadline", ServiceError(
                    "deadline expired %.3fs before attempt %d could start"
                    % (now - job.deadline_at, job.attempts + 1)))
                job.quarantine()
                return job.state
            job.attempts += 1
            stage = "dispatch"
            try:
                fault_site("service.dispatch")
                stage = "execute"
                result = self._attempt(job, drain, context)
                stage = "result"
                fault_site("service.result")
            except (InvalidParameterError, CheckpointError) as error:
                # Structural: the same spec will fail the same way on
                # every retry.  Straight to quarantine.
                self._record(job, stage, error)
                job.quarantine()
                return job.state
            except AbortCampaign:
                # Only reachable when drain fires between the engine
                # returning and the result posting; treat as a worker
                # shutdown request, requeue for the restarted service.
                if requeue is not None:
                    job.state = JobState.PENDING
                    requeue(job)
                return job.state
            except Exception as error:  # repro: boundary — recorded on the job, then retried or quarantined
                self._record(job, stage, error)
                if job.attempts >= self._max_attempts:
                    job.quarantine()
                    return job.state
                try:
                    self._sleep(next(delays))
                except StopIteration:
                    self._sleep(self._backoff.max_delay)
                continue
            # repro: boundary — the death is recorded on the job and re-raised
            except BaseException as error:
                # The worker thread is dying (SIGKILL simulation, real
                # KeyboardInterrupt).  Record, hand the job back, die.
                self._record(job, "worker", error)
                if job.attempts >= self._max_attempts:
                    job.quarantine()
                elif requeue is not None:
                    job.state = JobState.PENDING
                    requeue(job)
                raise
            job.finish(result)
            return job.state

    def _attempt(self, job: Job, drain: Optional[threading.Event],
                 context: Optional["SharedCampaignContext"] = None,
                 ) -> AnchoredCoreResult:
        """One engine run: resume from the job checkpoint when it exists."""
        spec = job.spec
        checkpointable = spec.method in ENGINE_METHODS
        checkpoint = job.checkpoint_path if checkpointable else None
        resume = (checkpoint if checkpoint is not None
                  and os.path.exists(checkpoint) else None)

        def observer(record: IterationRecord) -> None:
            """Heartbeat + cooperative drain, once per engine iteration."""
            job.beat(self._clock())
            if self._on_iteration is not None:
                self._on_iteration(job, record)
            if drain is not None and drain.is_set():
                raise AbortCampaign(
                    "service drain: job %d stopping at iteration boundary"
                    % job.job_id)

        return reinforce(
            self._graph, spec.alpha, spec.beta, spec.b1, spec.b2,
            method=spec.method, t=spec.t, seed=spec.seed,
            time_limit=spec.time_limit, checkpoint=checkpoint,
            resume_from=resume, workers=spec.workers, shards=spec.shards,
            on_iteration=observer, context=context)

    def _record(self, job: Job, stage: str, error: BaseException) -> None:
        """Append a structured failure record for the current attempt."""
        job.failures.append(FailureRecord(
            attempt=max(job.attempts, 1), stage=stage,
            error="%s: %s" % (type(error).__name__, error),
            traceback=traceback.format_exc(),
            at=self._clock()))
