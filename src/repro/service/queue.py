"""Admission control and the persistent priority queue of pending jobs.

Two cooperating pieces:

* :class:`AdmissionController` — decides, from the graph's measured
  :func:`~repro.bigraph.stats.memory_footprint` and a configurable byte
  budget, how many jobs may *enter* the queue (``admit``) and how many may
  *run* at once (``dispatch_allowed``).  The resident/mapped split is the
  whole point: a memmap-backed graph charges only a fraction of its bytes
  against the budget (the OS can evict those pages under pressure), so an
  out-of-core service admits far more concurrency than a resident one on
  the same budget.  The controller throttles by refusing admissions and
  delaying dispatch — it never kills in-flight work.
* :class:`JobQueue` — a heap ordered by (priority desc, submission order),
  with a condition variable for worker threads and crash-safe checksummed
  JSON persistence (:func:`save_queue_state` / :func:`load_queue_state`)
  so a drained service restarts with its backlog intact.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import AdmissionError, InvalidParameterError, ServiceError
from repro.resilience.envelope import EnvelopeError, read_envelope, write_envelope
from repro.resilience.retry import Backoff
from repro.service.jobs import Job, JobState

__all__ = ["AdmissionController", "JobQueue", "QUEUE_SCHEMA",
           "DEFAULT_JOB_COST_BYTES", "DEFAULT_MAPPED_FRACTION",
           "save_queue_state", "load_queue_state"]

#: Schema marker of the persisted queue file; loaders reject others.
QUEUE_SCHEMA = "service-queue-1"

#: Default per-job working-set estimate: order state, candidate pools,
#: memoization cache for a mid-sized campaign.  Deliberately conservative;
#: override per service for tiny test graphs or huge campaigns.
DEFAULT_JOB_COST_BYTES = 32 << 20

#: Fraction of mapped (pageable) graph bytes charged against the budget.
DEFAULT_MAPPED_FRACTION = 0.25


class AdmissionController:
    """Byte-budgeted gatekeeper for the campaign service.

    ``budget_bytes=None`` disables memory gating (admission still enforces
    ``max_pending``).  With a budget, the graph's charged cost is
    ``resident_bytes + DEFAULT_MAPPED_FRACTION * mapped_bytes`` and each
    running job charges ``job_cost_bytes`` of headroom;
    :meth:`max_concurrent` never reports less than 1, so a budget smaller
    than the graph itself degrades to strictly serial execution instead
    of wedging the queue.
    """

    def __init__(self, footprint: Dict[str, object],
                 budget_bytes: Optional[int] = None,
                 max_pending: int = 64,
                 job_cost_bytes: int = DEFAULT_JOB_COST_BYTES) -> None:
        if max_pending < 1:
            raise InvalidParameterError(
                "max_pending must be >= 1, got %d" % max_pending)
        if job_cost_bytes < 1:
            raise InvalidParameterError(
                "job_cost_bytes must be >= 1, got %d" % job_cost_bytes)
        if budget_bytes is not None and budget_bytes < 1:
            raise InvalidParameterError(
                "budget_bytes must be >= 1 or None, got %d" % budget_bytes)
        self.resident_bytes = int(footprint["resident_bytes"])  # type: ignore[arg-type]
        self.mapped_bytes = int(footprint["mapped_bytes"])  # type: ignore[arg-type]
        self.budget_bytes = budget_bytes
        self.max_pending = max_pending
        self.job_cost_bytes = job_cost_bytes

    def graph_cost(self) -> int:
        """Bytes the loaded graph charges against the budget."""
        return self.resident_bytes + int(
            self.mapped_bytes * DEFAULT_MAPPED_FRACTION)

    def max_concurrent(self) -> int:
        """How many jobs may run at once under the budget (always >= 1)."""
        if self.budget_bytes is None:
            return 1 << 30
        headroom = self.budget_bytes - self.graph_cost()
        return max(1, headroom // self.job_cost_bytes)

    def admit(self, n_pending: int) -> None:
        """Gate a submission; raises :class:`AdmissionError` when full."""
        if n_pending >= self.max_pending:
            raise AdmissionError(
                "pending queue is full (%d jobs, limit %d); resubmit after "
                "the backlog drains" % (n_pending, self.max_pending))

    def dispatch_allowed(self, n_running: int) -> bool:
        """Whether one more job may start with ``n_running`` in flight."""
        return n_running < self.max_concurrent()

    def describe(self) -> Dict[str, object]:
        """JSON-safe snapshot for ``CampaignService.stats()``."""
        return {
            "budget_bytes": self.budget_bytes,
            "graph_cost_bytes": self.graph_cost(),
            "resident_bytes": self.resident_bytes,
            "mapped_bytes": self.mapped_bytes,
            "mapped_fraction": DEFAULT_MAPPED_FRACTION,
            "job_cost_bytes": self.job_cost_bytes,
            "max_pending": self.max_pending,
            "max_concurrent": min(self.max_concurrent(), 1 << 30),
        }


class JobQueue:
    """Priority-ordered pending jobs with worker wakeup.

    Ordering is ``(-priority, submission sequence)`` — strict priority,
    FIFO within a class — which keeps dispatch deterministic for the
    chaos suite.  Cancelled jobs are lazily discarded at claim time.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Job]] = []
        self._cond = threading.Condition()
        self._seq = 0

    def __len__(self) -> int:
        with self._cond:
            return sum(1 for _, _, job in self._heap
                       if job.state == JobState.PENDING)

    def push(self, job: Job) -> None:
        """Enqueue a pending job and wake one waiting worker."""
        with self._cond:
            heapq.heappush(self._heap, (-job.spec.priority, self._seq, job))
            self._seq += 1
            self._cond.notify_all()

    def claim(self, can_dispatch: Callable[[], bool],
              stop: "threading.Event",
              timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the highest-priority pending job, or None.

        Returns None immediately when ``stop`` is set (drain), when the
        queue is empty and ``timeout`` is 0, or after ``timeout`` seconds
        of waiting.  ``can_dispatch`` re-evaluates under the lock each
        wakeup, so admission-control dispatch gating composes with the
        wait loop without a race.
        """
        deadline = (time.monotonic() + timeout) if timeout else None
        with self._cond:
            while True:
                if stop.is_set():
                    return None
                while self._heap and \
                        self._heap[0][2].state != JobState.PENDING:
                    heapq.heappop(self._heap)
                if self._heap and can_dispatch():
                    return heapq.heappop(self._heap)[2]
                if timeout is not None and timeout <= 0:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._cond.wait(remaining)

    def notify(self) -> None:
        """Wake every waiting worker (drain requested / a job finished)."""
        with self._cond:
            self._cond.notify_all()

    def pending(self) -> List[Job]:
        """Snapshot of pending jobs in dispatch order."""
        with self._cond:
            entries = sorted(e for e in self._heap
                             if e[2].state == JobState.PENDING)
            return [job for _, _, job in entries]


def save_queue_state(path: str, fingerprint: str, next_job_id: int,
                     jobs: List[Job],
                     backoff: Optional[Backoff] = None,
                     sleep: Callable[[float], None] = time.sleep) -> None:
    """Persist the pending backlog for restart recovery.

    The same envelope as campaign checkpoints
    (:mod:`repro.resilience.envelope`): checksummed sorted JSON, atomic
    replace, transient ``OSError`` retried with deterministic backoff.
    ``jobs`` should be the pending queue plus any drain-interrupted
    running jobs (their checkpoints make them resumable).
    """
    payload: Dict[str, object] = {
        "graph_fingerprint": fingerprint,
        "next_job_id": next_job_id,
        "pending": [job.to_payload() for job in jobs],
    }
    write_envelope(path, QUEUE_SCHEMA, payload, backoff=backoff, sleep=sleep)


def load_queue_state(
        path: str) -> Tuple[str, int, List[Dict[str, object]]]:
    """Read a persisted queue file; returns (fingerprint, next id, jobs).

    Raises :class:`ServiceError` for unreadable, corrupt, or
    wrong-schema files — a service refuses to guess at its backlog.
    """
    try:
        payload = read_envelope(path, QUEUE_SCHEMA, "service queue state")
    except EnvelopeError as error:
        raise ServiceError(str(error)) from error
    try:
        return (str(payload["graph_fingerprint"]),
                int(payload["next_job_id"]),  # type: ignore[call-overload]
                list(payload["pending"]))  # type: ignore[call-overload]
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise ServiceError(
            "malformed service queue payload: %s" % error) from error
