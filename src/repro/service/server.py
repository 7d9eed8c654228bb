"""The campaign server: admission, dispatch, supervision, drain, restart.

:class:`CampaignService` loads a graph once and serves many ``reinforce``
jobs against it.  Two execution modes share every code path except thread
creation:

* ``workers=0`` (inline) — jobs run on the caller's thread via
  :meth:`run_until_idle`.  This is the chaos-testing mode: fully
  deterministic, no thread scheduling in sight.
* ``workers>=1`` (threaded) — a fixed pool of worker threads claims jobs
  from the queue; :meth:`supervise` (optionally on a monitor thread)
  respawns workers that died and flags jobs whose heartbeat went stale.

Lifecycle guarantees (each has a dedicated chaos test):

* **admission** — ``submit`` validates the spec *and* the problem against
  the graph before queueing (poison screening at the door), consults the
  result cache, coalesces duplicate in-flight requests, and applies the
  byte-budget admission policy.  Over-budget means rejection or delayed
  dispatch — never killing in-flight work.
* **drain** — :meth:`request_drain` (wired to SIGTERM/SIGINT by
  :meth:`install_signal_handlers`) stops admissions; running jobs stop at
  their next iteration boundary with verified best-so-far results
  (``interrupted=True``); pending and interrupted jobs are persisted to
  the state directory by :meth:`shutdown` for restart recovery.
* **restart** — constructing a service with the same ``state_dir``
  restores the persisted backlog (same job ids, surviving attempt
  budgets) after verifying the graph fingerprint, and resumes each job
  from its per-job checkpoint.
* **quarantine** — jobs the supervisor gives up on are recorded as
  structured JSON under ``<state_dir>/quarantine/`` with their full
  failure log and last checkpoint, and never block the queue.
"""

from __future__ import annotations

import json
import os
import shutil
import signal as signal_module
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.stats import memory_footprint
from repro.bigraph.validation import validate_problem
from repro.exceptions import AdmissionError, ServiceError
from repro.resilience.atomic import atomic_write_text
from repro.resilience.checkpoint import graph_fingerprint
from repro.resilience.faults import fault_site
from repro.service.batching import BatchScheduler
from repro.service.cache import DiskCacheTier, ResultCache
from repro.service.jobs import (
    Job,
    JobHandle,
    JobSpec,
    JobState,
    cache_key,
)
from repro.service.queue import (
    AdmissionController,
    DEFAULT_JOB_COST_BYTES,
    JobQueue,
    load_queue_state,
    save_queue_state,
)
from repro.service.supervisor import JobSupervisor

__all__ = ["CampaignService", "DEFAULT_HEARTBEAT_TIMEOUT"]

#: A running job whose last heartbeat is older than this (service-clock
#: seconds) is flagged as stalled by :meth:`CampaignService.supervise`.
DEFAULT_HEARTBEAT_TIMEOUT = 30.0


class CampaignService:
    """Long-lived, fault-tolerant executor of reinforcement jobs.

    Usable as a context manager (``with CampaignService(graph) as svc:``);
    exit performs a graceful :meth:`shutdown`.  All knobs with timing
    semantics (``clock``, ``sleep``) are injectable so the chaos suite
    runs sleep-free on a fake clock.  ``on_iteration`` — called as
    ``hook(job, record)`` after every engine iteration of every job — is
    the per-iteration observability tap (metrics, deterministic drain
    triggering in tests).

    ``batching`` (default on) runs every engine-family job against its
    ``(α, β)``'s :class:`~repro.core.batch.SharedCampaignContext`, drawn
    from a bounded :class:`~repro.service.batching.BatchScheduler`
    registry; dispatch stays priority-then-FIFO, and results stay
    byte-identical to cold runs (``docs/SERVICE.md``).
    ``persistent_cache`` (default on) backs the result cache with a
    checksummed on-disk tier under ``<state_dir>/cache`` so hits survive
    restarts; corruption degrades to a cold cache.  Shared contexts stay
    in memory: a restarted service rebuilds them on first use.
    """

    def __init__(self, graph: BipartiteGraph, workers: int = 0,
                 budget_bytes: Optional[int] = None,
                 max_pending: int = 64, max_retries: int = 2,
                 job_cost_bytes: int = DEFAULT_JOB_COST_BYTES,
                 state_dir: Optional[str] = None,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 supervise_interval: Optional[float] = None,
                 clock: Optional[Callable[[], float]] = None,
                 sleep: Optional[Callable[[float], None]] = None,
                 on_iteration: Optional[Callable[..., None]] = None,
                 batching: bool = True,
                 persistent_cache: bool = True) -> None:
        if workers < 0:
            raise ServiceError("workers must be >= 0, got %d" % workers)
        self._graph = graph
        self._fingerprint = graph_fingerprint(graph)
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep
        self._admission = AdmissionController(
            memory_footprint(graph), budget_bytes=budget_bytes,
            max_pending=max_pending, job_cost_bytes=job_cost_bytes)
        self._queue = JobQueue()
        self._supervisor = JobSupervisor(
            graph, max_retries=max_retries,
            clock=self._clock, sleep=self._sleep,
            on_iteration=on_iteration)
        self._heartbeat_timeout = heartbeat_timeout
        self._lock = threading.Lock()
        self._drain = threading.Event()
        self._stopping = False
        self._jobs: Dict[int, Job] = {}
        self._next_id = 1
        self._n_running = 0
        self._interrupted: List[Job] = []
        self._events: List[Dict[str, object]] = []
        self._saved_handlers: Dict[int, object] = {}
        self._own_state_dir = state_dir is None
        self._state_dir = (tempfile.mkdtemp(prefix="repro-service-")
                           if state_dir is None else os.fspath(state_dir))
        os.makedirs(os.path.join(self._state_dir, "checkpoints"),
                    exist_ok=True)
        os.makedirs(os.path.join(self._state_dir, "quarantine"),
                    exist_ok=True)
        self._disk_cache = (DiskCacheTier(
            os.path.join(self._state_dir, "cache"), sleep=self._sleep)
            if persistent_cache else None)
        self._cache = ResultCache(persist=self._disk_cache)
        self._scheduler = BatchScheduler(graph) if batching else None
        self._restore_backlog()
        self._workers = workers
        self._threads: List[Optional[threading.Thread]] = []
        for index in range(workers):
            self._threads.append(self._spawn_worker(index))
        self._supervise_interval = supervise_interval
        self._monitor_wake = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        if supervise_interval is not None and workers > 0:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-service-monitor",
                daemon=True)
            self._monitor.start()

    # ------------------------------------------------------------------
    # Submission and admission
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobHandle:
        """Admit one job; returns a handle (possibly onto an existing job).

        Order of the gauntlet: the ``service.admit`` fault site, the
        drain gate, spec + problem validation (so structurally poison
        requests are rejected *here*, synchronously, instead of burning
        retries), the completed-result cache, in-flight coalescing, and
        finally the byte-budget admission check.
        """
        fault_site("service.admit")
        if self._drain.is_set():
            raise AdmissionError(
                "service is draining; new jobs are not accepted")
        spec.validate()
        validate_problem(self._graph, spec.alpha, spec.beta,
                         spec.b1, spec.b2)
        key = cache_key(self._fingerprint, spec)
        cached = self._cache.lookup(key)
        with self._lock:
            now = self._clock()
            job = Job(self._next_id, spec, submitted_at=now,
                      deadline_at=(now + spec.deadline
                                   if spec.deadline is not None else None),
                      checkpoint_path=self._checkpoint_path(self._next_id))
            if cached is not None:
                self._next_id += 1
                self._jobs[job.job_id] = job
                job.finish(cached)
                return JobHandle(job)
            existing = self._cache.claim_inflight(key, job)
            if existing is not None:
                return JobHandle(existing)
            try:
                self._admission.admit(len(self._queue))
            except AdmissionError:
                self._cache.release(key, job)
                raise
            self._next_id += 1
            self._jobs[job.job_id] = job
        self._queue.push(job)
        return JobHandle(job)

    def handle(self, job_id: int) -> JobHandle:
        """A fresh handle onto a previously submitted (or restored) job."""
        with self._lock:
            try:
                return JobHandle(self._jobs[job_id])
            except KeyError as error:
                raise ServiceError("unknown job id %d" % job_id) from error

    def job_ids(self) -> List[int]:
        """Ids of every job this service instance knows, in submit order."""
        with self._lock:
            return list(self._jobs)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_until_idle(self) -> int:
        """Run queued jobs on the calling thread until none are claimable.

        Inline-mode (``workers=0``) pump, and the heart of the
        deterministic chaos suite.  Returns the number of jobs that
        reached a terminal state.  If an injected ``BaseException`` kills
        a "worker" (this thread), the exception propagates after the
        bookkeeping that keeps the job safe — call ``run_until_idle``
        again to converge, exactly like :meth:`supervise` respawning a
        dead worker thread.
        """
        if self._workers:
            raise ServiceError(
                "run_until_idle is the workers=0 pump; this service has "
                "%d worker threads" % self._workers)
        finished = 0
        while True:
            job = self._queue.claim(self._dispatch_allowed, self._drain,
                                    timeout=0)
            if job is None:
                return finished
            self._execute(job)
            finished += 1

    def _dispatch_allowed(self) -> bool:
        return self._admission.dispatch_allowed(self._n_running)

    def _execute(self, job: Job) -> None:
        """Run one claimed job through the supervisor and publish the result.

        With batching enabled, the job runs against its ``(α, β)``'s shared
        context; any failure to *acquire* one
        degrades to a cold (context-free) run — admission and quarantine
        semantics are untouched either way.
        """
        key = cache_key(self._fingerprint, job.spec)
        context = None
        if self._scheduler is not None:
            try:
                context = self._scheduler.acquire(job.spec)
            # repro: boundary — context acquisition is an optimization; on any failure the job runs cold
            except Exception:
                context = None
        with self._lock:
            self._n_running += 1
        try:
            self._supervisor.run(job, drain=self._drain,
                                 requeue=self._queue.push, context=context)
        finally:
            with self._lock:
                self._n_running -= 1
                if job.state == JobState.COMPLETED \
                        and job.result is not None \
                        and job.result.interrupted:
                    self._interrupted.append(job)
            if job.state in JobState.TERMINAL:
                if job.state == JobState.COMPLETED \
                        and job.result is not None:
                    self._cache.store(key, job.result)
                self._cache.release(key, job)
                if job.state == JobState.QUARANTINED:
                    self._write_quarantine_record(job)
            self._queue.notify()

    def _worker_loop(self, index: int) -> None:
        """Claim-execute loop of worker thread ``index``."""
        while not self._stopping:
            job = self._queue.claim(self._dispatch_allowed, self._drain,
                                    timeout=0.05)
            if job is None:
                if self._drain.is_set():
                    return
                continue
            try:
                self._execute(job)
            # repro: boundary — death logged, re-raised for supervise() to respawn
            except BaseException as error:
                with self._lock:
                    self._events.append({
                        "event": "worker-death", "worker": index,
                        "job_id": job.job_id,
                        "error": "%s: %s" % (type(error).__name__, error),
                        "at": self._clock()})
                raise

    def _spawn_worker(self, index: int) -> threading.Thread:
        thread = threading.Thread(target=self._worker_loop, args=(index,),
                                  name="repro-service-worker-%d" % index,
                                  daemon=True)
        thread.start()
        return thread

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def supervise(self) -> Dict[str, object]:
        """One supervision sweep: respawn dead workers, flag stale jobs.

        Returns ``{"respawned": n, "stalled": [job ids]}``.  Safe to call
        from any thread at any time; the optional monitor thread just
        calls this on a timer.  The ``service.heartbeat`` fault site
        fires first, so the chaos suite can fail the sweep itself and
        assert the service survives.
        """
        fault_site("service.heartbeat")
        now = self._clock()
        respawned = 0
        stalled: List[int] = []
        with self._lock:
            if not self._stopping and not self._drain.is_set():
                for index, thread in enumerate(self._threads):
                    if thread is not None and not thread.is_alive():
                        self._threads[index] = self._spawn_worker(index)
                        respawned += 1
            for job in self._jobs.values():
                if job.state == JobState.RUNNING and \
                        now - job.last_beat > self._heartbeat_timeout:
                    stalled.append(job.job_id)
            if respawned or stalled:
                self._events.append({
                    "event": "supervise", "respawned": respawned,
                    "stalled": list(stalled), "at": now})
        return {"respawned": respawned, "stalled": stalled}

    def _monitor_loop(self) -> None:
        """Timer-driven supervision; sweep failures never kill the monitor."""
        while not self._stopping:
            try:
                self.supervise()
            # repro: boundary — a failed sweep is recorded; supervision outlives its faults
            except Exception as error:
                with self._lock:
                    self._events.append({
                        "event": "supervise-error",
                        "error": "%s: %s" % (type(error).__name__, error),
                        "at": self._clock()})
            if self._monitor_wake.wait(self._supervise_interval):
                return

    def events(self) -> List[Dict[str, object]]:
        """Supervision event log (worker deaths, respawns, stalls)."""
        with self._lock:
            return [dict(event) for event in self._events]

    # ------------------------------------------------------------------
    # Drain, shutdown, restart recovery
    # ------------------------------------------------------------------

    def request_drain(self) -> None:
        """Stop admissions; running jobs stop at iteration boundaries.

        Async-signal-safe in the way that matters for a Python handler:
        it only sets events and notifies a condition, so it is wired
        directly to SIGTERM/SIGINT by :meth:`install_signal_handlers`.
        """
        self._drain.set()
        self._queue.notify()

    @property
    def draining(self) -> bool:
        """Whether a drain has been requested."""
        return self._drain.is_set()

    def install_signal_handlers(
            self, signals: Sequence[int] = (signal_module.SIGTERM,
                                            signal_module.SIGINT)) -> bool:
        """Route ``signals`` to :meth:`request_drain`; main thread only.

        Returns False (without installing anything) off the main thread,
        where CPython forbids ``signal.signal``.  The handlers replaced
        here are put back by :meth:`shutdown`, so a process embedding the
        service gets its own SIGTERM/SIGINT handling back afterwards.
        """
        if threading.current_thread() is not threading.main_thread():
            return False

        def _handler(signum: int, frame: object) -> None:
            self.request_drain()

        try:
            for signum in signals:
                previous = signal_module.signal(signum, _handler)
                self._saved_handlers.setdefault(signum, previous)
        except ValueError:
            return False
        return True

    def _restore_signal_handlers(self) -> None:
        # Main thread only, like installation; a handler installed from C
        # (reported as None) cannot be reinstated and becomes SIG_DFL.
        if threading.current_thread() is not threading.main_thread():
            return
        saved, self._saved_handlers = self._saved_handlers, {}
        for signum, previous in saved.items():
            signal_module.signal(signum, previous if previous is not None
                                 else signal_module.SIG_DFL)

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Graceful stop: drain, join workers, persist the backlog.

        Pending jobs and drain-interrupted running jobs (which hold
        checkpoints) are written to ``<state_dir>/queue.json`` so a
        service restarted on the same directory resumes them.  Signal
        handlers installed by :meth:`install_signal_handlers` stay in
        place until the drain is done, then the ones they replaced are
        restored.  Safe to call twice.
        """
        self.request_drain()
        try:
            if self._stopping:
                return
            self._stopping = True
            self._monitor_wake.set()
            if self._monitor is not None:
                self._monitor.join(timeout)
            for thread in self._threads:
                if thread is not None:
                    thread.join(timeout)
            if self._scheduler is not None:
                self._scheduler.close()
            self._persist_backlog()
            if self._own_state_dir:
                shutil.rmtree(self._state_dir, ignore_errors=True)
        finally:
            self._restore_signal_handlers()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def _persist_backlog(self) -> None:
        with self._lock:
            backlog = self._queue.pending() + [
                job for job in self._interrupted
                if job.checkpoint_path is not None]
            seen = set()
            unique: List[Job] = []
            for job in backlog:
                if job.job_id not in seen:
                    seen.add(job.job_id)
                    unique.append(job)
            save_queue_state(os.path.join(self._state_dir, "queue.json"),
                             self._fingerprint, self._next_id, unique,
                             sleep=self._sleep)

    def _restore_backlog(self) -> None:
        path = os.path.join(self._state_dir, "queue.json")
        if not os.path.exists(path):
            return
        fingerprint, next_id, payloads = load_queue_state(path)
        if fingerprint != self._fingerprint:
            raise ServiceError(
                "state directory %s belongs to a different graph "
                "(fingerprint %s != %s)"
                % (self._state_dir, fingerprint, self._fingerprint))
        now = self._clock()
        for payload in payloads:
            job = Job.from_payload(payload, restored_at=now)
            self._jobs[job.job_id] = job
            self._cache.claim_inflight(
                cache_key(self._fingerprint, job.spec), job)
            self._queue.push(job)
            self._next_id = max(self._next_id, job.job_id + 1)
        self._next_id = max(self._next_id, next_id)

    # ------------------------------------------------------------------
    # Quarantine and observability
    # ------------------------------------------------------------------

    def _checkpoint_path(self, job_id: int) -> str:
        return os.path.join(self._state_dir, "checkpoints",
                            "job-%d.json" % job_id)

    def _write_quarantine_record(self, job: Job) -> None:
        """Structured poison-job record: spec, failures, last checkpoint."""
        record = {
            "job_id": job.job_id,
            "spec": job.spec.to_payload(),
            "attempts": job.attempts,
            "failures": [f.to_payload() for f in job.failures],
            "checkpoint": (job.checkpoint_path
                           if job.checkpoint_path is not None
                           and os.path.exists(job.checkpoint_path)
                           else None),
            "quarantined_at": self._clock(),
        }
        path = os.path.join(self._state_dir, "quarantine",
                            "job-%d.json" % job.job_id)
        atomic_write_text(path, json.dumps(record, indent=2,
                                           sort_keys=True) + "\n")

    def quarantined(self) -> List[int]:
        """Ids of quarantined jobs, in submission order."""
        with self._lock:
            return [job_id for job_id, job in self._jobs.items()
                    if job.state == JobState.QUARANTINED]

    def stats(self) -> Dict[str, object]:
        """Operational snapshot: states, admission, cache, drain flag."""
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "jobs": dict(sorted(states.items())),
                "pending": len(self._queue),
                "running": self._n_running,
                "draining": self._drain.is_set(),
                "admission": self._admission.describe(),
                "cache": self._cache.stats(),
                "batch": (self._scheduler.stats()
                          if self._scheduler is not None else None),
                "state_dir": self._state_dir,
                "workers": self._workers,
            }
