"""Process-pool evaluation of candidate anchors, bit-identical to serial.

Why this is safe to parallelize
-------------------------------
Within one engine iteration the graph, both deletion orders, and the
anchored core are all *frozen*: ``compute_followers(graph, order, x, core)``
is a pure function of them and ``x``.  The serial verification stage's skip
rules (coverage by an earlier follower set, the ``T``-threshold bound) only
decide *whether* a candidate is evaluated — never *what* its follower set
would be.  So workers may evaluate candidates speculatively, in any order,
and the engine's one verification scan pulls the precomputed sets in ranked
order, applying its skip rules exactly as it does on the serial path: the
chosen anchors, the follower sets, and even the per-iteration
``verifications`` counter come out exactly as a serial run's.  The price of
that contract is bounded wasted work: the scan stops at its first
threshold skip, and what the workers computed past that point — at most
the chunks in flight and the results not yet consumed — is thrown away.

Topology
--------
The engine drives a list of campaign shards (one per component group of
its shard plan; a one-group plan is one identity shard over the input
graph), and this pool mirrors that list:

* **one shared segment per shard** — every worker attaches every shard's
  CSR graph at spawn; a chunk names its shard, so no per-iteration graph
  traffic ever happens;
* **incremental state broadcasts** — one duplex pipe per worker; per
  iteration the parent broadcasts one epoch-tagged ``state`` message
  carrying the ``array('q')`` position tables and cores only for the
  shards anchored since the previous broadcast (a clean shard's
  worker-side state is still exact because nothing that defines it
  changed);
* **whole-shard chunks** — candidate chunks are split at shard boundaries,
  so each dispatched unit touches one shard's graph and state, while chunk
  *order* still follows the merged ranking.  Chunks stream round-robin to
  idle workers and follower sets are yielded back in candidate order.
  Messages are processed FIFO per worker, so a chunk can never be
  interpreted under the wrong iteration's state.

Failure semantics (see ``docs/PARALLEL.md``):

* a worker raising :class:`~repro.exceptions.AbortCampaign` (observers,
  injected faults) surfaces in the parent as ``AbortCampaign`` — the engine
  finalizes the usual clean ``interrupted=True`` result;
* a worker hitting the deadline or the stop flag replies ``stopped`` and
  the parent raises :class:`~repro.exceptions.EvaluationStopped` — the
  engine returns the usual partial ``timed_out=True`` result;
* a worker that *dies* mid-chunk (killed, OOM, ``SystemExit``) is buried
  and its chunk is recomputed serially in the parent; with every worker
  gone the evaluator degrades to fully serial evaluation.  Results are
  identical in all three degraded modes because the replay order never
  changes.

Determinism caveat: worker *scheduling* is nondeterministic, but scheduling
only affects wall-clock, never values — every reduction is keyed by chunk
index, not arrival order.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from contextlib import nullcontext
from multiprocessing import connection as mp_connection
from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.kernel import FollowerKernel, kernel_for
from repro.bigraph.shm import (
    SharedGraphExport,
    SharedGraphMeta,
    attach_shared_graph,
    export_shared_graph,
)
from repro.core.deletion_order import DeletionOrder
from repro.core.followers import compute_followers
from repro.exceptions import (
    AbortCampaign,
    EvaluationStopped,
    InvalidParameterError,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    deactivate_inherited_plan,
    fault_site,
)

if TYPE_CHECKING:  # runtime import would be circular via repro.core.engine
    from repro.core.order_maintenance import OrderState

__all__ = ["EvaluationStopped", "ShardCandidate", "ShardedEvaluator",
           "create_sharded_evaluator"]

#: One unit of verification work: ``(shard_index, side, local_x)``, where
#: side selects the shard's O_U or O_L.  One-shard plans use shard 0.
ShardCandidate = Tuple[int, str, int]

#: Upper bound on auto-sized chunks: small enough that the drain after an
#: early break wastes little work, large enough to amortize IPC.
_MAX_CHUNK = 64

#: How many chunks each worker should receive over an average iteration
#: under auto-sizing; > 1 keeps the pipeline busy when chunk costs vary.
_CHUNKS_PER_WORKER = 4


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("process", "conn", "inflight", "dead")

    def __init__(self, process: multiprocessing.process.BaseProcess,
                 conn: mp_connection.Connection) -> None:
        self.process = process
        self.conn = conn
        #: ``(epoch, chunk_id, items)`` of the dispatched, unanswered chunk.
        self.inflight: Optional[
            Tuple[int, int, Sequence[ShardCandidate]]] = None
        self.dead = False


class ShardedEvaluator:
    """Evaluate ``F(x)`` for merged candidate batches on a process pool.

    Parameters
    ----------
    shard_graphs:
        The shards' graphs, indexed by shard — ``[graph]`` for a
        one-shard plan.  Each is exported (CSR, shared memory) once at
        construction; list-backed graphs are converted for the export only.
    workers:
        Number of worker processes, ≥ 2 (``workers=1`` means "don't build
        an evaluator" — the engine keeps its serial scan).
    chunk_size:
        Candidates per dispatched chunk; ``None`` auto-sizes per iteration.
    fault_specs:
        :class:`~repro.resilience.faults.FaultSpec` entries replayed inside
        each worker (sites ``parallel.*``) — the deterministic handle the
        fault tests use to crash or abort a worker mid-chunk.
    use_flat_kernel:
        Let workers evaluate ``F(x)`` with one flat-array
        :class:`~repro.bigraph.FollowerKernel` per shard (the shared-memory
        graphs are always CSR, so the kernel is always constructible
        worker-side).  Kernel results are set-identical to
        ``compute_followers``, so this is purely a speed switch; the engine
        passes its own kernel selection through so "generic path"
        benchmark configurations stay generic end to end.
    """

    def __init__(
        self,
        shard_graphs: Sequence[BipartiteGraph],
        workers: int,
        chunk_size: Optional[int] = None,
        fault_specs: Sequence[FaultSpec] = (),
        use_flat_kernel: bool = True,
    ) -> None:
        # Validate before acquiring any resource, so a bad parameter cannot
        # leak a shared segment.
        if workers < 2:
            raise InvalidParameterError(
                "%s needs workers >= 2, got %d"
                % (type(self).__name__, workers))
        if chunk_size is not None and chunk_size < 1:
            raise InvalidParameterError(
                "chunk_size must be >= 1, got %d" % chunk_size)
        # The latest begin_iteration states: what the in-parent recompute
        # of a dead or failing worker's chunk evaluates against.
        self._states: Sequence["OrderState"] = ()
        self._chunk_size = chunk_size
        self._epoch = 0
        self._closed = False
        self._workers: List[_WorkerHandle] = []
        self._exports: List[SharedGraphExport] = []
        try:
            for shard_graph in shard_graphs:
                self._exports.append(export_shared_graph(shard_graph))
            # fork is cheap (Linux); spawn is the portable fallback.
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            self._stop = ctx.Event()
            args = (tuple(export.meta for export in self._exports),
                    self._stop, tuple(fault_specs), use_flat_kernel)
            for _ in range(workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                process = ctx.Process(target=_sharded_worker_main,
                                      args=(child_conn,) + args, daemon=True)
                process.start()
                child_conn.close()
                self._workers.append(_WorkerHandle(process, parent_conn))
        except BaseException:  # repro: boundary - release, then re-raise
            self.shutdown()
            raise

    # ------------------------------------------------------------------
    # Introspection (used by tests and the engine)
    # ------------------------------------------------------------------

    @property
    def alive_workers(self) -> int:
        """Workers still accepting chunks."""
        return sum(1 for w in self._workers if not w.dead)

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (fault tests kill these)."""
        return [w.process.pid for w in self._workers
                if not w.dead and w.process.pid is not None]

    # ------------------------------------------------------------------
    # Per-iteration protocol
    # ------------------------------------------------------------------

    def begin_iteration(self, shard_states: Sequence["OrderState"],
                        dirty_shards: Iterable[int],
                        deadline: Optional[float]) -> None:
        """Broadcast this iteration's deadline and *changed* shard states.

        Must be called before :meth:`evaluate` each iteration.
        ``dirty_shards`` must contain every shard anchored since the last
        broadcast (all shards on the first call); clean shards keep their
        previous worker-side state, which is still exact.  The epoch bump
        is what lets stale results from an abandoned stream be recognized
        and dropped.
        """
        self._states = shard_states
        payload_shards: Dict[int, Dict[str, object]] = {}
        for shard_index in sorted(dirty_shards):
            state = shard_states[shard_index]
            payload_shards[shard_index] = {
                "core": state.core,
                "positions": {"upper": state.upper.position,
                              "lower": state.lower.position},
            }
        reference = shard_states[0]
        self._epoch += 1
        message = ("state", self._epoch, {
            "alpha": reference.alpha,
            "beta": reference.beta,
            "deadline": deadline,
            "shards": payload_shards,
        })
        for worker in self._workers:
            if worker.dead:
                continue
            try:
                worker.conn.send(message)
            except (OSError, BrokenPipeError):
                self._bury(worker, results=None)

    def evaluate(self, items: Sequence[ShardCandidate],
                 ) -> Generator[Set[int], None, None]:
        """Yield ``F(x)`` for every candidate, in the given (serial) order.

        Chunks are dispatched speculatively; closing the generator early
        (serial scan break) cancels the remaining dispatch and drains
        whatever is in flight.  Raises :class:`AbortCampaign` when a worker
        aborts and :class:`EvaluationStopped` when one hits the deadline.
        """
        if not items:
            return
        chunks = self._make_chunks(items)
        results: Dict[int, List[Set[int]]] = {}
        cursor = 0  # chunks[:cursor] have been dispatched (or run locally)
        next_yield = 0
        try:
            while next_yield < len(chunks):
                if next_yield in results:
                    for follower_set in results.pop(next_yield):
                        yield follower_set
                    next_yield += 1
                    continue
                cursor = self._fill_idle(chunks, cursor)
                if any(w.inflight is not None for w in self._workers
                       if not w.dead):
                    self._pump(results)
                elif next_yield >= cursor:
                    # Pool unavailable (all workers dead, or buried during
                    # dispatch): evaluate the next chunk in-process.  Same
                    # values, no parallelism.
                    cursor = max(cursor, next_yield + 1)
                    results[next_yield] = self._local_chunk(chunks[next_yield])
                # else: the chunk was dispatched and its worker died; _bury
                # already recomputed it into results — loop around.
        finally:
            self._drain()

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------

    def _make_chunks(self, items: Sequence[ShardCandidate],
                     ) -> List[List[ShardCandidate]]:
        """Order-preserving chunks, additionally split at shard boundaries.

        Every chunk is single-shard — the shard-granular scheduling unit —
        but chunk order still follows ``items`` (the merged ranking), so
        the in-order reduction is untouched.
        """
        size = self._chunk_size
        if size is None:
            per_pipeline = max(1, self.alive_workers) * _CHUNKS_PER_WORKER
            size = max(1, min(_MAX_CHUNK, -(-len(items) // per_pipeline)))
        chunks: List[List[ShardCandidate]] = []
        current: List[ShardCandidate] = []
        for item in items:
            if current and (len(current) >= size or item[0] != current[-1][0]):
                chunks.append(current)
                current = []
            current.append(item)
        if current:
            chunks.append(current)
        return chunks

    def _local_chunk(self, items: Sequence[ShardCandidate]) -> List[Set[int]]:
        """The serial fallback: evaluate one chunk in the parent process."""
        out: List[Set[int]] = []
        for shard_index, side, x in items:
            state = self._states[shard_index]
            order = state.upper if side == "upper" else state.lower
            out.append(compute_followers(state.graph, order, x,
                                         core=state.core))
        return out

    def _fill_idle(self, chunks: List[List[ShardCandidate]],
                   cursor: int) -> int:
        """Dispatch pending chunks to idle workers; return the new cursor."""
        for worker in self._workers:
            if cursor >= len(chunks):
                break
            if worker.dead or worker.inflight is not None:
                continue
            fault_site("parallel.dispatch")
            chunk_id = cursor
            worker.inflight = (self._epoch, chunk_id, chunks[chunk_id])
            try:
                worker.conn.send(("chunk", self._epoch, chunk_id,
                                  tuple(chunks[chunk_id])))
            except (OSError, BrokenPipeError):
                # _bury recomputes the chunk locally via the inflight record.
                self._bury(worker, results=None)
                return cursor  # caller re-enters and reconsiders
            cursor += 1
        return cursor

    def _pump(self, results: Dict[int, List[Set[int]]]) -> None:
        """Receive at least one message and apply it."""
        conns = {w.conn: w for w in self._workers
                 if not w.dead and w.inflight is not None}
        if not conns:
            return
        for conn in mp_connection.wait(list(conns)):
            worker = conns[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._bury(worker, results)
                continue
            self._apply_message(worker, message, results)

    def _apply_message(self, worker: _WorkerHandle, message: Tuple,
                       results: Dict[int, List[Set[int]]]) -> None:
        kind, epoch, chunk_id = message[0], message[1], message[2]
        worker.inflight = None
        if epoch != self._epoch:
            return  # stale reply from an abandoned stream
        if kind == "result":
            results[chunk_id] = message[3]
        elif kind == "abort":
            raise AbortCampaign(message[3])
        elif kind == "stopped":
            raise EvaluationStopped()
        elif kind == "error":
            # Degrade: recompute in the parent.  An injected worker-only
            # fault vanishes (graceful degradation); a genuine bug in the
            # evaluation re-raises here with a clean parent traceback (the
            # worker's formatted traceback is chained for context).
            try:
                results[chunk_id] = self._local_chunk(message[4])
            except Exception as exc:  # repro: boundary
                raise RuntimeError(
                    "candidate evaluation failed in worker and parent; "
                    "worker traceback:\n%s" % message[3]) from exc

    def _bury(self, worker: _WorkerHandle,
              results: Optional[Dict[int, List[Set[int]]]]) -> None:
        """Mark a worker dead; recompute its in-flight chunk in-process."""
        worker.dead = True
        inflight = worker.inflight
        worker.inflight = None
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        if inflight is not None and results is not None:
            epoch, chunk_id, items = inflight
            if epoch == self._epoch:
                results[chunk_id] = self._local_chunk(items)

    def _drain(self) -> None:
        """Collect (and discard) every outstanding reply.

        Restores the invariant that no chunk is in flight between
        :meth:`evaluate` calls — which is what makes the next
        ``begin_iteration`` broadcast deadlock-free: a worker mid-``send``
        of a large stale result would otherwise never drain its inbound
        pipe.  Abort/stop replies arriving during a drain are dropped; the
        stream they belonged to is already abandoned.
        """
        while True:
            pending = [w for w in self._workers
                       if not w.dead and w.inflight is not None]
            if not pending:
                return
            conns = {w.conn: w for w in pending}
            for conn in mp_connection.wait(list(conns)):
                worker = conns[conn]
                try:
                    conn.recv()
                except (EOFError, OSError):
                    self._bury(worker, results=None)
                    continue
                worker.inflight = None  # the reply is stale by construction

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Raise the shared stop flag without tearing the pool down.

        Workers check the flag between candidates; any chunk in flight
        comes back ``stopped`` and the consuming :meth:`evaluate` stream
        raises :class:`EvaluationStopped` — the same clean path a deadline
        takes.  This is the campaign-budget hook: one call stops every
        worker at its next candidate boundary.
        """
        self._stop.set()

    def shutdown(self) -> None:
        """Stop the pool and release the shared segments; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._workers:
            self._stop.set()
        for worker in self._workers:
            if worker.dead:
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        deadline = time.perf_counter() + 5.0
        for worker in self._workers:
            if worker.dead:
                continue
            # Keep the outbound pipe drained while waiting so a worker
            # blocked mid-send of a stale result can reach the stop message.
            while worker.process.is_alive():
                if time.perf_counter() > deadline:
                    worker.process.terminate()
                    break
                try:
                    if worker.conn.poll(0.05):
                        worker.conn.recv()
                except (EOFError, OSError):
                    break
            worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.dead = True
        self.release()

    def release(self) -> None:
        """Release the shared-memory exports (idempotent)."""
        for export in self._exports:
            export.close()

    def __enter__(self) -> "ShardedEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def create_sharded_evaluator(
    shard_graphs: Sequence[BipartiteGraph],
    workers: int,
    chunk_size: Optional[int] = None,
    fault_specs: Sequence[FaultSpec] = (),
    use_flat_kernel: bool = True,
) -> Optional[ShardedEvaluator]:
    """Build the pool for ``workers > 1``; ``None`` keeps the serial scan.

    ``workers <= 1``, an empty shard list, or pool-construction failure
    (fork refused, resource limits) all return ``None`` — campaigns degrade
    to serial instead of failing.
    """
    if workers <= 1 or not shard_graphs:
        return None
    try:
        return ShardedEvaluator(shard_graphs, workers, chunk_size=chunk_size,
                                fault_specs=fault_specs,
                                use_flat_kernel=use_flat_kernel)
    except (OSError, ValueError):  # repro: boundary
        return None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _sharded_worker_main(conn: mp_connection.Connection,
                         metas: Sequence[SharedGraphMeta], stop_event: object,
                         fault_specs: Tuple[FaultSpec, ...],
                         use_flat_kernel: bool = True) -> None:
    """Worker loop: attach every shard graph, evaluate chunks until stopped."""
    # Ctrl-C belongs to the parent: it finalizes the best-so-far result and
    # asks the pool to stop; a KeyboardInterrupt racing inside a worker
    # would only turn that clean path into a broken pipe.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):  # pragma: no cover - non-main thread
        pass
    handles = []
    kernels: List[Optional[FollowerKernel]] = []
    try:
        for meta in metas:
            handles.append(attach_shared_graph(meta))
        # Under the fork start method the parent's active FaultPlan global
        # is inherited; its counters belong to the parent, so drop it
        # before activating this worker's own (parallel.*-filtered) plan.
        deactivate_inherited_plan()
        plan = FaultPlan(specs=list(fault_specs)) if fault_specs else None
        # The attached graphs are always CSR-backed, so this never falls
        # back; the flag exists so generic-path configurations stay generic.
        kernels = [kernel_for(handle.graph) if use_flat_kernel else None
                   for handle in handles]
        state: Dict[str, object] = {"shards": {}}
        with (plan.active() if plan is not None else nullcontext()):
            _sharded_worker_loop(conn, [h.graph for h in handles],
                                 stop_event, state, kernels)
    except (KeyboardInterrupt, SystemExit):
        raise
    finally:
        for kernel in kernels:
            if kernel is not None:
                # The kernel's views pin the shared segments; drop them
                # first.
                kernel.release()
        for handle in handles:
            handle.close()
        try:
            conn.close()
        except OSError:
            pass


def _sharded_worker_loop(conn: mp_connection.Connection,
                         graphs: List[BipartiteGraph], stop_event: object,
                         state: Dict[str, object],
                         kernels: List[Optional[FollowerKernel]]) -> None:
    shards: Dict[int, Dict[str, object]] = state["shards"]  # type: ignore[assignment]
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "state":
            _, epoch, payload = message
            state["epoch"] = epoch
            state["deadline"] = payload["deadline"]
            state["alpha"] = payload["alpha"]
            state["beta"] = payload["beta"]
            # Only dirty shards travel; the rest keep their prior state,
            # which is exact because nothing anchored them since.
            for shard_index, shard_payload in payload["shards"].items():
                orders = {}
                for side in ("upper", "lower"):
                    orders[side] = DeletionOrder(
                        side=side,
                        position=shard_payload["positions"][side],
                        core=shard_payload["core"],
                        relaxed_core=set(),
                        alpha=payload["alpha"],
                        beta=payload["beta"],
                    )
                shards[shard_index] = {"orders": orders,
                                       "core": shard_payload["core"]}
                kernel = kernels[shard_index]
                if kernel is not None:
                    kernel.begin_iteration(
                        shard_payload["positions"]["upper"],
                        shard_payload["positions"]["lower"],
                        shard_payload["core"])
            continue
        # ("chunk", epoch, chunk_id, items) — FIFO pipes guarantee the
        # state message for this epoch was already processed.
        _, epoch, chunk_id, items = message
        try:
            follower_sets = _evaluate_sharded_chunk(graphs, state, items,
                                                    stop_event, kernels)
        except AbortCampaign as exc:
            conn.send(("abort", epoch, chunk_id, str(exc)))
            continue
        except Exception:  # repro: boundary
            # Ship the traceback with the items so the parent can both
            # recompute the chunk and report the worker-side context.
            conn.send(("error", epoch, chunk_id, traceback.format_exc(),
                       items))
            continue
        if follower_sets is None:
            conn.send(("stopped", epoch, chunk_id))
        else:
            conn.send(("result", epoch, chunk_id, follower_sets))


def _evaluate_sharded_chunk(graphs: List[BipartiteGraph],
                            state: Dict[str, object],
                            items: Sequence[ShardCandidate],
                            stop_event: object,
                            kernels: List[Optional[FollowerKernel]],
                            ) -> Optional[List[Set[int]]]:
    """Follower sets for one single-shard chunk; ``None`` on deadline/stop.

    The flat-array kernel (stamped by the shard's latest state message)
    and ``compute_followers`` return set-identical values, so which path
    runs is invisible to the parent's reduction.
    """
    fault_site("parallel.chunk")
    shards: Dict[int, Dict[str, object]] = state["shards"]  # type: ignore[assignment]
    deadline = state["deadline"]
    alpha = state["alpha"]
    beta = state["beta"]
    is_stopped = stop_event.is_set  # type: ignore[attr-defined]
    now = time.perf_counter
    out: List[Set[int]] = []
    for shard_index, side, x in items:
        # The stop flag is the campaign-wide budget guard; the deadline
        # check mirrors the serial scan (perf_counter is CLOCK_MONOTONIC,
        # comparable across processes on the supported platforms).
        if is_stopped():
            return None
        if deadline is not None and now() > deadline:  # type: ignore[operator]
            return None
        kernel = kernels[shard_index]
        if kernel is not None:
            out.append(kernel.followers(side, x, alpha, beta))  # type: ignore[arg-type]
        else:
            shard_state = shards[shard_index]
            out.append(compute_followers(
                graphs[shard_index],
                shard_state["orders"][side],  # type: ignore[index]
                x, core=shard_state["core"]))  # type: ignore[arg-type]
    return out
