"""Campaign checkpoints: snapshot engine progress, resume deterministically.

A FILVER campaign on a KONECT-scale graph runs for hours; a crash at hour N
must not throw away every anchor already verified.  After each iteration the
engine can persist a :class:`CampaignCheckpoint` — everything needed to
replay the campaign's effects without redoing its verification work:

* the problem identity: algorithm, (α, β), budgets, engine options, and a
  SHA-256 fingerprint of the graph structure;
* the progress: anchors placed (in order), per-iteration records, the upper
  budget consumed, accumulated wall-clock time, and whether the greedy loop
  already exhausted its candidates.

Resuming replays ``apply_anchors`` per recorded iteration — the exact call
sequence the original run made — so the restored order-maintenance state,
and therefore every subsequent candidate ranking, is identical to the
uninterrupted run's.  Replay equivalence is asserted in
``tests/test_faults.py`` for a fault injected at every iteration boundary,
on both adjacency backends.

The file format is the checksummed JSON envelope of
:mod:`repro.resilience.envelope` (see ``docs/RESILIENCE.md`` for the
schema).  A checkpoint refuses to resume against a different graph,
constraints, budgets, or engine configuration, and refuses progress that
contradicts itself.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Type,
    TypeVar,
    Union,
)

from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.validation import check_anchor_layers, check_vertex
from repro.exceptions import CheckpointError, InvalidParameterError

if TYPE_CHECKING:
    # Runtime import would cycle: repro.bigraph.io → repro.resilience →
    # here → repro.core → ... → repro.resilience.checkpoint.
    from repro.core.result import IterationRecord
from repro.resilience.envelope import (
    CHECKPOINT_WRITE_BACKOFF,
    EnvelopeError,
    read_envelope,
    write_envelope,
)
from repro.resilience.faults import fault_site
from repro.resilience.retry import Backoff

__all__ = ["CHECKPOINT_SCHEMA", "CHECKPOINT_WRITE_BACKOFF",
           "CampaignCheckpoint", "graph_fingerprint", "load_checkpoint"]

#: Bump when the payload layout changes; loaders reject other versions.
CHECKPOINT_SCHEMA = 1


def graph_fingerprint(graph: BipartiteGraph) -> str:
    """SHA-256 of the graph *structure* (layer sizes + edge set).

    Both adjacency backends number vertices identically, so a graph and its
    ``to_csr()`` twin share a fingerprint; labels are deliberately excluded
    (they never influence the algorithms).
    """
    digest = hashlib.sha256()
    digest.update(b"bip %d %d %d\n"
                  % (graph.n_upper, graph.n_lower, graph.n_edges))
    chunk: List[str] = []
    for u, v in graph.edges():
        chunk.append("%d %d" % (u, v))
        if len(chunk) >= 4096:
            digest.update("\n".join(chunk).encode("ascii"))
            chunk.clear()
    if chunk:
        digest.update("\n".join(chunk).encode("ascii"))
    return "sha256:%s" % digest.hexdigest()


_T = TypeVar("_T")


def _field(payload: Dict[str, object], name: str, kind: Type[_T]) -> _T:
    """``payload[name]``, refused unless its JSON type is exactly ``kind``.

    ``bool`` is not accepted as ``int`` (nor ``int`` as ``bool``): a
    checkpoint whose counters or flags changed type is malformed, not
    coerced.
    """
    value = payload[name]
    if type(value) is not kind:
        raise TypeError("%s must be a JSON %s, got %r"
                        % (name, kind.__name__, value))
    return value  # type: ignore[return-value]


@dataclass
class CampaignCheckpoint:
    """Engine progress after some prefix of greedy iterations."""

    algorithm: str
    alpha: int
    beta: int
    b1: int
    b2: int
    options: Dict[str, object]
    graph_fingerprint: str
    anchors: List[int] = field(default_factory=list)
    upper_used: int = 0
    iterations: List[IterationRecord] = field(default_factory=list)
    exhausted: bool = False
    elapsed: float = 0.0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """The JSON-safe checkpoint body (without the checksum envelope)."""
        return {
            "algorithm": self.algorithm,
            "alpha": self.alpha,
            "beta": self.beta,
            "b1": self.b1,
            "b2": self.b2,
            "options": dict(self.options),
            "graph_fingerprint": self.graph_fingerprint,
            "anchors": list(self.anchors),
            "upper_used": self.upper_used,
            "iterations": [record.to_dict() for record in self.iterations],
            "exhausted": self.exhausted,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CampaignCheckpoint":
        """Rebuild a checkpoint from a parsed payload dict.

        Types are checked, not coerced: integer fields must be JSON
        integers, ``exhausted`` a JSON boolean.
        """
        from repro.core.result import IterationRecord

        try:
            anchors = _field(payload, "anchors", list)
            for anchor in anchors:
                if type(anchor) is not int:
                    raise TypeError("anchor %r is not an integer" % anchor)
            elapsed = payload["elapsed"]
            if type(elapsed) not in (int, float):
                raise TypeError("elapsed must be a number, got %r" % elapsed)
            return cls(
                algorithm=_field(payload, "algorithm", str),
                alpha=_field(payload, "alpha", int),
                beta=_field(payload, "beta", int),
                b1=_field(payload, "b1", int),
                b2=_field(payload, "b2", int),
                options=dict(_field(payload, "options", dict)),
                graph_fingerprint=_field(payload, "graph_fingerprint", str),
                anchors=list(anchors),
                upper_used=_field(payload, "upper_used", int),
                iterations=[IterationRecord.from_dict(d)
                            for d in _field(payload, "iterations", list)],
                exhausted=_field(payload, "exhausted", bool),
                elapsed=float(elapsed),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise CheckpointError(
                "malformed checkpoint payload: %s" % error) from error

    def save(self, path: Union[str, "os.PathLike[str]"],
             backoff: Optional[Backoff] = None,
             sleep: Callable[[float], None] = time.sleep) -> None:
        """Atomically persist this checkpoint (checksummed JSON envelope).

        The write is retried on transient ``OSError`` with deterministic
        backoff (:data:`CHECKPOINT_WRITE_BACKOFF` unless ``backoff``
        overrides it) instead of killing the campaign, and the
        ``checkpoint.write`` fault site fires once per *attempt* so the
        fault-injection suite can exercise both the absorbed-transient and
        the exhausted-retries path.  ``sleep`` is injectable for tests.
        """
        write_envelope(path, CHECKPOINT_SCHEMA, self.to_payload(),
                       site="checkpoint.write", backoff=backoff, sleep=sleep)

    # ------------------------------------------------------------------
    # Resume-time validation
    # ------------------------------------------------------------------

    def validate_for(self, graph: BipartiteGraph, alpha: int, beta: int,
                     b1: int, b2: int, options: Dict[str, object]) -> None:
        """Refuse to resume against a different graph or problem.

        Raises :class:`CheckpointError` naming the first mismatch: graph
        fingerprint, (α, β), budgets, or engine options — or the first
        contradiction inside the recorded progress.
        """
        fingerprint = graph_fingerprint(graph)
        if fingerprint != self.graph_fingerprint:
            raise CheckpointError(
                "checkpoint was taken on a different graph "
                "(fingerprint %s != %s)"
                % (self.graph_fingerprint, fingerprint))
        expected = {"alpha": alpha, "beta": beta, "b1": b1, "b2": b2}
        recorded = {"alpha": self.alpha, "beta": self.beta,
                    "b1": self.b1, "b2": self.b2}
        if expected != recorded:
            raise CheckpointError(
                "checkpoint problem parameters %s do not match the resumed "
                "call %s" % (recorded, expected))
        if dict(options) != dict(self.options):
            raise CheckpointError(
                "checkpoint engine options %s do not match the resumed "
                "configuration %s" % (dict(self.options), dict(options)))
        self._check_progress(graph)

    def _check_progress(self, graph: BipartiteGraph) -> None:
        """Refuse progress fields that contradict each other.

        Resume replays the iteration records, so ``anchors`` must be their
        concatenation, ``upper_used`` must count its upper-layer anchors,
        and every anchor must be a distinct vertex of ``graph`` within the
        budgets; otherwise the resumed run would silently differ from any
        uninterrupted one.
        """
        placed = [x for record in self.iterations for x in record.anchors]
        if placed != self.anchors:
            raise CheckpointError(
                "inconsistent checkpoint: anchors %s are not the "
                "concatenated iteration anchors %s" % (self.anchors, placed))
        try:
            for x in placed:
                check_vertex(graph, x)
            check_anchor_layers(graph, placed, self.b1, self.b2)
        except InvalidParameterError as error:
            raise CheckpointError(
                "inconsistent checkpoint: %s" % error) from error
        if len(set(placed)) != len(placed):
            raise CheckpointError(
                "inconsistent checkpoint: anchors %s repeat a vertex"
                % placed)
        upper = sum(1 for x in placed if graph.is_upper(x))
        if upper != self.upper_used:
            raise CheckpointError(
                "inconsistent checkpoint: upper_used is %d but %d upper-layer "
                "anchors were placed" % (self.upper_used, upper))


def load_checkpoint(
        path: Union[str, "os.PathLike[str]"]) -> CampaignCheckpoint:
    """Read and verify a checkpoint file (schema + checksum)."""
    fault_site("checkpoint.load")
    try:
        payload = read_envelope(path, CHECKPOINT_SCHEMA, "checkpoint")
    except EnvelopeError as error:
        raise CheckpointError(str(error)) from error
    return CampaignCheckpoint.from_payload(payload)
