"""The typed contract between the engine and candidate evaluators.

The engine only ever touches three methods of whatever evaluates its
candidates; :class:`Evaluator` names them so ``engine.py`` can annotate its
``evaluator`` parameters instead of passing ``object`` and ignoring
attribute errors.  It lives in its own leaf module (no runtime imports
from the rest of :mod:`repro.parallel`) so the engine can reference the
type without importing ``multiprocessing`` machinery, and the structural
check stays one-way: :class:`~repro.parallel.evaluator.ShardedEvaluator`
conforms without subclassing, and tests substitute fakes through it.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Generator,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from repro.core.order_maintenance import OrderState

__all__ = ["Evaluator", "ShardCandidate"]

#: One unit of verification work: ``(shard_index, side, local_x)``, where
#: side selects the shard's O_U or O_L.  Unsharded campaigns use shard 0.
ShardCandidate = Tuple[int, str, int]


class Evaluator(Protocol):
    """What the engine requires of a parallel candidate evaluator."""

    def begin_iteration(self, shard_states: Sequence["OrderState"],
                        dirty_shards: Iterable[int],
                        deadline: Optional[float]) -> None:
        """Freeze this iteration's orders/cores/deadline for the pool.

        ``dirty_shards`` names the shards anchored since the previous
        call (every shard on the first call).
        """

    def evaluate(self, items: Sequence[ShardCandidate],
                 ) -> Generator[Set[int], None, None]:
        """Yield ``F(x)`` per candidate in order; ``close()`` cancels."""

    def shutdown(self) -> None:
        """Tear the pool down; must be idempotent."""
