"""Parallel candidate evaluation for the FILVER engine.

The verification stage evaluates ``F(x)`` for many independent candidate
anchors; :class:`~repro.parallel.evaluator.ShardedEvaluator` fans those
evaluations out to a pool of worker processes that share each campaign
shard's CSR graph zero-copy (:mod:`repro.bigraph.shm`) and reduces the
results in the exact serial tie-breaking order, so a parallel campaign is
byte-identical to a serial one.  The same pool serves unsharded campaigns
(one shard over the whole graph) and ``shards=k`` campaigns.  See
``docs/PARALLEL.md`` for the architecture and the determinism contract.
"""

from repro.parallel.evaluator import (
    EvaluationStopped,
    ShardedEvaluator,
    create_sharded_evaluator,
)
from repro.parallel.protocol import Evaluator, ShardCandidate

__all__ = [
    "EvaluationStopped",
    "Evaluator",
    "ShardCandidate",
    "ShardedEvaluator",
    "create_sharded_evaluator",
]
