"""The paper's contribution: the anchored (α,β)-core algorithm family."""

from repro.core.anchor_set import AnchorSetMaintainer
from repro.core.api import ENGINE_METHODS, METHODS, engine_options, reinforce
from repro.core.batch import SharedCampaignContext
from repro.core.budget_min import (
    minimize_anchors_for_growth,
    minimize_anchors_for_targets,
)
from repro.core.baselines import run_degree_greedy, run_random, run_top_degree
from repro.core.collapse import (
    CollapseResult,
    collapse_size,
    critical_edges,
    critical_vertices,
)
from repro.core.deletion_order import (
    DeletionOrder,
    compute_order,
    compute_orders,
    r_scores,
    reachable_from,
    signature,
)
from repro.core.edge_anchoring import (
    EdgePlan,
    EdgeReinforcementResult,
    edges_to_secure,
    run_edge_greedy,
)
from repro.core.engine import EngineOptions, run_engine
from repro.core.exact import run_exact
from repro.core.followers import compute_followers, follower_count
from repro.core.incremental import (
    SeedTables,
    VerificationCache,
)
from repro.core.naive import run_naive
from repro.core.order_maintenance import OrderState
from repro.core.reduction import (
    MaxCoverageInstance,
    ReducedInstance,
    reduce_max_coverage,
    solve_max_coverage_exact,
)
from repro.core.result import AnchoredCoreResult, IterationRecord
from repro.core.sharded import CampaignShard, plan_shards
from repro.core.signatures import two_hop_filter, two_hop_filter_cached
from repro.core.verify import VerificationReport, verify_result

__all__ = [
    "ENGINE_METHODS",
    "METHODS",
    "AnchorSetMaintainer",
    "AnchoredCoreResult",
    "CampaignShard",
    "CollapseResult",
    "EdgePlan",
    "EdgeReinforcementResult",
    "DeletionOrder",
    "EngineOptions",
    "IterationRecord",
    "MaxCoverageInstance",
    "OrderState",
    "ReducedInstance",
    "SeedTables",
    "SharedCampaignContext",
    "VerificationCache",
    "collapse_size",
    "compute_followers",
    "critical_edges",
    "critical_vertices",
    "edges_to_secure",
    "engine_options",
    "minimize_anchors_for_growth",
    "minimize_anchors_for_targets",
    "compute_order",
    "compute_orders",
    "follower_count",
    "plan_shards",
    "r_scores",
    "reachable_from",
    "reduce_max_coverage",
    "reinforce",
    "run_degree_greedy",
    "run_edge_greedy",
    "run_engine",
    "run_exact",
    "run_naive",
    "run_random",
    "run_top_degree",
    "signature",
    "solve_max_coverage_exact",
    "two_hop_filter",
    "two_hop_filter_cached",
    "VerificationReport",
    "verify_result",
]
