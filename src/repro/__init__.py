"""repro — reinforcement of bipartite networks via anchored (α,β)-core maximization.

A from-scratch Python reproduction of *"Efficient Reinforcement of Bipartite
Networks at Billion Scale"* (He, Wang, Zhang, Lin, Zhang — ICDE 2022).

Quickstart::

    from repro import GraphBuilder, reinforce

    b = GraphBuilder()
    b.add_edges([("alice", "bread"), ("alice", "milk"), ("bob", "milk")])
    g = b.build()
    result = reinforce(g, alpha=2, beta=2, b1=1, b2=1, method="filver++")
    print(result.summary())

See :mod:`repro.core` for the algorithm family (Exact, Naive, FILVER,
FILVER+, FILVER++ and baselines), :mod:`repro.bigraph` and
:mod:`repro.abcore` for the substrates, :mod:`repro.generators` for workload
synthesis, and :mod:`repro.experiments` for the harness reproducing every
table and figure of the paper's evaluation.
"""

from repro.bigraph import (
    BipartiteGraph,
    GraphBuilder,
    from_biadjacency,
    from_edge_list,
    read_edge_list,
    write_edge_list,
)
from repro.abcore import anchored_abcore, delta, followers
from repro.core import (
    AnchoredCoreResult,
    METHODS,
    reinforce,
    run_exact,
    run_naive,
    verify_result,
)
from repro.exceptions import (
    DatasetError,
    GraphConstructionError,
    InvalidParameterError,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    "METHODS",
    "AnchoredCoreResult",
    "BipartiteGraph",
    "DatasetError",
    "GraphBuilder",
    "GraphConstructionError",
    "InvalidParameterError",
    "ReproError",
    "anchored_abcore",
    "delta",
    "followers",
    "from_biadjacency",
    "from_edge_list",
    "read_edge_list",
    "reinforce",
    "run_exact",
    "run_naive",
    "verify_result",
    "write_edge_list",
    "__version__",
]
