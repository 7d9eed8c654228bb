"""Bipartite graph substrate: structure, construction, I/O, mutation, stats."""

from repro.bigraph.builder import GraphBuilder, from_biadjacency, from_edge_list
from repro.bigraph.components import (
    ComponentDecomposition,
    SubgraphView,
    component_labels,
    component_sizes,
    decompose,
)
from repro.bigraph.csr import CSRAdjacency, adjacency_arrays
from repro.bigraph.graph import BipartiteGraph
from repro.bigraph.memmap import (
    MemmapCSRAdjacency,
    MemmapStore,
    load_graph_memmap,
    memmap_graph_from_indexed_edges,
    save_graph_memmap,
)
from repro.bigraph.io import dumps, loads, read_edge_list, write_edge_list
from repro.bigraph.kernel import FollowerKernel, kernel_for
from repro.bigraph.mutation import (
    add_edges,
    disjoint_union,
    induced_subgraph,
    relabel_compact,
    remove_vertices,
    swap_layers,
)
from repro.bigraph.shm import (
    AttachedGraph,
    SharedGraphExport,
    SharedGraphMeta,
    attach_shared_graph,
    export_shared_graph,
)
from repro.bigraph.stats import (
    GraphSummary,
    degree_histogram,
    memory_footprint,
    summarize,
)
from repro.bigraph.validation import validate_graph, validate_problem

__all__ = [
    "BipartiteGraph",
    "CSRAdjacency",
    "ComponentDecomposition",
    "FollowerKernel",
    "GraphBuilder",
    "GraphSummary",
    "MemmapCSRAdjacency",
    "MemmapStore",
    "SubgraphView",
    "AttachedGraph",
    "SharedGraphExport",
    "SharedGraphMeta",
    "adjacency_arrays",
    "attach_shared_graph",
    "component_labels",
    "component_sizes",
    "decompose",
    "export_shared_graph",
    "load_graph_memmap",
    "memmap_graph_from_indexed_edges",
    "memory_footprint",
    "save_graph_memmap",
    "validate_graph",
    "add_edges",
    "degree_histogram",
    "disjoint_union",
    "dumps",
    "from_biadjacency",
    "from_edge_list",
    "induced_subgraph",
    "kernel_for",
    "loads",
    "read_edge_list",
    "relabel_compact",
    "remove_vertices",
    "summarize",
    "swap_layers",
    "validate_problem",
    "write_edge_list",
]
