"""User-facing CLI: ``python -m repro <command>``.

Commands
--------
``reinforce``
    Run an anchored (α,β)-core reinforcement on an edge-list file or a
    dataset surrogate and print (or JSON-dump) the anchors and followers::

        python -m repro reinforce --dataset BX --b1 2 --b2 2 --method filver++
        python -m repro reinforce --input my_graph.txt --alpha 3 --beta 2 \
            --b1 5 --b2 5 --json plan.json

``stats``
    Print the Table-II statistics of a graph (|E|, |U|, |L|, d_max, δ).

``generate``
    Write a synthetic bipartite graph (er / powerlaw / planted) to an
    edge-list file, for experimentation without any external data.

(The experiment harness reproducing the paper's tables/figures lives under
``python -m repro.experiments``.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bigraph import read_edge_list, summarize, write_edge_list
from repro.core.api import METHODS, reinforce
from repro.exceptions import ReproError
from repro.experiments.runner import default_constraints
from repro.generators import (
    chung_lu_bipartite,
    erdos_renyi_bipartite,
    load_dataset,
    planted_core_graph,
)


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="edge-list file (optionally .gz)")
    group.add_argument("--dataset",
                       help="surrogate dataset code (UL, AC, ..., SN)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="surrogate scale (with --dataset)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--backend", choices=("list", "csr", "memmap"),
                        default="csr",
                        help="adjacency storage for --input graphs: in-RAM "
                             "lists or CSR, or out-of-core memory-mapped CSR")
    parser.add_argument("--memmap-dir", metavar="DIR", default=None,
                        help="directory for --backend memmap buffers "
                             "(default: a self-cleaning temp dir)")


def _load_graph(args: argparse.Namespace):
    if args.input:
        return read_edge_list(args.input, backend=args.backend,
                              memmap_dir=args.memmap_dir)
    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Anchored (α,β)-core reinforcement of bipartite networks")
    sub = parser.add_subparsers(dest="command", required=True)

    r = sub.add_parser("reinforce", help="pick anchors to grow the core")
    _add_graph_source(r)
    r.add_argument("--alpha", type=int, default=None,
                   help="upper-layer degree constraint (default 0.6*delta)")
    r.add_argument("--beta", type=int, default=None,
                   help="lower-layer degree constraint (default 0.4*delta)")
    r.add_argument("--b1", type=int, default=5, help="upper anchor budget")
    r.add_argument("--b2", type=int, default=5, help="lower anchor budget")
    r.add_argument("--method", choices=METHODS, default="filver++")
    r.add_argument("--t", type=int, default=5,
                   help="anchors per iteration (filver++)")
    r.add_argument("--time-limit", type=float, default=None)
    r.add_argument("--workers", type=int, default=1,
                   help="candidate-verification worker processes "
                        "(filver/filver+/filver++ only; results are "
                        "identical to --workers 1)")
    r.add_argument("--shards", type=int, default=None,
                   help="split the campaign into at most this many "
                        "connected-component shards (filver/filver+/"
                        "filver++ only; default: one per component with "
                        "edges, up to 32; 1 keeps a memmap graph "
                        "zero-copy; results are identical for every "
                        "value)")
    r.add_argument("--json", metavar="PATH", default=None,
                   help="write the full result as JSON")
    r.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="write a campaign checkpoint after every iteration "
                        "(filver/filver+/filver++ only)")
    r.add_argument("--resume", metavar="PATH", default=None,
                   help="resume a campaign from a checkpoint file; the "
                        "checkpoint must match the graph, constraints and "
                        "budgets")
    r.add_argument("--graceful-sigterm", action="store_true",
                   help="on SIGTERM, finish the current iteration, flush "
                        "the checkpoint, and report the verified "
                        "best-so-far result (interrupted=True) instead of "
                        "dying mid-iteration (filver/filver+/filver++ only)")

    s = sub.add_parser("stats", help="print Table-II style statistics")
    _add_graph_source(s)

    g = sub.add_parser("generate", help="write a synthetic graph")
    g.add_argument("--model", choices=("er", "powerlaw", "planted"),
                   default="powerlaw")
    g.add_argument("--upper", type=int, default=1000)
    g.add_argument("--lower", type=int, default=1000)
    g.add_argument("--edges", type=int, default=5000)
    g.add_argument("--exponent", type=float, default=2.2)
    g.add_argument("--alpha", type=int, default=4,
                   help="planted model: core constraint")
    g.add_argument("--beta", type=int, default=3)
    g.add_argument("--seed", type=int, default=2022)
    g.add_argument("--out", required=True, help="output edge-list path")
    return parser


def _cmd_reinforce(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    alpha, beta = args.alpha, args.beta
    if alpha is None or beta is None:
        auto_alpha, auto_beta = default_constraints(graph)
        alpha = alpha if alpha is not None else auto_alpha
        beta = beta if beta is not None else auto_beta
        print("constraints: alpha=%d beta=%d (derived from delta)"
              % (alpha, beta))
    if args.resume:
        print("resuming campaign from", args.resume)
    if args.checkpoint:
        print("checkpointing each iteration to", args.checkpoint)
    result = reinforce(graph, alpha, beta, args.b1, args.b2,
                       method=args.method, t=args.t,
                       time_limit=args.time_limit,
                       checkpoint=args.checkpoint, resume_from=args.resume,
                       workers=args.workers, shards=args.shards,
                       handle_sigterm=args.graceful_sigterm)
    if result.interrupted:
        print("campaign interrupted; reporting verified best-so-far")
    print(result.summary())
    print("upper anchors:",
          [graph.label_of(a) for a in result.upper_anchors(graph.n_upper)])
    print("lower anchors:",
          [graph.label_of(a) for a in result.lower_anchors(graph.n_upper)])
    followers_upper = sorted(graph.label_of(f) for f in result.followers
                             if graph.is_upper(f))
    followers_lower = sorted(graph.label_of(f) for f in result.followers
                             if graph.is_lower(f))
    print("followers: %d upper %s, %d lower %s"
          % (len(followers_upper), followers_upper[:20],
             len(followers_lower), followers_lower[:20]))
    if args.json:
        from repro.experiments.export import result_to_dict, write_json

        write_json(result_to_dict(result), args.json)
        print("wrote result to", args.json)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    stats = summarize(graph)
    print("|E| = %d, |U| = %d, |L| = %d" % (stats.n_edges, stats.n_upper,
                                            stats.n_lower))
    print("d_max = %d, delta = %d" % (stats.max_degree, stats.delta))
    print("avg degree: upper %.2f, lower %.2f"
          % (stats.avg_upper_degree, stats.avg_lower_degree))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "er":
        graph = erdos_renyi_bipartite(args.upper, args.lower,
                                      n_edges=args.edges, seed=args.seed)
    elif args.model == "powerlaw":
        graph = chung_lu_bipartite(args.upper, args.lower, args.edges,
                                   exponent_upper=args.exponent,
                                   exponent_lower=args.exponent,
                                   seed=args.seed)
    else:
        graph = planted_core_graph(args.alpha, args.beta, seed=args.seed)
    write_edge_list(graph, args.out,
                    header="generated by repro (%s model)" % args.model)
    print("wrote %s to %s" % (graph, args.out))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "reinforce":
            return _cmd_reinforce(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "generate":
            return _cmd_generate(args)
    except ReproError as error:
        print("error:", error, file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
