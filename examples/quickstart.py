#!/usr/bin/env python3
"""Quickstart: reinforce a tiny user-item network.

Builds the paper's Figure-1 style scenario — a tight community (the
(α,β)-core) surrounded by at-risk users and items — and uses FILVER to pick
the anchors (sponsored users / promoted items) that grow the community most.

Run:  python examples/quickstart.py
"""

from repro import GraphBuilder, reinforce
from repro.abcore import abcore

ALPHA, BETA = 4, 3  # users want >= 4 items of interest; items need >= 3 fans


def build_network():
    """A K_{3,4} community plus a periphery held together by thin support."""
    b = GraphBuilder()
    community_users = ["Ann", "Bob", "Cat"]
    community_items = ["Tea", "Milk", "Bread", "Rice"]
    for user in community_users:
        for item in community_items:
            b.add_edge(user, item)

    # A support chain hanging off the community: Drink is one fan short,
    # Hank leans on Drink and Soda, Soda leans on Hank and Gus, ...
    b.add_edges([
        ("Ann", "Drink"),
        ("Hank", "Tea"), ("Hank", "Milk"),
        ("Hank", "Drink"), ("Hank", "Soda"),
        ("Ann", "Soda"),
        ("Gus", "Tea"), ("Gus", "Milk"), ("Gus", "Bread"), ("Gus", "Soda"),
        # Joey's side chain
        ("Joey", "Tea"), ("Joey", "Milk"), ("Joey", "Cake"),
        ("Ann", "Cake"), ("Bob", "Cake"),
    ])
    return b.build()


def main():
    graph = build_network()
    print("network:", graph)

    core = abcore(graph, ALPHA, BETA)
    print("\nstable community (the (%d,%d)-core):" % (ALPHA, BETA))
    print("  ", sorted(str(graph.label_of(v)) for v in core))

    result = reinforce(graph, ALPHA, BETA, b1=1, b2=1, method="filver")
    print("\n" + result.summary())
    print("anchors:  ", [graph.label_of(a) for a in result.anchors])
    print("followers:", sorted(str(graph.label_of(f))
                               for f in result.followers))

    print("\nWith one sponsored user and one promoted item, the community "
          "grows\nfrom %d to %d members." % (result.base_core_size,
                                             result.final_core_size))


if __name__ == "__main__":
    main()
