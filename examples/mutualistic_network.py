#!/usr/bin/env python3
"""Reinforcing a plant-pollinator network against extinction cascades (§I, app 2).

The paper's second application: in a mutualistic network, the (α,β)-core is
the resilient nucleus — each plant relying on at least α animals, each animal
on at least β plants.  Conservation effort ("anchoring" species by improving
their habitat) can expand that nucleus and blunt extinction cascades.

This example

1. generates a plant-animal network (skewed, like real pollination webs);
2. picks conservation targets with FILVER;
3. simulates the same extinction shock with and without the conservation
   program and reports the species saved.

Run:  python examples/mutualistic_network.py
"""

import random

from repro import reinforce
from repro.abcore import abcore
from repro.dynamics import resilience_gain, simulate_cascade
from repro.generators import chung_lu_bipartite

ALPHA, BETA = 3, 2   # plants need >= 3 pollinators; animals >= 2 food plants


def main() -> None:
    graph = chung_lu_bipartite(n_upper=120, n_lower=80, n_edges=420, seed=13)
    print("mutualistic network: %d plants, %d animals, %d interactions"
          % (graph.n_upper, graph.n_lower, graph.n_edges))

    core = abcore(graph, ALPHA, BETA)
    print("resilient nucleus (the (%d,%d)-core): %d species"
          % (ALPHA, BETA, len(core)))

    # Conservation program: protect 3 plants and 3 animals.
    plan = reinforce(graph, ALPHA, BETA, b1=3, b2=3, method="filver")
    plants = plan.upper_anchors(graph.n_upper)
    animals = plan.lower_anchors(graph.n_upper)
    print("\nconservation targets: plants %s, animals %s"
          % (plants, [a - graph.n_upper for a in animals]))
    print("species added to the nucleus: %d" % plan.n_followers)

    # Extinction shock: a random 10% of species outside the nucleus die off.
    rng = random.Random(99)
    outside = [v for v in graph.vertices() if v not in core]
    shock = rng.sample(outside, max(1, len(outside) // 10))
    print("\nsimulating an extinction shock of %d species..." % len(shock))

    unprotected = simulate_cascade(graph, ALPHA, BETA, shock)
    print("  without protection: %d species leave over %d cascade waves"
          % (unprotected.departed, unprotected.n_rounds))

    protected = simulate_cascade(graph, ALPHA, BETA, shock,
                                 anchors=plan.anchors)
    print("  with protection   : %d species leave over %d waves"
          % (protected.departed, protected.n_rounds))

    report = resilience_gain(graph, ALPHA, BETA, shock, plan.anchors)
    print("\nsurvivors: %d -> %d (the program saves %d species beyond the "
          "%d it protects directly)"
          % (report["unprotected"], report["protected"], report["gain"],
             len(plan.anchors)))


if __name__ == "__main__":
    main()
