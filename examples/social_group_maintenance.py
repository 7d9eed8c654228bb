#!/usr/bin/env python3
"""Maintaining social groups on a customer-product network (paper §I, app 1).

Scenario: an e-commerce platform wants its engaged community — customers who
buy at least α distinct products, products bought by at least β distinct
customers — to be as large as possible.  The platform can sponsor a handful
of customers (influencer deals) and promote a handful of products
(discounts); both correspond to anchoring vertices of the bipartite
customer-product graph.

This example runs FILVER++ on a BookCrossing-like surrogate and reports what
a growth team would act on: which customers to sponsor, which products to
promote, and how much the engaged community grows.

Run:  python examples/social_group_maintenance.py [scale]
"""

import sys

from repro import reinforce
from repro.abcore import abcore
from repro.experiments.runner import default_constraints
from repro.generators import load_dataset


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    graph = load_dataset("BX", scale=scale)
    alpha, beta = default_constraints(graph)
    print("customer-product network: %d customers, %d products, %d purchases"
          % (graph.n_upper, graph.n_lower, graph.n_edges))
    print("engagement thresholds: customers >= %d products, "
          "products >= %d customers" % (alpha, beta))

    core = abcore(graph, alpha, beta)
    customers_in = sum(1 for v in core if graph.is_upper(v))
    print("\nengaged community today: %d customers + %d products"
          % (customers_in, len(core) - customers_in))

    budget_customers, budget_products = 5, 5
    result = reinforce(graph, alpha, beta,
                       b1=budget_customers, b2=budget_products,
                       method="filver++", t=3)

    sponsored = result.upper_anchors(graph.n_upper)
    promoted = result.lower_anchors(graph.n_upper)
    print("\ncampaign plan (budget: %d sponsorships, %d promotions):"
          % (budget_customers, budget_products))
    print("  sponsor customers :", [graph.label_of(a) for a in sponsored])
    print("  promote products  :", [graph.label_of(a) for a in promoted])

    new_customers = sum(1 for f in result.followers if graph.is_upper(f))
    new_products = result.n_followers - new_customers
    print("\nprojected effect: +%d engaged customers, +%d engaged products"
          % (new_customers, new_products))
    print("community size: %d -> %d (%.3fs, %s)"
          % (result.base_core_size, result.final_core_size,
             result.elapsed, result.algorithm))

    print("\nper-iteration breakdown:")
    for i, record in enumerate(result.iterations, 1):
        print("  round %d: placed %d anchor(s), +%d followers "
              "(%d candidates -> %d after filtering, %d verified)"
              % (i, len(record.anchors), record.marginal_followers,
                 record.candidates_total, record.candidates_after_filter,
                 record.verifications))


if __name__ == "__main__":
    main()
