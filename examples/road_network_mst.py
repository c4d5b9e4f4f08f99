#!/usr/bin/env python3
"""Scenario: maintaining a cheap road/fiber backbone under construction works.

A grid-like road network with travel-time weights evolves: roads close
(deletions), new segments open (insertions), and the operator wants to keep a
minimum-cost spanning backbone at all times.  The Section 5.1 algorithm
maintains a (1+eps)-approximate minimum spanning forest with a constant
number of DMPC rounds per change; the example checks the maintained cost
against the exact minimum spanning forest of the final network.

Run with:  python examples/road_network_mst.py
"""

from __future__ import annotations

import random

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCApproxMST
from repro.graph import DynamicGraph
from repro.graph.generators import grid_graph
from repro.graph.streams import mixed_stream
from repro.graph.validation import minimum_spanning_forest_weight


def build_weighted_grid(rows: int, cols: int, seed: int) -> DynamicGraph:
    rng = random.Random(seed)
    grid = grid_graph(rows, cols)
    weighted = DynamicGraph(rows * cols)
    for (u, v) in grid.edges():
        weighted.insert_edge(u, v, rng.uniform(1.0, 30.0))
    return weighted


def main() -> None:
    rows, cols, updates = 8, 10, 160
    epsilon = 0.15
    graph = build_weighted_grid(rows, cols, seed=13)
    n = graph.num_vertices
    print(f"Road network: {rows}x{cols} grid, {graph.num_edges} segments, eps = {epsilon}\n")

    stream = mixed_stream(n, updates, seed=14, insert_probability=0.5, initial=graph, weighted=True)

    approx = DMPCApproxMST(DMPCConfig.for_graph(n, 4 * graph.num_edges), epsilon=epsilon)
    approx.preprocess(graph)

    for update in stream:
        approx.apply(update)

    optimal = minimum_spanning_forest_weight(approx.shadow)
    print(f"Exact minimum backbone cost:        {optimal:10.2f}")
    print(f"Maintained (1+eps) backbone cost:   {approx.forest_weight():10.2f} "
          f"(ratio {approx.forest_weight() / optimal:.4f}, guarantee <= {1 + epsilon})\n")
    assert approx.forest_weight() <= (1 + epsilon) * optimal + 1e-9

    summary = approx.update_summary()
    print("Per-update costs (worst case over the stream):")
    print(f"  Section 5.1 (1+eps)-MST : {summary.max_rounds:>4} rounds, {summary.max_active_machines:>4} machines, "
          f"{summary.max_words_per_round:>6} words/round")


if __name__ == "__main__":
    main()
