"""Static CC's frontier walk against a min-label oracle built from the graph alone.

The oracle propagates labels synchronously from ``graph.neighbors``: every
iteration, each vertex of the frontier offers its label to every neighbour,
and the next frontier is the set of vertices whose label dropped (every
vertex on the first iteration).  ``StaticConnectedComponents`` must end on
the oracle's labels after exactly the oracle's iteration count, its via
edges must form a spanning forest, and each ``label-proposal`` round must
carry exactly the frontier's proposals: ``3 + 4k`` words per message, so
``3·messages + 4·Σ deg(v)`` over the oracle's frontier of that iteration.

Two seeded mutations of the source show the checks bite: a frontier that
is never cleared, and an empty first-iteration frontier.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.generators import gnm_random_graph
from repro.graph.graph import DynamicGraph
from repro.graph.validation import is_spanning_forest
from repro.static_mpc import StaticConnectedComponents
from repro.static_mpc import connected_components as cc
from seeded_mutation import mutated

BACKENDS = {
    "reference": {"backend": "reference"},
    "fast": {"backend": "fast"},
    "resident": {"backend": "resident"},
    "resident-shm": {"backend": "resident", "resident_slots": 2},
}


def shuffled_path(n: int, seed: int) -> DynamicGraph:
    """A path through a random permutation of ``0..n-1``: the minimum label travels far."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    graph = DynamicGraph(n)
    for u, v in zip(order, order[1:]):
        graph.insert_edge(u, v)
    return graph


def with_isolated(graph: DynamicGraph, extra: int) -> DynamicGraph:
    for v in range(graph.num_vertices + 10, graph.num_vertices + 10 + extra):
        graph.add_vertex(v)
    return graph


GRAPHS = {
    "gnm-sparse": lambda: gnm_random_graph(60, 70, seed=5),
    "gnm-dense": lambda: gnm_random_graph(48, 140, seed=6),
    "long-path": lambda: shuffled_path(40, seed=7),
    "isolated": lambda: with_isolated(gnm_random_graph(30, 22, seed=8), 5),
}


def oracle(graph: DynamicGraph) -> "tuple[dict[int, int], list[set[int]]]":
    """Final labels and the frontier of every iteration, from ``graph.neighbors`` only."""
    labels = {v: v for v in graph.vertices}
    frontier = set(graph.vertices)
    frontiers = []
    while frontier:
        frontiers.append(frontier)
        lowered: dict[int, int] = {}
        for v in frontier:
            for w in graph.neighbors(v):
                if labels[v] < lowered.get(w, labels[w]):
                    lowered[w] = labels[v]
        labels.update(lowered)
        frontier = set(lowered)
    return labels, frontiers


def run_checked(graph: DynamicGraph, **kwargs) -> None:
    """Run static CC and hold it to the oracle; raises ``AssertionError`` on any difference."""
    labels, frontiers = oracle(graph)
    algorithm = StaticConnectedComponents(graph, **kwargs)
    cluster = algorithm.cluster
    block = cluster.superstep_block
    iterations = []

    def bounded(*args, **kw):
        # a frontier that never empties would otherwise loop forever
        iterations.append(None)
        assert len(iterations) <= len(frontiers), "more iterations than the oracle"
        return block(*args, **kw)

    cluster.superstep_block = bounded
    algorithm.run()

    assert algorithm.labels == labels
    assert algorithm.rounds_used == len(frontiers)
    assert is_spanning_forest(graph, algorithm.spanning_forest())
    assert len(algorithm.parent_edges) == graph.num_vertices - len(set(labels.values()))

    owner = algorithm.setup.owner
    (update,) = cluster.ledger.updates
    proposal_rounds = update.rounds[0::2]
    assert len(proposal_rounds) == len(frontiers)
    for record, frontier in zip(proposal_rounds, frontiers):
        degree_sum = sum(len(graph.neighbors(v)) for v in frontier)
        pairs = {(owner(v), owner(w)) for v in frontier for w in graph.neighbors(v)}
        assert record.message_count == len(pairs)
        assert record.total_words == 3 * record.message_count + 4 * degree_sum


class TestOracle:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_labels_iterations_forest_and_words(self, name, backend):
        run_checked(GRAPHS[name](), **BACKENDS[backend])

    def test_the_frontier_shrinks(self):
        # non-vacuous: later iterations really send from a strict subset
        _labels, frontiers = oracle(GRAPHS["gnm-sparse"]())
        assert len(frontiers) >= 3
        assert all(len(later) < len(frontiers[0]) for later in frontiers[1:])


class TestSeededMutations:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_a_frontier_that_is_never_cleared_fails(self, name, monkeypatch):
        never_cleared = mutated(
            cc.LabelApplyProgram.apply,
            'shared["frontier"][machine_id] = list(delta)',
            'shared["frontier"][machine_id] = list(delta) or shared["frontier"][machine_id]',
        )
        monkeypatch.setattr(cc.LabelApplyProgram, "apply", never_cleared)
        with pytest.raises(AssertionError):
            run_checked(GRAPHS[name](), backend="fast")

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_an_empty_first_frontier_fails(self, name, monkeypatch):
        empty_start = mutated(
            cc.StaticConnectedComponents.run,
            '"frontier": dict(setup.owned)',
            '"frontier": {machine_id: [] for machine_id in setup.owned}',
        )
        monkeypatch.setattr(cc.StaticConnectedComponents, "run", empty_start)
        with pytest.raises(AssertionError):
            run_checked(GRAPHS[name](), backend="fast")
