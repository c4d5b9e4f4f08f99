"""Cross-module integration tests: all algorithms on one shared workload,
plus the model-limit (E8) check with enforcement switched on."""

from __future__ import annotations

import pytest

from repro.config import DMPCConfig
from repro.dynamic_mpc import (
    DMPCApproxMST,
    DMPCConnectivity,
    DMPCMaximalMatching,
    DMPCThreeHalvesMatching,
    DMPCTwoPlusEpsMatching,
)
from repro.graph import DynamicGraph
from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.graph.streams import mixed_stream
from repro.graph.validation import (
    connected_components,
    is_matching,
    is_maximal_matching,
    is_spanning_forest,
    minimum_spanning_forest_weight,
    same_partition,
)
from repro.runtime import BACKENDS


def test_all_matching_algorithms_agree_on_validity():
    """The three matching algorithms process the same stream; all outputs are valid."""
    n, updates = 20, 120
    stream = mixed_stream(n, updates, seed=42, insert_probability=0.6)
    config = DMPCConfig.for_graph(n, 160)

    maximal = DMPCMaximalMatching(config)
    maximal.preprocess(DynamicGraph(n))
    maximal.apply_sequence(stream)

    three_halves = DMPCThreeHalvesMatching(DMPCConfig.for_graph(n, 160))
    three_halves.preprocess(DynamicGraph(n))
    three_halves.apply_sequence(stream)

    two_eps = DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(n, 160), seed=7)
    two_eps.preprocess(DynamicGraph(n))
    two_eps.apply_sequence(stream)
    two_eps.drain()

    final = stream.final_graph()
    assert is_maximal_matching(final, maximal.matching())
    assert is_maximal_matching(final, three_halves.matching())
    assert is_matching(final, two_eps.matching())
    # 3/2-approximate matching is never smaller than the maximal one by more
    # than the structural guarantee allows.
    assert 3 * three_halves.matching_size() >= 2 * maximal.matching_size()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_connectivity_agrees_with_the_components_oracle(backend):
    """Euler-tour connectivity ends with the components a BFS finds, on every backend."""
    graph = gnm_random_graph(24, 36, seed=5)
    stream = mixed_stream(24, 90, seed=6, insert_probability=0.5, initial=graph)

    euler = DMPCConnectivity(DMPCConfig.for_graph(24, 200, backend=backend))
    euler.preprocess(graph)
    euler.apply_sequence(stream)

    assert same_partition(euler.components(), connected_components(stream.final_graph(graph)))


def test_mst_tracks_connectivity_and_weight():
    graph = random_weighted_graph(20, 45, seed=9)
    stream = mixed_stream(20, 80, seed=10, insert_probability=0.5, initial=graph, weighted=True)
    mst = DMPCApproxMST(DMPCConfig.for_graph(20, 200), epsilon=0.15)
    mst.preprocess(graph)
    mst.apply_sequence(stream)
    final = stream.final_graph(graph)
    assert is_spanning_forest(final, mst.spanning_forest())
    assert mst.forest_weight() <= 1.15 * minimum_spanning_forest_weight(final) + 1e-9


def test_model_limits_enforced_configuration_runs_clean():
    """E8: with strict memory + I/O caps on, a suitably-provisioned deployment
    still runs the connectivity algorithm without violating the model."""
    n, m = 24, 48
    config = DMPCConfig(capacity_n=n, capacity_m=4 * m, memory_slack=64.0, strict_memory=True)
    graph = gnm_random_graph(n, m, seed=11)
    alg = DMPCConnectivity(config)
    alg.cluster.enforce_io_cap = True
    alg.preprocess(graph)
    stream = mixed_stream(n, 60, seed=12, insert_probability=0.5, initial=graph)
    alg.apply_sequence(stream)
    assert same_partition(alg.components(), connected_components(alg.shadow))
    # every machine stayed within its memory budget
    for machine in alg.cluster.machines():
        assert machine.used_words <= config.machine_memory


def test_total_memory_stays_linear_in_input():
    """Section 2: total memory across machines is O(N)."""
    graph = gnm_random_graph(40, 80, seed=13)
    alg = DMPCConnectivity(DMPCConfig.for_graph(40, 160))
    alg.preprocess(graph)
    total = alg.cluster.total_stored_words
    assert total <= 40 * graph.input_size  # generous constant, but linear
