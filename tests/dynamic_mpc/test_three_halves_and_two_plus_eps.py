"""Sections 4 and 6: 3/2-approximate and (2+eps)-approximate matchings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCThreeHalvesMatching, DMPCTwoPlusEpsMatching
from repro.dynamic_mpc.state import VertexStats
from repro.exceptions import InvariantViolation, ProtocolError
from repro.graph import DynamicGraph, GraphUpdate
from repro.graph.generators import gnm_random_graph
from repro.graph.streams import mixed_stream
from repro.graph.validation import (
    has_length3_augmenting_path,
    is_matching,
    is_maximal_matching,
    maximum_matching_size,
)


class TestThreeHalves:
    def test_rejects_nonempty_initial_graph(self):
        alg = DMPCThreeHalvesMatching(DMPCConfig.for_graph(8, 32))
        with pytest.raises(ValueError):
            alg.preprocess(gnm_random_graph(8, 10, seed=1))

    def test_augmenting_path_resolved_on_insert(self):
        alg = DMPCThreeHalvesMatching(DMPCConfig.for_graph(8, 32), check_invariants=True)
        alg.preprocess(DynamicGraph(8))
        # Build path 0-1-2-3 with (1,2) matched first, then adding (2,3), (0,1)
        alg.apply(GraphUpdate.insert(1, 2))   # matched
        alg.apply(GraphUpdate.insert(2, 3))   # 3 free, 2 matched
        alg.apply(GraphUpdate.insert(0, 1))   # creates potential length-3 path -> must be augmented
        matching = alg.matching()
        assert len(matching) == 2
        assert not has_length3_augmenting_path(alg.shadow, matching)

    def test_bootstrap_from_graph(self):
        graph = gnm_random_graph(16, 30, seed=2)
        alg = DMPCThreeHalvesMatching(DMPCConfig.for_graph(16, 120), check_invariants=True)
        alg.bootstrap_from_graph(graph)
        assert is_maximal_matching(alg.shadow, alg.matching())
        assert not has_length3_augmenting_path(alg.shadow, alg.matching())

    @staticmethod
    def hub_steal(alg):
        """Free a heavy hub whose neighbours are all matched to light mates: it steals one of them.

        Hub 0 has degree 7 at the threshold isqrt(2 * 24) = 6; neighbours 1..6 are matched to 7..12
        (degree 1 each), and deleting (0, 13) frees it."""
        alg.preprocess(DynamicGraph(14))
        for w in range(1, 7):
            alg.apply(GraphUpdate.insert(w, w + 6))
        alg.apply(GraphUpdate.insert(0, 13))
        for w in range(1, 7):
            alg.apply(GraphUpdate.insert(0, w))
        assert alg.fabric.threshold == 6
        alg.apply(GraphUpdate.delete(0, 13))

    def test_a_heavy_vertex_steals_a_light_mate(self):
        alg = DMPCThreeHalvesMatching(DMPCConfig.for_graph(14, 24), check_invariants=True)
        stolen = []
        steal = alg._steal
        alg._steal = lambda z, sz: stolen.append(steal(z, sz)) or stolen[-1]
        self.hub_steal(alg)
        assert [(w, mate) for (w, mate, _s) in stolen] == [(1, 7)]
        assert alg.fabric.mate_of(0) == 1

    def test_a_heavy_evicted_mate_is_refused(self, monkeypatch):
        """The evicted mate re-settles in the light branch only; one at the threshold is a protocol error."""
        alg = DMPCThreeHalvesMatching(DMPCConfig.for_graph(14, 24))
        steal = alg._steal

        def heavy_mate(z, sz):
            w, mate, _s_mate = steal(z, sz)
            return w, mate, VertexStats(degree=alg.fabric.threshold)

        monkeypatch.setattr(alg, "_steal", heavy_mate)
        with pytest.raises(ProtocolError, match=r"heavy vertex 0 stole from vertex 7, whose degree 6"):
            self.hub_steal(alg)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_no_length3_augmenting_paths_under_mixed_stream(self, seed):
        alg = DMPCThreeHalvesMatching(DMPCConfig.for_graph(18, 120), check_invariants=True)
        alg.preprocess(DynamicGraph(18))
        stream = mixed_stream(18, 140, seed=seed, insert_probability=0.6)
        alg.apply_sequence(stream)
        matching = alg.matching()
        assert is_maximal_matching(alg.shadow, matching)
        assert not has_length3_augmenting_path(alg.shadow, matching)

    def test_three_halves_approximation_ratio(self):
        alg = DMPCThreeHalvesMatching(DMPCConfig.for_graph(20, 160))
        alg.preprocess(DynamicGraph(20))
        stream = mixed_stream(20, 160, seed=6, insert_probability=0.65)
        alg.apply_sequence(stream)
        optimum = maximum_matching_size(alg.shadow)
        assert 3 * alg.matching_size() >= 2 * optimum  # |M| >= (2/3) |M*|

    def test_free_neighbor_counters_match_ground_truth(self):
        alg = DMPCThreeHalvesMatching(DMPCConfig.for_graph(14, 80))
        alg.preprocess(DynamicGraph(14))
        stream = mixed_stream(14, 90, seed=7, insert_probability=0.6)
        alg.apply_sequence(stream)
        matched = {v for edge in alg.matching() for v in edge}
        for v in alg.shadow.vertices:
            expected = sum(1 for w in alg.shadow.neighbors(v) if w not in matched)
            assert alg.fabric.stats_of(v).free_neighbors == expected

    def test_cost_model_bounded(self):
        alg = DMPCThreeHalvesMatching(DMPCConfig.for_graph(24, 160))
        alg.preprocess(DynamicGraph(24))
        stream = mixed_stream(24, 120, seed=8, insert_probability=0.6)
        alg.apply_sequence(stream)
        summary = alg.update_summary()
        assert summary.max_rounds <= 60
        assert summary.max_active_machines <= 30


class TestTwoPlusEps:
    def test_rejects_nonempty_initial_graph(self):
        alg = DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(8, 32))
        with pytest.raises(ValueError):
            alg.preprocess(gnm_random_graph(8, 10, seed=1))

    def test_matching_always_valid(self):
        alg = DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(16, 120), check_invariants=True)
        alg.preprocess(DynamicGraph(16))
        stream = mixed_stream(16, 150, seed=9, insert_probability=0.55)
        alg.apply_sequence(stream)
        assert is_matching(alg.shadow, alg.matching())

    def test_an_under_sized_matching_is_caught(self, monkeypatch):
        """``verify_invariants`` checks the ratio, not only that the edge set is a matching."""
        alg = DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(12, 16), epsilon=0.25, check_invariants=True)
        alg.preprocess(DynamicGraph(12))
        for v in range(0, 12, 2):
            alg.apply(GraphUpdate.insert(v, v + 1))
        assert alg.matching_size() == 6
        monkeypatch.setattr(alg, "matching", lambda: {(0, 1), (2, 3)})
        with pytest.raises(InvariantViolation, match=r"maximum matching has 6 edges, more than \(2 \+ 0.25\) x the maintained 2"):
            alg.verify_invariants()

    def test_drain_reaches_near_maximality(self):
        alg = DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(20, 160), epsilon=0.25, seed=1)
        alg.preprocess(DynamicGraph(20))
        stream = mixed_stream(20, 160, seed=10, insert_probability=0.6)
        alg.apply_sequence(stream)
        alg.drain()
        optimum = maximum_matching_size(alg.shadow)
        assert (2 + 0.5) * alg.matching_size() >= optimum

    def test_levels_assigned_to_matched_vertices(self):
        alg = DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(12, 60))
        alg.preprocess(DynamicGraph(12))
        alg.apply(GraphUpdate.insert(0, 1))
        assert alg.level(0) >= 0
        assert alg.level(5) == -1

    def test_pending_work_bounded_and_drains(self):
        alg = DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(16, 100), seed=2)
        alg.preprocess(DynamicGraph(16))
        stream = mixed_stream(16, 100, seed=11, insert_probability=0.5)
        alg.apply_sequence(stream)
        cycles = alg.drain()
        assert alg.pending_work() == 0
        assert cycles < 10_000

    def test_cost_model_is_polylog(self):
        alg = DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(32, 200), seed=3)
        alg.preprocess(DynamicGraph(32))
        stream = mixed_stream(32, 150, seed=12, insert_probability=0.55)
        alg.apply_sequence(stream)
        summary = alg.update_summary()
        assert summary.max_rounds <= 12
        # Õ(1): far below the O(sqrt N) machine counts of the other algorithms.
        assert summary.max_active_machines <= 2 + alg.delta
        assert summary.max_words_per_round <= 40 * alg.delta

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(8, 16), epsilon=0.0)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=25))
def test_property_two_plus_eps_matching_always_a_matching(pairs):
    """Property: the Section 6 structure never reports an invalid matching."""
    alg = DMPCTwoPlusEpsMatching(DMPCConfig.for_graph(8, 40), seed=4)
    alg.preprocess(DynamicGraph(8))
    present: set[tuple[int, int]] = set()
    for (u, v) in pairs:
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in present:
            alg.apply(GraphUpdate.delete(*edge))
            present.discard(edge)
        else:
            alg.apply(GraphUpdate.insert(*edge))
            present.add(edge)
    assert is_matching(alg.shadow, alg.matching())
