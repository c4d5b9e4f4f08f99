"""Section 3 algorithm: maximal matching maintained under every update."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching, DMPCThreeHalvesMatching
from repro.dynamic_mpc.state import MatchingFabric
from repro.exceptions import InvariantViolation
from repro.graph import DynamicGraph, GraphUpdate
from repro.graph.generators import gnm_random_graph, preferential_attachment_graph, star_graph
from repro.graph.streams import matched_edge_adversary_stream, mixed_stream
from repro.graph.validation import is_maximal_matching, maximum_matching_size
from seeded_mutation import mutated


def make_algorithm(n: int = 32, m: int = 160, **kwargs) -> DMPCMaximalMatching:
    return DMPCMaximalMatching(DMPCConfig.for_graph(n, m), **kwargs)


class TestBasicUpdates:
    def test_insert_between_free_vertices_matches_them(self):
        alg = make_algorithm()
        alg.preprocess(DynamicGraph(8))
        alg.apply(GraphUpdate.insert(0, 1))
        assert alg.matching() == {(0, 1)}

    def test_insert_between_matched_vertices_changes_nothing(self):
        alg = make_algorithm()
        alg.preprocess(DynamicGraph(8))
        alg.apply_sequence([GraphUpdate.insert(0, 1), GraphUpdate.insert(2, 3), GraphUpdate.insert(0, 2)])
        assert alg.matching() == {(0, 1), (2, 3)}

    def test_delete_nonmatching_edge_keeps_matching(self):
        alg = make_algorithm()
        alg.preprocess(DynamicGraph(8))
        alg.apply_sequence([GraphUpdate.insert(0, 1), GraphUpdate.insert(1, 2), GraphUpdate.delete(1, 2)])
        assert alg.matching() == {(0, 1)}

    def test_delete_matched_edge_triggers_rematch(self):
        alg = make_algorithm(check_invariants=True)
        alg.preprocess(DynamicGraph(8))
        alg.apply_sequence(
            [
                GraphUpdate.insert(0, 1),
                GraphUpdate.insert(1, 2),
                GraphUpdate.insert(0, 3),
                GraphUpdate.delete(0, 1),
            ]
        )
        matching = alg.matching()
        assert is_maximal_matching(alg.shadow, matching)
        assert len(matching) == 2

    def test_preprocess_arbitrary_graph(self):
        graph = gnm_random_graph(24, 60, seed=3)
        alg = make_algorithm()
        alg.preprocess(graph)
        assert is_maximal_matching(graph, alg.matching())

    def test_preprocess_twice_rejected(self):
        alg = make_algorithm()
        alg.preprocess(DynamicGraph(4))
        with pytest.raises(RuntimeError):
            alg.preprocess(DynamicGraph(4))


class TestFirstTouch:
    """From the empty graph a vertex's statistics slot is first written by the update that touches it."""

    def test_each_endpoint_records_the_alive_machine_holding_its_row(self):
        """Vertex 2 is first touched by an insert that matches nothing: only the
        statistics push before its row is placed commits its record."""
        alg = make_algorithm(8, 8)
        alg.preprocess(DynamicGraph())
        alg.apply_sequence([GraphUpdate.insert(0, 1), GraphUpdate.insert(1, 2)])
        assert alg.matching() == {(0, 1)}
        for v, row in ((0, {1}), (1, {0, 2}), (2, {1})):
            alive = alg.fabric.stats_of(v).alive_machine
            assert alive is not None, f"vertex {v}'s record names no alive machine"
            assert set(alg.fabric.local_adjacency(alive, v)) == row

    @pytest.mark.parametrize("algorithm", [DMPCMaximalMatching, DMPCThreeHalvesMatching])
    def test_a_write_no_commit_occupied_is_caught_at_the_boundary(self, algorithm):
        alg = algorithm(DMPCConfig.for_graph(8, 8), check_invariants=True)
        alg.preprocess(DynamicGraph())
        alg.apply(GraphUpdate.insert(0, 1))
        alg.fabric.stats_of(5).alive_machine = "edge0"  # vertex 5 was never pushed
        with pytest.raises(InvariantViolation, match=r"statistics of vertices \[5\] were written but never committed"):
            alg.apply(GraphUpdate.insert(2, 3))


class TestInvariantsUnderRandomStreams:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_stream_on_random_graph(self, seed):
        graph = gnm_random_graph(24, 48, seed=seed)
        alg = make_algorithm(check_invariants=True)
        alg.preprocess(graph)
        stream = mixed_stream(24, 120, seed=seed + 10, insert_probability=0.5, initial=graph)
        alg.apply_sequence(stream)  # check_invariants verifies after every update
        assert is_maximal_matching(alg.shadow, alg.matching())

    def test_power_law_graph_with_heavy_vertices(self):
        graph = preferential_attachment_graph(40, attach=3, seed=5)
        alg = DMPCMaximalMatching(DMPCConfig.for_graph(40, 200), check_invariants=True)
        alg.preprocess(graph)
        stream = mixed_stream(40, 100, seed=6, insert_probability=0.45, initial=graph)
        alg.apply_sequence(stream)

    def test_star_center_deletion_storm(self):
        """Deleting the star centre's matched edge repeatedly exercises the heavy-vertex path."""
        graph = star_graph(20)
        alg = DMPCMaximalMatching(DMPCConfig.for_graph(20, 40), check_invariants=True)
        alg.preprocess(graph)
        centre_mate = next((v for (u, v) in alg.matching() if u == 0), None)
        for _ in range(6):
            if centre_mate is None:
                break
            alg.apply(GraphUpdate.delete(0, centre_mate))
            mates = [edge for edge in alg.matching() if 0 in edge]
            centre_mate = (mates[0][1] if mates[0][0] == 0 else mates[0][0]) if mates else None

    def test_heavy_vertex_rematches_from_suspended_stack(self):
        """Regression (seed bug, ROADMAP): star K_{1,30} on n=64, delete (0,1)..(0,22).

        Deleting the heavy centre's matched edge repeatedly drains its alive
        set until the only remaining free neighbours live on its suspended
        machines — and by then the centre's degree has dropped below the
        heavy threshold, so the old ``_settle`` returned without looking at
        the suspended stack and the matching silently lost maximality.
        """
        n = 64
        graph = DynamicGraph(n)
        for i in range(1, 31):
            graph.insert_edge(0, i)
        alg = DMPCMaximalMatching(DMPCConfig.for_graph(n, 2 * graph.num_edges), check_invariants=True)
        alg.preprocess(graph)
        for i in range(1, 23):
            alg.apply(GraphUpdate.delete(0, i))  # check_invariants verifies each step
        assert alg.is_matched(0)
        assert is_maximal_matching(alg.shadow, alg.matching())

    def test_heavy_vertex_rematches_from_suspended_stack_batched(self):
        """The same heavy-workload stream through apply_batch reaches the same matching."""
        n = 64
        deletes = [GraphUpdate.delete(0, i) for i in range(1, 23)]

        def build():
            graph = DynamicGraph(n)
            for i in range(1, 31):
                graph.insert_edge(0, i)
            alg = DMPCMaximalMatching(DMPCConfig.for_graph(n, 2 * graph.num_edges))
            alg.preprocess(graph)
            return alg

        sequential = build()
        for update in deletes:
            sequential.apply(update)
        batched_alg = build()
        batched_alg.apply_batch(deletes)
        assert sequential.matching() == batched_alg.matching()
        assert is_maximal_matching(batched_alg.shadow, batched_alg.matching())

    def test_adversary_targeting_matched_edges(self):
        alg = make_algorithm(n=20, m=120, check_invariants=True)
        alg.preprocess(DynamicGraph(20))
        stream = matched_edge_adversary_stream(20, 120, lambda: alg.matching(), seed=9, delete_probability=0.6)
        for update in stream:
            alg.apply(update)
        assert is_maximal_matching(alg.shadow, alg.matching())

    def test_matching_is_2_approximation(self):
        graph = gnm_random_graph(26, 70, seed=11)
        alg = DMPCMaximalMatching(DMPCConfig.for_graph(26, 200))
        alg.preprocess(graph)
        stream = mixed_stream(26, 80, seed=12, insert_probability=0.6, initial=graph)
        alg.apply_sequence(stream)
        assert 2 * len(alg.matching()) >= maximum_matching_size(alg.shadow)


# (n, graph seed, stream seed): the three shortest dense-churn recipes on
# which the parent of PR 22 lost maximality (at updates 324, 340 and 362).
CHURN_RECIPES = [(48, 4, 14), (96, 8, 18), (48, 3, 13)]


def run_churn_recipe(
    n: int, graph_seed: int, stream_seed: int, *, chunk: int | None = None, updates: int = 600
) -> DMPCMaximalMatching:
    """``updates`` ``mixed_stream`` updates on ``gnm(n, 2n)`` with maximality
    checked at every boundary (every update through ``apply``, every chunk
    through ``apply_batch``)."""
    graph = gnm_random_graph(n, 2 * n, seed=graph_seed)
    stream = list(mixed_stream(n, updates, seed=stream_seed, insert_probability=0.5, initial=graph))
    alg = DMPCMaximalMatching(DMPCConfig.for_graph(n, 4 * n, backend="fast"), check_invariants=True)
    alg.preprocess(graph.copy())
    if chunk is None:
        for update in stream:
            alg.apply(update)
    else:
        for start in range(0, len(stream), chunk):
            alg.apply_batch(stream[start : start + chunk])
    return alg


class TestDenseChurn:
    """Updates ≫ n, so edges are deleted and re-inserted: a replayed ``delete``
    must never reach the copy of a later incarnation of its edge."""

    @pytest.mark.parametrize("chunk", [None, 8], ids=["apply", "apply_batch-8"])
    @pytest.mark.parametrize("n, graph_seed, stream_seed", CHURN_RECIPES)
    def test_maximal_at_every_boundary(self, n, graph_seed, stream_seed, chunk):
        alg = run_churn_recipe(n, graph_seed, stream_seed, chunk=chunk)
        assert is_maximal_matching(alg.shadow, alg.matching())
        if chunk is None:
            # a piggy-back is the unseen suffix, never the buffer (a batch's
            # merged refresh round carries one suffix per machine it visits)
            assert alg.update_summary().max_words_per_round <= alg.config.machine_memory

    def test_dropping_the_allocation_stamp_ships_the_buffer(self, monkeypatch):
        """Seeded mutation: hand machines out at ``seen = 0`` again.  Placement
        catches its target up, so the stamp no longer guards correctness — the
        run stays maximal — but a fresh machine's first contact ships the whole
        buffer, and a round carries more than a machine holds."""
        allocate = MatchingFabric._allocate_machine

        def allocate_unstamped(fabric, *, light):
            machine_id = allocate(fabric, light=light)
            fabric._machine_seen_seq[machine_id] = 0
            return machine_id

        monkeypatch.setattr(MatchingFabric, "_allocate_machine", allocate_unstamped)
        alg = run_churn_recipe(*CHURN_RECIPES[0])
        assert alg.update_summary().max_words_per_round > alg.config.machine_memory


#: 9 updates at ``for_graph(6, 6)`` (threshold 3): the re-inserted copy of (2, 5)
#: was placed on vertex 2's top suspended machine, which still owed the buffered
#: ``delete (2, 5)``, and its next replay dropped the live copy
HEAVY_RECIPE = [
    GraphUpdate.insert(2, 4),
    GraphUpdate.insert(1, 2),
    GraphUpdate.insert(2, 3),
    GraphUpdate.insert(2, 5),
    GraphUpdate.delete(2, 5),
    GraphUpdate.insert(2, 5),
    GraphUpdate.delete(2, 3),
    GraphUpdate.insert(1, 3),
    GraphUpdate.delete(2, 4),
]
#: (n, graph seed, stream seed) of the dense-churn run that lost maximality at
#: update 3 766 of 4 000: ``move_vertex_edges`` moved a row onto an existing
#: light machine a few entries behind, and the inserted copy went there too,
#: with no catch-up of that machine before either
STALE_MOVE_TARGET_RUN = (64, 2, 12)


def run_heavy_recipe(backend: str) -> DMPCMaximalMatching:
    alg = DMPCMaximalMatching(DMPCConfig.for_graph(6, 6, backend=backend), check_invariants=True)
    alg.preprocess(DynamicGraph(6))
    alg.apply_sequence(HEAVY_RECIPE)
    return alg


class TestPlacementIsCaughtUp:
    """Every placement reaches its target through ``MatchingFabric._contact``, so records are
    written onto a machine that has just replayed its unseen history suffix, and a buffered
    ``delete`` is never replayed over a copy placed after it."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_heavy_recipe(self, backend):
        alg = run_heavy_recipe(backend)
        assert is_maximal_matching(alg.shadow, alg.matching())

    def test_dense_churn_onto_a_stale_light_machine(self):
        alg = run_churn_recipe(*STALE_MOVE_TARGET_RUN, updates=4000)
        assert is_maximal_matching(alg.shadow, alg.matching())

    def test_an_add_edge_that_skips_the_contact_is_caught(self, monkeypatch):
        """Seeded mutation: an open-coded send, exchange and drain that places the copy without
        catching the target up.  (The ``move-edges`` and ``suspended-edges`` mutations are caught
        in ``test_state_and_config.py``: no matching run found tells them from the fix.)"""
        text = '[(target, handle)] = self._contact("add-edge", [(target_id, (v, w), closed_form_words("add-edge", (v, w)))])'
        replacement = (
            'target = self._machines[target_id]; self.coordinator.machine.send(target_id, "add-edge", (v, w), words=3); '
            'self.cluster.exchange(); target.drain("add-edge"); handle = self._edge_handle(target)'
        )
        monkeypatch.setattr(MatchingFabric, "add_edge_copy", mutated(MatchingFabric.add_edge_copy, text, replacement))
        with pytest.raises(InvariantViolation, match="not maximal"):
            run_heavy_recipe("fast")


class TestCostModel:
    def test_rounds_and_machines_bounded_per_update(self):
        graph = gnm_random_graph(30, 60, seed=13)
        alg = make_algorithm(n=30, m=200)
        alg.preprocess(graph)
        stream = mixed_stream(30, 100, seed=14, insert_probability=0.5, initial=graph)
        alg.apply_sequence(stream)
        summary = alg.update_summary()
        assert summary.num_updates == len(stream)
        assert summary.max_rounds <= 40  # a constant, independent of N
        assert summary.max_active_machines <= 24
        assert summary.max_words_per_round > 0

    def test_rounds_do_not_grow_with_input_size(self):
        max_rounds = []
        for n in (16, 32, 64):
            graph = gnm_random_graph(n, 2 * n, seed=n)
            alg = DMPCMaximalMatching(DMPCConfig.for_graph(n, 4 * n))
            alg.preprocess(graph)
            stream = mixed_stream(n, 60, seed=n + 1, insert_probability=0.5, initial=graph)
            alg.apply_sequence(stream)
            max_rounds.append(alg.update_summary().max_rounds)
        assert max(max_rounds) <= min(max_rounds) + 12

    def test_coordinator_low_entropy(self):
        """The coordinator-centric design shows up as low communication entropy (Section 8)."""
        graph = gnm_random_graph(24, 48, seed=15)
        alg = DMPCMaximalMatching(DMPCConfig.for_graph(24, 150, backend="reference"))  # keeps per-pair detail
        alg.preprocess(graph)
        stream = mixed_stream(24, 60, seed=16, insert_probability=0.5, initial=graph)
        alg.apply_sequence(stream)
        entropy = alg.ledger.communication_entropy(f"{alg.kind}:insert")
        pairs = set()
        for update in alg.ledger.updates_labelled(f"{alg.kind}:"):
            pairs.update(update.pair_words())
        import math

        assert entropy < math.log2(max(2, len(pairs)))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=30))
def test_property_maximality_under_arbitrary_toggles(pairs):
    """Property: the maintained matching is maximal after every toggle sequence."""
    alg = DMPCMaximalMatching(DMPCConfig.for_graph(10, 64))
    alg.preprocess(DynamicGraph(10))
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
    assert is_maximal_matching(alg.shadow, alg.matching())
