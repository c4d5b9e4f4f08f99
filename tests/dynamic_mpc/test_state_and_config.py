"""Unit tests for the deployment configuration and the Section 3 storage fabric."""

from __future__ import annotations

import math
import random

import pytest
from seeded_mutation import mutated

from repro.config import DMPCConfig
from repro.dynamic_mpc.state import STATS_KEY, MatchingFabric
from repro.exceptions import ProtocolError
from repro.graph.generators import gnm_random_graph, star_graph
from repro.graph.validation import greedy_maximal_matching
from repro.mpc.cluster import Cluster
from repro.mpc.coordinator import HistoryEntry
from repro.mpc.layout import EDGE_TABLE_KEY, EdgeTable, FrozenChargeHandle, StatsTable
from repro.mpc.machine import Machine
from repro.mpc.sizing import closed_form_words, word_size


class TestDMPCConfig:
    def test_basic_sizing(self):
        config = DMPCConfig(capacity_n=100, capacity_m=300)
        assert config.capacity_N == 400
        assert config.sqrt_N == math.isqrt(399) + 1
        assert config.machine_memory >= config.sqrt_N
        assert config.num_worker_machines >= 2
        assert config.heavy_threshold == max(2, math.isqrt(600))

    def test_worker_count_scales_like_sqrt_N(self):
        small = DMPCConfig(capacity_n=64, capacity_m=128)
        large = DMPCConfig(capacity_n=1024, capacity_m=2048)
        ratio = large.num_worker_machines / small.num_worker_machines
        size_ratio = math.sqrt(large.capacity_N / small.capacity_N)
        assert 0.5 * size_ratio <= ratio <= 2.5 * size_ratio

    def test_validation(self):
        with pytest.raises(ValueError):
            DMPCConfig(capacity_n=0, capacity_m=1)
        with pytest.raises(ValueError):
            DMPCConfig(capacity_n=1, capacity_m=-1)
        with pytest.raises(ValueError):
            DMPCConfig(capacity_n=1, capacity_m=1, memory_slack=0)

    def test_for_graph_constructor(self):
        config = DMPCConfig.for_graph(10, 20)
        assert config.capacity_n == 10
        assert config.capacity_m == 20
        assert not config.strict_memory

    @pytest.mark.parametrize(
        "field, value",
        [
            ("memory_slack", 4.0),
            ("strict_memory", True),
            ("backend", "fast"),
            ("shard_count", 2),
            ("resident_slots", 1),
        ],
    )
    def test_for_graph_forwards_each_optional_field(self, field, value):
        assert DMPCConfig.for_graph(10, 20, **{field: value}) == DMPCConfig(capacity_n=10, capacity_m=20, **{field: value})

    @pytest.mark.parametrize("value", ["auto", "off", 2])
    def test_fuse_rounds_is_not_a_field(self, value):
        """Spans always fuse maximally; there is no block-length knob to set."""
        with pytest.raises(TypeError, match="fuse_rounds"):
            DMPCConfig(capacity_n=4, capacity_m=4, fuse_rounds=value)
        with pytest.raises(TypeError, match="fuse_rounds"):
            DMPCConfig.for_graph(4, 4, fuse_rounds=value)


def replay_reference(machine, entries) -> None:
    """The replay as one pair loop over per-key records (``("adj", v)`` → ``{w: True}``, ``("status", w)`` →
    mate) on a plain ``Machine`` — the oracle for ``EdgeTable.replay`` behind ``MatchingFabric._contact``."""
    for entry in entries:
        for a, b in ((entry.u, entry.v), (entry.v, entry.u)):
            if entry.kind == "delete":
                adj = machine.load(("adj", a))
                if adj is not None and b in adj:
                    machine.store(("adj", a), {w: True for w in adj if w != b})
            elif entry.kind in ("match", "unmatch") and ("status", a) in machine:
                machine.store(("status", a), b if entry.kind == "match" else None)


def edge_table(machine) -> EdgeTable | None:
    handle = machine.load(EDGE_TABLE_KEY)
    return None if handle is None else handle.table


def per_key_records(table: EdgeTable | None) -> dict:
    """The per-key record set ``table`` stands for."""
    if table is None:
        return {}
    records: dict = {("adj", v): dict(row) for v, row in table.adj.items()}
    records.update({("status", w): mate for w, mate in table.status.items()})
    return records


def place_table(machine, records: dict) -> None:
    """Commit an edge table holding the per-key ``records`` on ``machine``."""
    table = EdgeTable()
    for (kind, vertex), value in records.items():
        if kind == "adj":
            table.set_row(vertex, dict(value))
        else:
            table.place_status(vertex, value)
    MatchingFabric._commit_edges(machine, FrozenChargeHandle(table))


def make_fabric(n: int = 16, m: int = 80) -> MatchingFabric:
    config = DMPCConfig.for_graph(n, m)
    cluster = Cluster(config)
    return MatchingFabric(cluster, config)


class TestMatchingFabric:
    def test_stats_roundtrip(self):
        fabric = make_fabric()
        stats = fabric.stats_of(2)
        stats.degree, stats.mate = 3, 7
        fabric.store_stats(2, stats)
        loaded = fabric.stats_of(2)
        assert loaded.degree == 3
        assert loaded.mate == 7
        assert fabric.mate_of(2) == 7
        assert not fabric.is_heavy(2)

    def test_query_and_push_stats_use_constant_machines(self):
        fabric = make_fabric()
        fabric.cluster.ledger.begin_update("probe")
        replies = fabric.query_stats([1, 2, 3])
        replies[1].degree = 1
        fabric.push_stats({1: replies[1]})
        fabric.cluster.ledger.end_update()
        assert set(replies) == {1, 2, 3}
        record = fabric.cluster.ledger.updates[-1]
        assert record.num_rounds == 3  # query (2 rounds) + push (1 round)
        assert record.max_active_machines <= 1 + fabric.config.stats_machine_count

    @pytest.mark.parametrize("store", ["push_stats", "store_stats"])
    def test_only_the_vertexs_own_view_is_committed(self, store):
        """A view of another vertex's slot, of another fabric's slot, or any other object
        is refused, naming the vertex, and occupies nothing; the own view is committed."""
        fabric, other = make_fabric(), make_fabric()

        def commit(v, stats):
            if store == "push_stats":
                fabric.push_stats({v: stats})
            else:
                fabric.store_stats(v, stats)

        table = fabric.cluster.machine(fabric.partition.machine_for(2)).load(STATS_KEY).table
        for foreign in (fabric.stats_of(3), other.stats_of(2), object()):
            with pytest.raises(ProtocolError, match="vertex 2: only a view of its own statistics slot"):
                commit(2, foreign)
            assert not table.has(2)
        own = fabric.stats_of(2)
        own.degree = 4
        commit(2, own)
        assert table.has(2) and fabric.stats_of(2).degree == 4
        assert other.stats_of(2).degree == 0

    def test_load_initial_graph_places_all_edges(self):
        fabric = make_fabric(n=12, m=60)
        graph = gnm_random_graph(12, 30, seed=4)
        matching = greedy_maximal_matching(graph)
        fabric.load_initial_graph(graph, matching)
        for v in graph.vertices:
            assert set(fabric.all_neighbors(v)) == graph.neighbors(v)
        assert fabric.matching() == matching

    def test_heavy_vertex_split_into_alive_and_suspended(self):
        n = 30
        fabric = make_fabric(n=n, m=n)
        graph = star_graph(n)  # centre degree n-1 >> sqrt(2m)
        fabric.load_initial_graph(graph, {(0, 1)})
        stats = fabric.stats_of(0)
        assert stats.heavy
        assert stats.alive_machine is not None
        assert len(fabric.alive_neighbors(0)) <= fabric.threshold
        assert len(fabric.suspended_neighbors(0)) == (n - 1) - len(fabric.alive_neighbors(0))

    def test_update_vertex_free_neighbor_query_respects_history(self):
        fabric = make_fabric(n=8, m=40)
        graph = gnm_random_graph(8, 12, seed=5)
        fabric.load_initial_graph(graph, set())
        vertex = next(v for v in graph.vertices if graph.degree(v) > 0)
        neighbor = sorted(graph.neighbors(vertex))[0]
        stats = fabric.stats_of(vertex)
        reply = fabric.update_vertex(vertex, stats, query="free-neighbor")
        assert reply["free"] is not None
        # After recording a match for that neighbour, the machine must stop
        # reporting it as free (the history refresh carries the change).
        other = fabric.stats_of(neighbor)
        other.mate = 99
        fabric.record("match", neighbor, 99)
        reply = fabric.update_vertex(vertex, stats, query="free-neighbor", exclude=())
        assert reply["free"] != neighbor or reply["free"] is None or graph.degree(vertex) > 1

    def test_suspended_scan_takes_the_first_registered_machines_candidate(self):
        """Each suspended machine replies its own free neighbour; the coordinator drains the
        replies in sender registration order and takes the first, whatever the stack order."""
        fabric = make_fabric()
        first, second = fabric._allocate_machine(light=False), fabric._allocate_machine(light=False)
        assert fabric.cluster.machine(first).index < fabric.cluster.machine(second).index
        fabric._store_adjacency(first, 0, [5], {})
        fabric._store_adjacency(second, 0, [3], {})
        stats = fabric.stats_of(0)
        stats.suspended_machines = [second, first]  # ``first`` on top, ``second`` contacted first
        fabric.store_stats(0, stats)
        ledger = fabric.cluster.ledger
        with fabric.cluster.update("scan"):
            assert fabric.scan_suspended_for_free(0, stats) == 5
        [record] = ledger.updates_labelled("scan")
        assert record.num_rounds == 2

    def test_history_round_robin_refresh_bounds_staleness(self):
        fabric = make_fabric(n=10, m=40)
        graph = gnm_random_graph(10, 15, seed=6)
        fabric.load_initial_graph(graph, set())
        assert len(fabric._allocated) >= 2
        history = fabric.coordinator.history
        for step in range(len(fabric._allocated) + 1):
            selected = fabric._allocated[fabric._refresh_pointer % len(fabric._allocated)]
            seen_before = dict(fabric._machine_seen_seq)
            fabric.record("insert", 0, 9)
            fabric.round_robin_refresh()
            # the machine the pointer selected catches up to the history head ...
            assert fabric._machine_seen_seq[selected] == history.last_seq == step + 1
            # ... and nobody else is stamped: every other machine keeps its previous seen
            for machine_id in fabric._allocated:
                if machine_id != selected:
                    assert fabric._machine_seen_seq[machine_id] == seen_before[machine_id]
        # one full cycle later no machine is staler than the cycle is long
        assert all(history.last_seq - fabric._machine_seen_seq[mid] < len(fabric._allocated) for mid in fabric._allocated)

    def test_just_allocated_machine_has_nothing_pending(self):
        """An empty machine is vacuously current: however much was recorded
        before it was handed out, its first piggy-back carries none of it."""
        fabric = make_fabric()
        for i in range(5000):
            fabric.record("delete" if i % 2 else "insert", i % 7, 7 + i % 9)
        history = fabric.coordinator.history
        assert len(history) == history.capacity < 5000
        machine_id = fabric._allocate_machine(light=True)
        assert fabric._machine_seen_seq[machine_id] == history.last_seq == 5000
        assert fabric._pending_history(machine_id) == ([], 1)
        fabric.record("match", 1, 2)
        entries, words = fabric._pending_history(machine_id)
        assert [(e.seq, e.kind) for e in entries] == [(5001, "match")]
        assert words == 6

    def test_released_machine_is_empty_and_stamped_again(self):
        n = 30
        fabric = make_fabric(n=n, m=n)
        fabric.load_initial_graph(star_graph(n), {(0, 1)})
        stats = fabric.stats_of(0)
        top_id = stats.suspended_machines[-1]
        top = fabric.cluster.machine(top_id)
        table = edge_table(top)
        assert table.row(0) and table.status  # the suspended edges and their status records
        # drain the alive set, then refill it from the stack until the top machine is released
        alive = fabric.cluster.machine(stats.alive_machine)
        while top_id in stats.suspended_machines:
            handle = alive.load(EDGE_TABLE_KEY)
            handle.table.set_row(0, {})
            MatchingFabric._commit_edges(alive, handle)
            fabric.record("delete", 0, 1)
            fabric.fetch_suspended(0, stats)
        assert len(top.storage) == 0 and top.used_words == 0
        assert top_id not in fabric._allocated and fabric._unallocated[-1] == top_id
        released_at = fabric._machine_seen_seq[top_id]
        fabric.record("unmatch", 0, 1)
        fabric.record("delete", 0, 2)
        assert fabric._allocate_machine(light=False) == top_id
        assert fabric._machine_seen_seq[top_id] == fabric.coordinator.history.last_seq > released_at
        assert fabric._pending_history(top_id) == ([], 1)

    def test_moving_off_an_exclusive_machine_releases_it(self):
        """A vertex that was heavy keeps its exclusive machine while light; when
        it crosses the threshold again its edges move to a new exclusive
        machine and the old one must go back to the pool, empty."""
        n = 30
        fabric = make_fabric(n=n, m=n)
        fabric.load_initial_graph(star_graph(n), {(0, 1)})
        stats = fabric.stats_of(0)
        old_id = stats.alive_machine
        assert old_id not in fabric._light_machines
        allocated_before = len(fabric._allocated)
        new_id = fabric._allocate_machine(light=False)
        fabric.move_vertex_edges(0, stats, new_id)
        assert stats.alive_machine == new_id
        assert len(fabric.cluster.machine(old_id).storage) == 0
        assert old_id not in fabric._allocated and fabric._unallocated[-1] == old_id
        assert len(fabric._allocated) == allocated_before  # one handed out, one returned
        assert len(fabric.alive_neighbors(0)) == fabric.threshold
        # a shared light machine stays allocated when one of its vertices moves away
        light = make_fabric(n=12, m=60)
        light.load_initial_graph(gnm_random_graph(12, 30, seed=4), set())
        v = 0
        light_stats = light.stats_of(v)
        shared_id = light_stats.alive_machine
        assert shared_id in light._light_machines
        light.move_vertex_edges(v, light_stats, light._allocate_machine(light=True))
        assert shared_id in light._allocated and v not in edge_table(light.cluster.machine(shared_id)).adj

    def test_moved_rows_land_on_a_caught_up_target(self):
        """``move_vertex_edges`` onto an existing light machine that owes the buffered ``delete``
        of an edge re-inserted since: the ``move-edges`` contact replays it before the rows are
        written, so it never reaches the live copy they carry."""
        fabric = make_fabric(n=12, m=60)
        fabric.load_initial_graph(gnm_random_graph(12, 30, seed=4), set())
        v = 0
        stats = fabric.stats_of(v)
        w = min(fabric.alive_neighbors(v))
        target_id = fabric._allocate_machine(light=True)
        fabric.record("delete", v, w)  # the target owes this entry from here on
        fabric.remove_edge_copy(v, w, stats)
        fabric.record("insert", v, w)
        fabric.add_edge_copy(v, w, stats)
        fabric.move_vertex_edges(v, stats, target_id)
        fabric.refresh_machine(target_id)
        assert w in fabric.alive_neighbors(v), "a replayed delete dropped a moved copy"

    def test_fetched_rows_land_on_a_caught_up_alive_machine(self):
        """``fetch_suspended`` onto an alive machine that owes the buffered ``delete`` of an edge
        re-inserted onto the stack since.  The matching algorithm contacts the alive machine in
        the round before it fetches, so only a direct call reaches a stale one."""
        n = 30
        fabric = make_fabric(n=n, m=n)
        fabric.load_initial_graph(star_graph(n), {(0, 1)})
        stats = fabric.stats_of(0)
        w = min(edge_table(fabric.cluster.machine(stats.suspended_machines[-1])).row(0))
        fabric.record("delete", 0, w)  # the alive machine owes this entry from here on
        fabric.refresh_machine(stats.suspended_machines[-1])
        fabric.record("insert", 0, w)
        fabric.add_edge_copy(0, w, stats)  # the alive set is full: onto the stack
        u = min(fabric.alive_neighbors(0))
        fabric.record("delete", 0, u)
        fabric.remove_edge_copy(0, u, stats)
        fabric.fetch_suspended(0, stats)  # one slot free: fetches w, the smallest on the stack
        fabric.refresh_machine(stats.alive_machine)
        assert w in fabric.alive_neighbors(0), "a replayed delete dropped a fetched copy"

    @pytest.mark.parametrize(
        ("method", "text", "replacement", "scenario"),
        [
            (
                "move_vertex_edges",
                '[(target, target_handle)] = self._contact("move-edges", [(target_id, moved, 2 * len(rows) + 4)], sender=source)',
                'target = self._machines[target_id]; source.send(target_id, "move-edges", moved, words=2 * len(rows) + 4); '
                'self.cluster.exchange(); target.drain("move-edges"); target_handle = self._edge_handle(target)',
                "test_moved_rows_land_on_a_caught_up_target",
            ),
            (
                "fetch_suspended",
                '[(alive, alive_handle)] = self._contact("suspended-edges", [(alive_id, moved, 2 * len(rows) + 4)], sender=top)',
                'alive = self._machines[alive_id]; top.send(alive_id, "suspended-edges", moved, words=2 * len(rows) + 4); '
                'self.cluster.exchange(); alive.drain("suspended-edges"); alive_handle = self._edge_handle(alive)',
                "test_fetched_rows_land_on_a_caught_up_alive_machine",
            ),
        ],
        ids=["move-edges", "suspended-edges"],
    )
    def test_a_placement_that_skips_the_contact_is_caught(self, monkeypatch, method, text, replacement, scenario):
        """Seeded mutations: an open-coded send, exchange and drain that writes the rows without
        catching the target up (``add-edge``'s is caught by a matching recipe, in
        ``test_maximal_matching.py``)."""
        monkeypatch.setattr(MatchingFabric, method, mutated(getattr(MatchingFabric, method), text, replacement))
        with pytest.raises(AssertionError, match="a replayed delete dropped"):
            getattr(self, scenario)()

    def test_allocating_a_non_empty_machine_is_refused(self):
        fabric = make_fabric()
        next_id = fabric._unallocated[-1]
        place_table(fabric.cluster.machine(next_id), {("status", 3): None})
        with pytest.raises(ProtocolError, match="still holds records"):
            fabric._allocate_machine(light=True)
        # refused, not half-done: the machine is still the next one to hand out
        assert fabric._unallocated[-1] == next_id and next_id not in fabric._allocated
        fabric.cluster.machine(next_id).delete(EDGE_TABLE_KEY)
        assert fabric._allocate_machine(light=True) == next_id

    def test_reader_staler_than_the_buffer_is_refused(self):
        fabric = make_fabric()
        machine_id = fabric._allocate_machine(light=True)
        history = fabric.coordinator.history
        for _ in range(history.capacity):
            fabric.record("insert", 0, 1)
        entries, words = fabric._pending_history(machine_id)  # exactly the buffer: still whole
        assert len(entries) == history.capacity and words == 6 * history.capacity
        fabric.record("delete", 0, 1)
        assert history.evicted_since(fabric._machine_seen_seq[machine_id]) == 1
        assert len(history.entries_since(0)) == history.capacity  # the pinned contract: truncated, silently
        with pytest.raises(ProtocolError, match="missed 1 evicted"):
            fabric._pending_history(machine_id)
        with pytest.raises(ProtocolError, match="missed 1 evicted"):
            fabric.refresh_machine(machine_id)

    @pytest.mark.parametrize("seed", range(5))
    def test_replay_matches_the_pair_loop_reference(self, seed):
        rng = random.Random(seed)
        records = {("adj", v): {w: True for w in rng.sample(range(12), 4) if w != v} for v in rng.sample(range(12), 5)}
        records.update({("status", w): rng.choice([None, rng.randrange(12)]) for w in rng.sample(range(12), 7)})
        fabric = make_fabric()
        machine_id = fabric._allocate_machine(light=True)
        ours = fabric.cluster.machine(machine_id)
        reference = Machine("reference", ours.capacity)
        place_table(ours, records)
        for key, value in records.items():  # shared values are safe: the oracle copies before it writes
            reference.store(key, value)
        assert ours.used_words == reference.used_words
        entries = [
            HistoryEntry(seq, rng.choice(["insert", "delete", "match", "unmatch"]), *rng.sample(range(12), 2))
            for seq in range(1, 301)
        ]
        for entry in entries:
            fabric.record(entry.kind, entry.u, entry.v)
        fabric.refresh_machine(machine_id)  # the contact ships and replays all 300
        assert fabric.cluster.ledger.updates[-1].rounds[-1].total_words == 6 * len(entries)
        replay_reference(reference, entries)
        assert per_key_records(edge_table(ours)) == dict(reference.items())
        assert ours.used_words == reference.used_words

    @pytest.mark.parametrize("seed", range(8))
    def test_stats_payloads_are_the_slots_and_their_closed_form(self, seed):
        """``StatsTable.payloads`` reads each slot, written or blank, off the columns: the wire
        dict of its record, and the words ``stats-reply`` / ``stats-write`` are charged beyond
        their tag, which are ``word_size`` of the list."""
        rng = random.Random(seed)
        table = StatsTable(8, 6)
        machines = ["edge3", "edge-machine-17", "e", "edge-machine-with-a-long-name"]
        for vertex in rng.sample(range(8, 14), rng.randrange(7)):  # the rest stay blank
            record = table.view(vertex)
            record.degree, record.mate = rng.randrange(9), rng.choice([None, rng.randrange(40)])
            record.heavy, record.free_neighbors = rng.random() < 0.3, rng.randrange(4)
            record.alive_machine = rng.choice([None, *machines])
            record.suspended_machines = rng.sample(machines, rng.randrange(3))
            if rng.random() < 0.5:
                table.occupy(vertex, record)  # occupancy is not part of the payload
        vertices = [rng.randrange(8, 14) for _ in range(rng.randrange(1, 9))]  # the dense block
        entries, words = table.payloads(vertices)

        def wire(record):
            return {
                "degree": record.degree,
                "mate": -1 if record.mate is None else record.mate,
                "heavy": record.heavy,
                "alive": record.alive_machine or "",
                "suspended": list(record.suspended_machines),
                "free_neighbors": record.free_neighbors,
            }

        assert entries == [(v, wire(table.view(v))) for v in vertices]
        assert words == word_size(entries)
        for tag in ("stats-reply", "stats-write"):
            assert word_size(tag) + words == closed_form_words(tag, entries)

    def test_counter_deltas_clamped_at_zero(self):
        fabric = make_fabric()
        with fabric.mutate_stats(4) as stats:
            stats.free_neighbors = 1
        fabric.push_counter_deltas({4: -5})
        assert fabric.stats_of(4).free_neighbors == 0
        fabric.push_counter_deltas({4: +3})
        assert fabric.stats_of(4).free_neighbors == 3
