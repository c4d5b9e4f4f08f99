"""Unit tests for the deployment configuration and the Section 3 storage fabric."""

from __future__ import annotations

import math
import random

import pytest

from repro.config import DMPCConfig
from repro.dynamic_mpc.state import MatchingFabric, VertexStats
from repro.exceptions import ProtocolError
from repro.graph.generators import gnm_random_graph, star_graph
from repro.graph.validation import greedy_maximal_matching
from repro.mpc.cluster import Cluster
from repro.mpc.coordinator import HistoryEntry
from repro.mpc.layout import EDGE_TABLE_KEY, EdgeTable, FrozenChargeHandle, StatsTable, is_live_record
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
            ("resident_shm_ring_bytes", 4096),
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
        stats = VertexStats(degree=3, mate=7, heavy=False)
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
        fabric.push_stats({1: VertexStats(degree=1)})
        fabric.cluster.ledger.end_update()
        assert set(replies) == {1, 2, 3}
        record = fabric.cluster.ledger.updates[-1]
        assert record.num_rounds == 3  # query (2 rounds) + push (1 round)
        assert record.max_active_machines <= 1 + fabric.config.stats_machine_count

    @staticmethod
    def write_back_every_kind_of_record(store: str) -> int:
        """Write to the stats table a view of the slot itself, a blank
        ``VertexStats``, a view of *another* table's slot and a view of another
        vertex of the same table, through ``push_stats`` or ``store_stats``;
        assert what landed; return how many records were copied."""
        fabric, other = make_fabric(), make_fabric()
        copies = []
        write_record = MatchingFabric._write_record
        fabric._write_record = lambda record, stats: (copies.append(record.vertex), write_record(record, stats))

        def write(updates):
            if store == "push_stats":
                fabric.push_stats(updates)
            else:
                for v, stats in updates.items():
                    fabric.store_stats(v, stats)

        write({2: VertexStats(degree=3, mate=7), 5: VertexStats(degree=1, suspended_machines=["edge4"])})
        assert copies == [2, 5]
        own = fabric.stats_of(2)  # a view: minted per read, never the same object twice
        assert own is not fabric.stats_of(2) and own.vertex == 2
        own.degree = 4
        write({2: own})
        assert copies == [2, 5], "a slot was copied onto itself"
        assert fabric.stats_of(2).degree == 4
        other.store_stats(2, VertexStats(degree=9, mate=1, free_neighbors=2))
        write({2: other.stats_of(2), 3: fabric.stats_of(5)})
        assert copies == [2, 5, 2, 3]
        assert [(s.degree, s.mate, s.free_neighbors) for s in (fabric.stats_of(2), other.stats_of(2))] == [(9, 1, 2)] * 2
        assert (fabric.stats_of(3).degree, fabric.stats_of(3).suspended_machines) == (1, ("edge4",))
        fabric.stats_of(2).degree = 5  # ... and they stay two records
        assert other.stats_of(2).degree == 9
        return len(copies)

    @pytest.mark.parametrize("store", ["push_stats", "store_stats"])
    def test_a_record_is_copied_unless_it_is_the_slot_itself(self, store):
        assert self.write_back_every_kind_of_record(store) == 4

    @pytest.mark.parametrize("store", ["push_stats", "store_stats"])
    @pytest.mark.parametrize("skipped", ["blank VertexStats", "views of any table"])
    def test_skipping_any_other_copy_is_caught(self, monkeypatch, store, skipped):
        """Seeded mutations of ``is_live_record``: one takes a blank ``VertexStats``
        for the slot's own record, one every view whatever its table and slot."""
        mutants = {
            "blank VertexStats": lambda stats, table, v: isinstance(stats, VertexStats) or is_live_record(stats, table, v),
            "views of any table": lambda stats, table, v: not isinstance(stats, VertexStats),
        }
        monkeypatch.setattr("repro.dynamic_mpc.state.is_live_record", mutants[skipped])
        with pytest.raises(AssertionError):
            self.write_back_every_kind_of_record(store)

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
    def test_stats_payloads_are_the_records_payloads_and_their_closed_form(self, seed):
        """``StatsTable.payloads`` reads a view of its own table off the columns and every other
        record through ``as_payload``: the same dicts, and the words ``stats-reply`` /
        ``stats-write`` are charged beyond their tag, which are ``word_size`` of the list."""
        rng = random.Random(seed)
        table, other = StatsTable(8, 6), StatsTable(8, 6)
        machines = ["edge3", "edge-machine-17", "e", "edge-machine-with-a-long-name"]

        def fill(record):
            record.degree, record.mate = rng.randrange(9), rng.choice([None, rng.randrange(40)])
            record.heavy, record.free_neighbors = rng.random() < 0.3, rng.randrange(4)
            record.alive_machine = rng.choice([None, *machines])
            record.suspended_machines = rng.sample(machines, rng.randrange(3))
            return record

        items = []
        for _ in range(rng.randrange(1, 9)):
            vertex = rng.randrange(4, 18)  # below, inside and past the dense block (overflow records)
            kind = rng.choice(["own", "own", "blank", "other", "plain"])
            if kind == "own":
                items.append((vertex, fill(table.ensure(vertex))))
            elif kind == "blank":
                items.append((vertex, None))
            elif kind == "other":
                items.append((vertex, fill(other.ensure(vertex))))
            else:
                items.append((vertex, fill(VertexStats())))
        entries, words = table.payloads(items)
        assert entries == [(v, (record or VertexStats()).as_payload()) for v, record in items]
        assert words == word_size(entries)
        for tag in ("stats-reply", "stats-write"):
            assert word_size(tag) + words == closed_form_words(tag, entries)

    def test_counter_deltas_clamped_at_zero(self):
        fabric = make_fabric()
        fabric.store_stats(4, VertexStats(free_neighbors=1))
        fabric.push_counter_deltas({4: -5})
        assert fabric.stats_of(4).free_neighbors == 0
        fabric.push_counter_deltas({4: +3})
        assert fabric.stats_of(4).free_neighbors == 3
