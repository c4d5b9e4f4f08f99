"""The edge machines' vertex-indexed ``EdgeTable``: charged as the per-key records it replaced, step by step.

Section 3's edge machines hold adjacency rows and status records.  They used
to be one storage key per fact (``("adj", v)`` → ``{w: True}``, ``("status",
w)`` → mate); every statistic and every ``free_words`` decision was made
against that charge, so the table must reproduce it exactly after every
operation, on every backend.
"""

from __future__ import annotations

import random

import pytest
from seeded_mutation import mutated

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching
from repro.dynamic_mpc.state import MatchingFabric
from repro.exceptions import MachineMemoryExceeded
from repro.graph import gnm_random_graph
from repro.graph.graph import DynamicGraph, normalize_edge
from repro.graph.streams import mixed_stream
from repro.graph.validation import greedy_maximal_matching
from repro.mpc.cluster import Cluster
from repro.mpc.layout import EDGE_TABLE_KEY, EdgeTable
from repro.mpc.sizing import word_size

N = 30
#: vertices left out of the initial graph, so their first edge finds no alive machine
LATE = 5


def per_key_words(table: EdgeTable | None) -> int:
    """What the per-key record set ``table`` stands for cost: key and value of every record."""
    if table is None:
        return 0
    return sum(word_size(("adj", v)) + word_size(dict(row)) for v, row in table.adj.items()) + sum(
        word_size(("status", w)) + word_size(mate) for w, mate in table.status.items()
    )


def assert_charged_per_key(fabric: MatchingFabric, when: str) -> None:
    for machine_id in fabric.edge_pool:
        machine = fabric.cluster.machine(machine_id)
        handle = machine.load(EDGE_TABLE_KEY)
        table = None if handle is None else handle.table
        expected = per_key_words(table)
        assert machine.used_words == expected, f"{when}: {machine_id} charged {machine.used_words}, per-key {expected}"
        if table is not None:
            assert table.words == expected, f"{when}: {machine_id} counts {table.words}, per-key {expected}"
            assert expected, f"{when}: {machine_id} stores an empty table"


def make_fabric(backend: str) -> MatchingFabric:
    config = DMPCConfig.for_graph(N, N, backend=backend)
    return MatchingFabric(Cluster(config), config)


def drive(fabric: MatchingFabric, seed: int, steps: int = 160) -> list[str]:
    """A random sequence of place / add copy / remove copy / move / fetch / replay / release,
    checking every edge machine's charge after each step; returns the machines released."""
    rng = random.Random(seed)
    released: list[str] = []
    release = fabric._release_machine
    fabric._release_machine = lambda machine_id: (released.append(machine_id), release(machine_id))[1]
    graph = DynamicGraph()
    for v in range(N - LATE):
        graph.add_vertex(v)
    for w in range(1, N - LATE):  # a hub heavy enough to own an alive machine and a suspended stack
        graph.insert_edge(0, w)
    for _ in range(15):
        u, w = rng.sample(range(1, N - LATE), 2)
        if not graph.has_edge(u, w):
            graph.insert_edge(u, w)
    matching = greedy_maximal_matching(graph)
    fabric.load_initial_graph(graph, matching)
    assert_charged_per_key(fabric, "place")
    edges = {normalize_edge(u, w) for u, w in graph.edges()}
    mate = {}
    for u, w in matching:
        mate[u], mate[w] = w, u

    for step in range(steps):
        op = rng.choice(["add", "add", "remove", "remove", "match", "replay", "move", "fetch"])
        if op == "add":
            u = 0 if rng.random() < 0.3 else rng.randrange(N)
            w = rng.randrange(N)
            if u == w or normalize_edge(u, w) in edges:
                continue
            edges.add(normalize_edge(u, w))
            fabric.record("insert", u, w)
            for v, x in ((u, w), (w, u)):
                with fabric.mutate_stats(v) as sv:
                    sv.degree += 1
                    fabric.add_edge_copy(v, x, sv, neighbor_mate=mate.get(x))
        elif op == "remove":
            hub_edges = sorted(e for e in edges if e[0] == 0)
            pool = hub_edges if hub_edges and rng.random() < 0.5 else sorted(edges)
            if not pool:
                continue
            u, w = rng.choice(pool)
            edges.discard((u, w))
            fabric.record("delete", u, w)
            for v, x in ((u, w), (w, u)):
                with fabric.mutate_stats(v) as sv:
                    sv.degree -= 1
                    if rng.random() < 0.5:  # else the copy waits for a replay
                        fabric.remove_edge_copy(v, x, sv)
            if mate.get(u) == w:
                del mate[u], mate[w]
                fabric.record("unmatch", u, w)
        elif op == "match":
            free = [(u, w) for u, w in sorted(edges) if u not in mate and w not in mate]
            if not free:
                continue
            u, w = rng.choice(free)
            mate[u], mate[w] = w, u
            fabric.record("match", u, w)
        elif op == "replay":
            fabric.refresh_machine(rng.choice(fabric._allocated))
        elif op == "move":
            v = 0 if rng.random() < 0.2 else rng.randrange(N)
            with fabric.mutate_stats(v) as sv:
                if sv.alive_machine is None or len(fabric._unallocated) < 4:
                    continue
                if sv.degree >= fabric.threshold or rng.random() < 0.3:
                    target = fabric._allocate_machine(light=sv.degree < fabric.threshold)
                else:
                    target = fabric._light_machine_with_room(4 * sv.degree + 16)
                fabric.move_vertex_edges(v, sv, target)
        else:
            with fabric.mutate_stats(0) as s0:
                fabric.fetch_suspended(0, s0)
        assert_charged_per_key(fabric, f"step {step} ({op})")
    return released


@pytest.mark.parametrize("backend", ["fast", "reference"])
@pytest.mark.parametrize("seed", range(3))
def test_charge_equals_the_per_key_records_after_every_operation(backend, seed):
    assert drive(make_fabric(backend), seed), "the drive releases a machine"


#: every counter adjustment of EdgeTable, as (method, statement)
ADJUSTMENTS = [
    ("ensure_row", "self.words += _ROW_WORDS"),
    ("set_row", "self.words += _NEIGHBOR_WORDS * len(row) - (_NEIGHBOR_WORDS * len(old) if old is not None else -_ROW_WORDS)"),
    ("pop_row", "self.words -= _ROW_WORDS + _NEIGHBOR_WORDS * len(row)"),
    ("add_edge", "self.words += _NEIGHBOR_WORDS"),
    ("discard_edge", "self.words -= _NEIGHBOR_WORDS"),
    ("place_status", "self.words += _STATUS_WORDS"),
    ("replay", "self.words -= _NEIGHBOR_WORDS * dropped"),
]


@pytest.mark.parametrize(("method", "statement"), ADJUSTMENTS, ids=[f"{m}:{s.split()[1]}{s.split()[-1]}" for m, s in ADJUSTMENTS])
def test_dropping_any_counter_adjustment_is_caught(monkeypatch, method, statement):
    monkeypatch.setattr(EdgeTable, method, mutated(getattr(EdgeTable, method), statement, "pass"))
    with pytest.raises(AssertionError, match="charged|counts|empty table"):
        for seed in range(3):
            drive(make_fabric("fast"), seed)


@pytest.mark.parametrize("backend", ["fast", "reference"])
def test_the_algorithm_charges_per_key_at_every_boundary(backend):
    """Maximal matching with a heavy hub, through ``apply``: every edge machine, every update."""
    n = 40
    graph = gnm_random_graph(n, 50, seed=7)
    for w in range(1, n):
        if not graph.has_edge(0, w):
            graph.insert_edge(0, w)
    algorithm = DMPCMaximalMatching(DMPCConfig.for_graph(n, graph.num_edges, backend=backend))
    algorithm.preprocess(graph.copy())
    assert algorithm.fabric.stats_of(0).suspended_machines
    assert_charged_per_key(algorithm.fabric, "preprocess")
    for i, update in enumerate(mixed_stream(n, 400, seed=8, initial=graph)):
        algorithm.apply(update)
        assert_charged_per_key(algorithm.fabric, f"update {i}")
    algorithm.verify_invariants()


class TestStrictMemory:
    """A tight ``strict_memory`` run overflows on the same update and machine as the per-key records did.

    The per-key layout raised at the record store that crossed the capacity;
    the table raises at its commit, once the operation's records are in.
    Each machine's records only grow within one operation, so the first
    overflowing store and the commit name the same machine on the same
    update.  Pinned from the per-key layout: ``(index of the update, or
    "preprocess", machine)``.  The overflowing machine's table already holds
    the operation's records when the raise comes, so it is undefined after
    it; the run is over, and nothing here reads it.
    """

    CASES = {
        # n, m, seed, memory slack: on an add-edge copy in the stream
        (48, 96, 3, 3.5): (200, "edge76"),
        (32, 96, 0, 3.5): (28, "edge32"),
        # while the initial graph is placed
        (32, 96, 2, 3.75): ("preprocess", "edge0"),
    }

    @pytest.mark.parametrize("backend", ["reference", "fast", "resident"])
    @pytest.mark.parametrize("case", sorted(CASES, key=str))
    def test_overflow_is_raised_on_the_pinned_update_and_machine(self, case, backend):
        n, m, seed, slack = case
        config = DMPCConfig.for_graph(n, 4 * m, memory_slack=slack, strict_memory=True, backend=backend)
        algorithm = DMPCMaximalMatching(config)
        graph = gnm_random_graph(n, m, seed=seed)
        at: int | str = "preprocess"
        with pytest.raises(MachineMemoryExceeded) as raised:
            algorithm.preprocess(graph.copy())
            for at, update in enumerate(mixed_stream(n, 600, seed=seed + 10, initial=graph)):
                algorithm.apply(update)
        assert (at, raised.value.machine_id) == self.CASES[case]
        assert raised.value.used + raised.value.requested > raised.value.capacity


def test_an_empty_table_holds_no_key():
    fabric = make_fabric("fast")
    machine_id = fabric._allocate_machine(light=True)
    machine = fabric.cluster.machine(machine_id)
    stats = fabric.stats_of(3)  # unstored: no alive machine yet
    fabric._ensure_alive_machine(3, stats)
    table = machine.load(EDGE_TABLE_KEY).table
    assert stats.alive_machine == machine_id and table.adj == {3: {}}
    assert machine.used_words == per_key_words(table) == 4  # the empty row's key and framing
    fabric.move_vertex_edges(3, stats, fabric._allocate_machine(light=True))
    assert len(machine.storage) == 0 and machine.used_words == 0
    fabric.record("delete", 3, 4)
    fabric.refresh_machine(machine_id)  # nothing to replay over: still no key
    assert len(machine.storage) == 0


def test_a_replayed_status_is_rewritten_in_place():
    fabric = make_fabric("fast")
    machine_id = fabric._allocate_machine(light=True)
    machine = fabric.cluster.machine(machine_id)
    stats = fabric.stats_of(5)
    fabric._ensure_alive_machine(5, stats)
    fabric.record("insert", 5, 6)
    fabric.add_edge_copy(5, 6, stats)
    handle = machine.load(EDGE_TABLE_KEY)
    assert handle.table.status == {6: None}
    fabric.record("match", 6, 9)
    fabric.refresh_machine(machine_id)
    # a match rewrites the record that is here and places none: the charge did not move,
    # so the committed handle is the same object
    assert machine.load(EDGE_TABLE_KEY) is handle and handle.table.status == {6: 9}
    fabric.record("delete", 5, 6)
    fabric.refresh_machine(machine_id)
    # the row lost a copy: a fresh handle carries the new charge
    assert machine.load(EDGE_TABLE_KEY) is not handle and machine.used_words == per_key_words(handle.table)
