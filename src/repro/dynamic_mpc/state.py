"""Machine layout and bookkeeping shared by the Section 3 / 4 matching algorithms.

The *matching fabric* realises the storage scheme of Section 3:

* a **coordinator** machine ``M_C`` through which every update flows,
  holding the update-history ``H`` (the last ``O(sqrt N)`` changes to the
  input and to the matching), the vertex-range directory and its view of
  every machine's free memory;
* ``O(n / sqrt N)`` **statistics machines**, each storing, for a contiguous
  range of vertex IDs: degree, mate, heavy flag, the machine holding the
  vertex's *alive* edges, the stack of machines holding its *suspended*
  edges, and (for Section 4) the free-neighbour counter;
* a pool of **edge machines**: *light* machines each packing the full
  adjacency lists of many light vertices, and *heavy* machines each
  dedicated to one heavy vertex (one holding its ``sqrt(2m)`` alive edges
  and the rest its suspended edges, managed as a stack).  Each edge
  machine keeps its records in one :class:`~repro.mpc.layout.EdgeTable`
  indexed by vertex — adjacency rows ``v -> {w: True}`` and the status
  (mate) of every vertex a row names — committed through a frozen-charge
  handle and charged the words its per-key records were.

Edge machines learn about updates lazily: whenever the coordinator contacts
a machine it piggy-backs the history entries the machine has not yet seen
(replayed over the machine's table in place),
and after every update one additional machine is refreshed round-robin, so
no machine is ever more than ``O(sqrt N)`` updates stale — which is what
bounds the history size.  Every contact is one primitive, ``_contact``: it
ships each machine its unseen suffix, sized by its length, and replays it
there; an update pays for the entries it ships, not for the buffer, and the
round-robin cycles over a maintained list.  Without a message it is the
sender-side catch-up of ``move_vertex_edges`` / ``fetch_suspended``, whose
replayed suffix no message is charged for (ROADMAP item 1(a)).

A machine is shipped, and replays, only what it can be missing.  Two
events stamp a machine current (``seen = last_seq``): ``_contact``, after
it has applied the suffix it was sent, and ``_allocate_machine``, when the
machine is handed out.  The second stamp is vacuously true: a machine is
only handed out empty (``_release_machine`` clears an exclusive machine when
its vertex's last edges leave it), so no buffered entry can apply to it, and
everything placed on it afterwards (``add_edge_copy``, ``move_vertex_edges``,
``fetch_suspended``) is placed current.  Without it the first contact would
carry the whole buffer in one message — ``O(capacity)`` words instead of
``O(sqrt N)`` — and replay it *over* those current records, where an old
``delete`` drops the live copy of an edge re-inserted since.  A reader that
falls behind the bounded buffer cannot be caught up at all, so
``_pending_history`` raises rather than ship a suffix with a gap.  (Not
covered: records moved onto an *existing* light machine that is a few
entries behind are replayed over in the same way — ROADMAP item 1.)
``_ensure_alive_machine`` also places onto an existing machine without a
catch-up, but only an empty row: replay never inserts (it drops copies and
rewrites statuses that are there), so no owed entry can act on it.

All cross-machine data movement uses messages on the cluster, so the
metrics ledger observes the true round / machine / communication costs.
"""

from __future__ import annotations

from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.config import DMPCConfig
from repro.exceptions import ProtocolError
from repro.graph.graph import DynamicGraph, normalize_edge
from repro.mpc.cluster import Cluster
from repro.mpc.coordinator import Coordinator, HistoryEntry, UpdateHistory
from repro.mpc.layout import EDGE_TABLE_KEY, EdgeTable, FrozenChargeHandle, StatsTable, is_live_record
from repro.mpc.machine import Machine
from repro.mpc.partition import RangePartition
from repro.mpc.sizing import closed_form_words, register_closed_form, string_words, word_size

__all__ = ["VertexStats", "MatchingFabric"]

#: the single machine-store key each statistics machine keeps its flat
#: struct-of-arrays vertex table under
STATS_KEY = "stats"


# Closed forms for every fabric message the protocol previously sized by
# recursing into the payload.  Each form is pure arithmetic on the payload's
# *shape* and is pinned equal to ``word_size`` on randomized payloads in
# ``tests/dynamic_mpc``; the messages themselves are unchanged, so round
# records stay bit-identical whichever path sized the send.
def _stats_entries_words(entries) -> int:
    # [(v, stats.as_payload())]: each payload dict costs 14 words of fixed
    # keys/values plus the alive-machine string and the suspended stack;
    # the (v, dict) tuple adds 2 more.
    total = 1
    for _v, payload in entries:
        total += 16 + string_words(payload["alive"] or "")
        for name in payload["suspended"]:
            total += string_words(name)
    return total


#: the tags' own words, which ``query_stats`` / ``push_stats`` add to the payload
#: words :meth:`StatsTable.payloads` sums in the pass that builds the payload
_STATS_REPLY_TAG_WORDS = word_size("stats-reply")
_STATS_WRITE_TAG_WORDS = word_size("stats-write")

register_closed_form("stats-query", lambda payload: 1 + len(payload))
register_closed_form("stats-reply", _stats_entries_words)
register_closed_form("stats-write", _stats_entries_words)
register_closed_form("vertex-reply", lambda payload: 5 + 3 * len(payload["matched"]))
register_closed_form("suspended-reply", lambda payload: 1)
register_closed_form("batch-free-reply", lambda payload: 1 + 3 * len(payload))
register_closed_form("neighbor-list-reply", lambda payload: 1 + len(payload))
register_closed_form("counter-delta", lambda payload: 1 + 3 * len(payload))
register_closed_form("add-edge", lambda payload: 3)
register_closed_form("move-request", lambda payload: 1)
register_closed_form("fetch-suspended", lambda payload: 3)


@dataclass
class VertexStats:
    """Statistics of one vertex: the blank record of an unstored vertex, and a record to copy in.

    A stored vertex lives in its statistics machine's
    :class:`~repro.mpc.layout.StatsTable`; its views have these attributes,
    this payload and this word charge.
    """

    degree: int = 0
    mate: int | None = None
    heavy: bool = False
    alive_machine: str | None = None
    suspended_machines: list[str] = field(default_factory=list)
    free_neighbors: int = 0

    def dmpc_words(self) -> int:
        return 6 + len(self.suspended_machines)

    def as_payload(self) -> dict:
        return {
            "degree": self.degree,
            "mate": self.mate if self.mate is not None else -1,
            "heavy": self.heavy,
            "alive": self.alive_machine or "",
            "suspended": list(self.suspended_machines),
            "free_neighbors": self.free_neighbors,
        }


class MatchingFabric:
    """Storage fabric + message protocol shared by the matching algorithms."""

    def __init__(self, cluster: Cluster, config: DMPCConfig) -> None:
        self.cluster = cluster
        #: the cluster's machines by id, read directly on the per-update paths
        self._machines = cluster.machines_by_id
        self.config = config
        self.threshold = config.heavy_threshold

        # Statistics machines and the consecutive-ID partition over them.
        stats_ids = [m.machine_id for m in cluster.add_machines("stats", config.stats_machine_count, role="stats")]
        self.partition = RangePartition(config.capacity_n, stats_ids)
        self.coordinator = Coordinator.create(cluster, self.partition)

        # Edge machine pool (allocated lazily; idle machines never become active).
        pool_size = 2 * config.num_worker_machines + 8
        self.edge_pool = [m.machine_id for m in cluster.add_machines("edge", pool_size, role="edge")]
        self._unallocated = list(reversed(self.edge_pool))
        # The machines the round-robin maintenance cycles over, in pool
        # order; kept current where it changes (_allocate_machine, the
        # release in fetch_suspended) instead of rebuilt every update.
        self._allocated: list[str] = []
        #: the light machines in the order they became light, keyed by id (toFit walks the machines)
        self._light_machines: dict[str, Machine] = {}
        self._machine_seen_seq: dict[str, int] = {mid: 0 for mid in self.edge_pool}
        self._refresh_pointer = 0

        # History capacity must cover the worst-case staleness of any machine:
        # one machine is refreshed per update (round-robin), each update adds
        # O(1) entries, so O(#machines) = O(sqrt N) entries suffice.
        capacity = max(config.sqrt_N, 10 * (pool_size + 8))
        self.coordinator.history = UpdateHistory(capacity=capacity)

        # Batch mode: round-robin maintenance deferred and merged (see batched()).
        # The deferral cap keeps the total staleness a batch can accumulate well
        # below the history capacity (each update appends only a few entries),
        # so bounded-buffer eviction can never outrun a deferred refresh.
        self._batch_depth = 0
        self._deferred_refreshes = 0
        self._max_deferred_refreshes = max(1, capacity // 8)

    # ------------------------------------------------------------- allocation
    def _allocate_machine(self, *, light: bool) -> str:
        """Hand out the next free edge machine, stamped current.

        Only an empty machine is handed out (fresh, or cleared by
        :meth:`_release_machine`), and an empty machine has nothing to catch
        up on: no buffered entry can apply to it, and every
        record it receives from now on is placed current.  So it starts at
        ``seen = last_seq`` — its first contact ships what was recorded
        since, not the whole buffer, and never replays an old ``delete`` or
        ``unmatch`` over a record placed after it.
        """
        if not self._unallocated:
            raise ProtocolError("edge machine pool exhausted — size the DMPCConfig for the workload")
        machine_id = self._unallocated[-1]
        machine = self._machines[machine_id]
        if len(machine.storage):
            raise ProtocolError(f"edge machine {machine_id!r} still holds records — it cannot be stamped current")
        self._unallocated.pop()
        self._machine_seen_seq[machine_id] = self.coordinator.history.last_seq
        # A released machine is handed out again before higher pool slots.
        insort(self._allocated, machine_id, key=lambda mid: self._machines[mid].index)
        if light:
            self._light_machines[machine_id] = machine
        return machine_id

    def _release_machine(self, machine_id: str) -> None:
        """Return a machine that was exclusive to one vertex to the pool once
        that vertex's edges have all left it (:meth:`fetch_suspended` drained
        a suspended machine, :meth:`move_vertex_edges` moved an alive set
        away).  The status records left in its edge table go with the last
        row: the machine is cleared, as empty as a fresh one."""
        self._machines[machine_id].clear()
        self._allocated.remove(machine_id)
        self._unallocated.append(machine_id)

    def _light_machine_with_room(self, words_needed: int) -> str:
        """The first light machine with at least ``words_needed`` free words (the paper's ``toFit``)."""
        needed = words_needed + 8
        for machine in self._light_machines.values():
            if machine.free_words >= needed:
                return machine.machine_id
        return self._allocate_machine(light=True)

    # ------------------------------------------------------------------ stats
    def _stats_handle(self, machine) -> FrozenChargeHandle:
        """The stats machine's committed table handle (a fresh, uncommitted
        one over an empty table if never committed — reads of blanks must
        not allocate storage)."""
        handle: FrozenChargeHandle | None = machine.load(STATS_KEY)
        if handle is None:
            block = self.partition.vertices_on(machine.machine_id)
            handle = FrozenChargeHandle(StatsTable(block.start, len(block)))
        return handle

    # ------------------------------------------------------------ edge tables
    @staticmethod
    def _edge_handle(machine) -> FrozenChargeHandle:
        """The edge machine's committed table handle (a fresh, uncommitted one
        over an empty table if it holds no records)."""
        handle: FrozenChargeHandle | None = machine.load(EDGE_TABLE_KEY)
        return handle if handle is not None else FrozenChargeHandle(EdgeTable())

    @staticmethod
    def _commit_edges(machine, handle: FrozenChargeHandle) -> None:
        """Commit an edge table after it changed; an empty table holds no key."""
        if handle.table.words:
            handle.commit(machine, EDGE_TABLE_KEY)
        else:
            machine.delete(EDGE_TABLE_KEY)

    @staticmethod
    def _write_record(record, stats) -> None:
        """Copy one stats record onto another (both sides duck-typed)."""
        record.degree = stats.degree
        record.mate = stats.mate
        record.heavy = stats.heavy
        record.alive_machine = stats.alive_machine
        record.suspended_machines = list(stats.suspended_machines)
        record.free_neighbors = stats.free_neighbors

    def stats_of(self, v: int):
        """Read ``v``'s statistics *locally* (driver-side view of the stats machine).

        **Read-only contract**: for a vertex with no stored record this
        returns a fresh blank :class:`VertexStats` that is *not* persisted,
        so mutating the returned object does not write through — the change
        is silently lost unless the caller follows up with
        :meth:`store_stats`.  (For a *stored* vertex the returned record is
        a live write-through view of its slot in the flat table.)  Callers
        that need read-modify-write semantics should use
        :meth:`mutate_stats`, which persists on exit for stored and unseen
        vertices alike.
        """
        record = self._stats_handle(self._machines[self.partition.machine_for(v)]).table.view(v)
        return record if record is not None else VertexStats()

    def store_stats(self, v: int, stats) -> None:
        """Copy ``stats`` into ``v``'s slot and commit the table (a plain
        ``VertexStats`` held by the caller does not write through afterwards)."""
        machine = self._machines[self.partition.machine_for(v)]
        handle = self._stats_handle(machine)
        if not is_live_record(stats, handle.table, v):
            self._write_record(handle.table.ensure(v), stats)
        handle.commit(machine, STATS_KEY)

    @contextmanager
    def mutate_stats(self, v: int) -> Iterator[VertexStats]:
        """Read-modify-write ``v``'s statistics; the record persists on exit.

        Unlike bare :meth:`stats_of`, this always writes the (possibly
        freshly created) record back to the statistics machine, so
        mutations to an unseen vertex's statistics cannot be lost.
        """
        machine = self._machines[self.partition.machine_for(v)]
        handle = self._stats_handle(machine)
        try:
            yield handle.table.ensure(v)
        finally:
            handle.commit(machine, STATS_KEY)

    def is_heavy(self, v: int) -> bool:
        return self.stats_of(v).degree >= self.threshold

    def mate_of(self, v: int) -> int | None:
        return self.stats_of(v).mate

    def matching(self) -> set[tuple[int, int]]:
        """The maintained matching (assembled from the statistics machines)."""
        edges: set[tuple[int, int]] = set()
        for machine in self.cluster.machines(role="stats"):
            handle: FrozenChargeHandle | None = machine.load(STATS_KEY)
            if handle is None:
                continue
            for vertex, mate in handle.table.matched_pairs():
                edges.add(normalize_edge(vertex, mate))
        return edges

    # ---------------------------------------------------------------- history
    def record(self, kind: str, u: int, v: int) -> HistoryEntry:
        return self.coordinator.record(kind, u, v)

    def _pending_history(self, machine_id: str) -> tuple[list[HistoryEntry], int]:
        """The history suffix ``machine_id`` has not seen and the words it is
        charged as when piggy-backed on a message to that machine.

        Raises :class:`ProtocolError` if the buffer has already evicted
        entries the machine has not seen: the suffix would have a gap, and
        the records on the machine could never be made current again.
        """
        history = self.coordinator.history
        seen = self._machine_seen_seq[machine_id]
        entries = history.entries_since(seen)
        if len(entries) < history.last_seq - seen:
            raise ProtocolError(
                f"edge machine {machine_id!r} (seen {seen}) missed {history.evicted_since(seen)} evicted history "
                f"entries — the update-history (capacity {history.capacity}) is too small for its staleness"
            )
        return entries, HistoryEntry.WORDS * len(entries) or 1

    def _contact(self, tag: str | None, targets: list[tuple[str, Any, int]]) -> list[tuple[Machine, FrozenChargeHandle]]:
        """Bring the distinct edge machines of ``targets`` current; ``(machine, edge table handle)`` per target.

        With a ``tag``, one round: the coordinator sends each ``(machine_id,
        payload, words)`` a ``tag`` message carrying ``payload``, charged
        ``words`` plus the machine's unseen history suffix
        (:meth:`_pending_history`), which the machine drains.  Without, no
        message: the sender-side catch-up.  Each machine then replays its
        suffix into the table it loaded (committed only if a record changed)
        and is stamped current — the one stamp besides
        :meth:`_allocate_machine`'s.  A current machine ships and replays nothing.
        """
        last = self.coordinator.history.last_seq
        seen = self._machine_seen_seq
        coordinator = self.coordinator.machine
        suffixes = []
        for machine_id, payload, words in targets:
            if seen[machine_id] == last:
                entries, history_words = (), 1
            else:
                entries, history_words = self._pending_history(machine_id)
            if tag is not None:
                coordinator.send(machine_id, tag, payload, words=words + history_words)
            suffixes.append((machine_id, entries))
        if tag is not None:
            self.cluster.exchange()
        contacted = []
        for machine_id, entries in suffixes:
            machine = self._machines[machine_id]
            if tag is not None:
                machine.drain(tag)
            handle = self._edge_handle(machine)
            if entries and handle.table.replay(entries):
                self._commit_edges(machine, handle)
            seen[machine_id] = last
            contacted.append((machine, handle))
        return contacted

    # ------------------------------------------------------------ edge machines
    def _ensure_alive_machine(self, v: int, stats: VertexStats) -> str:
        """Make sure ``v`` has an alive machine; allocate/choose one if needed."""
        machine_id = stats.alive_machine
        if machine_id is not None:
            return machine_id
        if stats.degree >= self.threshold:
            machine_id = self._allocate_machine(light=False)
        else:
            machine_id = self._light_machine_with_room(words_needed=8)
        stats.alive_machine = machine_id
        machine = self._machines[machine_id]
        handle = self._edge_handle(machine)
        # placed without a catch-up, but an empty row: replay never inserts
        if v not in handle.table.adj:
            handle.table.ensure_row(v)
            self._commit_edges(machine, handle)
        return machine_id

    def local_adjacency(self, machine_id: str, v: int) -> dict[int, bool]:
        return dict(self._edge_handle(self._machines[machine_id]).table.row(v))

    def alive_neighbors(self, v: int) -> list[int]:
        """Neighbours of ``v`` stored on its alive machine (driver-side view)."""
        stats = self.stats_of(v)
        if stats.alive_machine is None:
            return []
        return sorted(self.local_adjacency(stats.alive_machine, v))

    def suspended_neighbors(self, v: int) -> list[int]:
        """Neighbours of ``v`` stored on its suspended machines (driver-side view)."""
        stats = self.stats_of(v)
        result: list[int] = []
        for machine_id in stats.suspended_machines:
            result.extend(self.local_adjacency(machine_id, v))
        return sorted(result)

    def all_neighbors(self, v: int) -> list[int]:
        return sorted(set(self.alive_neighbors(v)) | set(self.suspended_neighbors(v)))

    # The following operations implement the message protocol.  Each returns
    # after having called ``cluster.exchange()`` the stated number of times.

    def query_stats(self, vertices: list[int]) -> dict[int, VertexStats]:
        """Coordinator queries the statistics of ``vertices`` (2 rounds)."""
        coordinator = self.coordinator.machine
        targets: dict[str, list[int]] = {}
        for v in vertices:
            targets.setdefault(self.partition.machine_for(v), []).append(v)
        for machine_id, vs in targets.items():
            query = sorted(vs)
            coordinator.send(machine_id, "stats-query", query, words=closed_form_words("stats-query", query))
        self.cluster.exchange()
        replies: dict[int, VertexStats] = {}
        for machine_id in targets:
            machine = self._machines[machine_id]
            table = self._stats_handle(machine).table
            for msg in machine.drain("stats-query"):
                records = []
                for v in msg.payload:
                    records.append((v, table.view(v)))
                reply, words = table.payloads(records)
                machine.send(coordinator.machine_id, "stats-reply", reply, words=_STATS_REPLY_TAG_WORDS + words)
                for v, stats in records:
                    replies[v] = stats if stats is not None else VertexStats()
        self.cluster.exchange()
        coordinator.drain("stats-reply")
        return replies

    def push_stats(self, updates: dict[int, VertexStats]) -> None:
        """Coordinator writes back updated statistics (1 round)."""
        coordinator = self.coordinator.machine
        targets: dict[str, list[tuple[int, VertexStats]]] = {}
        for v, stats in updates.items():
            targets.setdefault(self.partition.machine_for(v), []).append((v, stats))
        handles = []
        for machine_id, items in targets.items():
            machine = self._machines[machine_id]
            handle = self._stats_handle(machine)
            writes, words = handle.table.payloads(items)
            coordinator.send(machine_id, "stats-write", writes, words=_STATS_WRITE_TAG_WORDS + words)
            handles.append((machine, handle, items))
        self.cluster.exchange()
        for machine, handle, items in handles:
            machine.drain("stats-write")
            for v, stats in items:
                if not is_live_record(stats, handle.table, v):
                    self._write_record(handle.table.ensure(v), stats)
            handle.commit(machine, STATS_KEY)

    def refresh_machine(self, machine_id: str) -> None:
        """Coordinator ships pending history to one edge machine (1 round)."""
        self._contact("refresh", [(machine_id, None, 0)])

    def round_robin_refresh(self) -> None:
        """Refresh the next edge machine in round-robin order (1 round).

        This is the Section 3 maintenance step that bounds every machine's
        staleness by ``O(sqrt N)`` updates.  Inside a :meth:`batched` scope
        the refresh is deferred and merged — the batch pays one refresh
        round for all its updates instead of one round each (the pointer
        still advances once per update, so the staleness bound holds).
        """
        if self._batch_depth > 0:
            self._deferred_refreshes += 1
            # A batch larger than the history buffer can absorb must flush
            # mid-batch (charged to the current update's ledger scope).
            if self._deferred_refreshes >= self._max_deferred_refreshes:
                self.flush_deferred_refreshes()
            return
        if not self._allocated:
            return
        machine_id = self._allocated[self._refresh_pointer % len(self._allocated)]
        self._refresh_pointer += 1
        self.refresh_machine(machine_id)

    @contextmanager
    def batched(self) -> Iterator["MatchingFabric"]:
        """Scope in which round-robin maintenance is deferred and merged.

        The matching algorithms wrap a batch of updates in this scope and
        call :meth:`flush_deferred_refreshes` once at the end (inside a
        ledger update scope, so the merged round is attributed to the
        batch).  All *decision* reads stay exact — every query path applies
        the pending coordinator history before reading — so deferring the
        maintenance never changes the maintained matching.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1

    def flush_deferred_refreshes(self) -> int:
        """Deliver the deferred round-robin refreshes as one merged round.

        The coordinator ships each pending machine's history slice in the
        same exchange (one message per machine, one round total) — the
        piggy-backing that makes a batch of ``k`` updates pay ``O(1)``
        maintenance rounds instead of ``k``.  Returns the number of
        machines refreshed.
        """
        count, self._deferred_refreshes = self._deferred_refreshes, 0
        if count == 0:
            return 0
        allocated = self._allocated
        if not allocated:
            return 0
        pending: dict[str, None] = {}
        for _ in range(count):
            pending[allocated[self._refresh_pointer % len(allocated)]] = None
            self._refresh_pointer += 1
        self._contact("refresh", [(machine_id, None, 0) for machine_id in pending])
        return len(pending)

    def update_vertex(self, v: int, stats: VertexStats, query: str | None = None, *, exclude: tuple[int, ...] = ()) -> dict:
        """The paper's ``updateVertex``: refresh ``v``'s alive machine and optionally query it.

        Sends one message coordinator → alive machine carrying the pending
        history plus the query, and one reply back (2 rounds, 2 active
        machines, O(sqrt N) words).  Supported queries:

        * ``"free-neighbor"`` — a neighbour of ``v`` that is currently
          unmatched according to the machine's (now refreshed) status map;
        * ``"matched-neighbors"`` — up to ``threshold`` pairs
          ``(w, mate(w))`` for matched alive neighbours of ``v``;
        * ``None`` — no query, pure refresh.

        Returns the reply payload dict.
        """
        machine_id = self._ensure_alive_machine(v, stats)
        [(machine, handle)] = self._contact("vertex-update", [(machine_id, {"vertex": v, "query": query or ""}, 4)])

        reply: dict = {"free": None, "matched": []}
        adjacency, status = handle.table.row(v), handle.table.status
        if query == "free-neighbor":
            for w in sorted(adjacency):
                if w in exclude:
                    continue
                if status.get(w) is None:
                    reply["free"] = w
                    break
        elif query == "matched-neighbors":
            pairs = []
            for w in sorted(adjacency):
                if w in exclude:
                    continue
                mate = status.get(w)
                if mate is not None:
                    pairs.append((w, mate))
                if len(pairs) >= self.threshold:
                    break
            reply["matched"] = pairs
        coordinator = self.coordinator.machine
        machine.send(coordinator.machine_id, "vertex-reply", reply, words=closed_form_words("vertex-reply", reply))
        self.cluster.exchange()
        coordinator.drain("vertex-reply")
        return reply

    def scan_suspended_for_free(self, v: int, stats: VertexStats, *, exclude: tuple[int, ...] = ()) -> int | None:
        """Fallback scan of ``v``'s suspended machines for a free neighbour (2 rounds)."""
        if not stats.suspended_machines:
            return None
        coordinator = self.coordinator.machine
        found: int | None = None
        for machine, handle in self._contact("suspended-scan", [(machine_id, v, 2) for machine_id in stats.suspended_machines]):
            table = handle.table
            candidate = None
            for w in sorted(table.row(v)):
                if w not in exclude and table.status.get(w) is None:
                    candidate = w
                    break
            machine.send(coordinator.machine_id, "suspended-reply", candidate, words=closed_form_words("suspended-reply", candidate))
        self.cluster.exchange()
        for msg in coordinator.drain("suspended-reply"):
            if msg.payload is not None and found is None:
                found = msg.payload
        return found

    def batch_free_neighbor_query(self, queries: list[tuple[int, VertexStats, tuple[int, ...]]]) -> dict[int, int | None]:
        """Query many vertices' alive machines for a free neighbour in 2 rounds.

        ``queries`` is a list of ``(vertex, stats, exclude)`` triples.  The
        coordinator sends one message per involved machine (carrying the
        pending history), every machine answers for the vertices it hosts,
        and the result maps each queried vertex to a free neighbour (or
        ``None``).  Used by the Section 4 algorithm to probe several
        candidate mates for the endpoint of a length-3 augmenting path
        without leaving the constant-round budget.
        """
        if not queries:
            return {}
        coordinator = self.coordinator.machine
        by_machine: dict[str, list[tuple[int, tuple[int, ...]]]] = {}
        for vertex, stats, exclude in queries:
            machine_id = self._ensure_alive_machine(vertex, stats)
            by_machine.setdefault(machine_id, []).append((vertex, exclude))
        contacted = self._contact(
            "batch-free-query",
            [(machine_id, [(v, list(ex)) for v, ex in items], 2 * len(items)) for machine_id, items in by_machine.items()],
        )
        results: dict[int, int | None] = {}
        for (machine, handle), items in zip(contacted, by_machine.values()):
            table = handle.table
            replies = []
            for vertex, exclude in items:
                found: int | None = None
                for w in sorted(table.row(vertex)):
                    if w in exclude:
                        continue
                    if table.status.get(w) is None:
                        found = w
                        break
                replies.append((vertex, found))
                results[vertex] = found
            machine.send(coordinator.machine_id, "batch-free-reply", replies, words=closed_form_words("batch-free-reply", replies))
        self.cluster.exchange()
        coordinator.drain("batch-free-reply")
        return results

    def neighbor_list(self, v: int, stats: VertexStats) -> list[int]:
        """Fetch ``v``'s (alive) neighbour list through the coordinator (2 rounds).

        For a light vertex this is its entire adjacency list; the Section 4
        algorithm uses it to push free-neighbour-counter deltas to the
        statistics machines of a vertex whose matching status changed.
        """
        machine_id = self._ensure_alive_machine(v, stats)
        coordinator = self.coordinator.machine
        [(machine, handle)] = self._contact("neighbor-list-query", [(machine_id, v, 2)])
        neighbors = sorted(handle.table.row(v))
        machine.send(coordinator.machine_id, "neighbor-list-reply", neighbors, words=closed_form_words("neighbor-list-reply", neighbors))
        self.cluster.exchange()
        coordinator.drain("neighbor-list-reply")
        return neighbors

    def push_counter_deltas(self, deltas: dict[int, int]) -> None:
        """Apply free-neighbour-counter deltas on the statistics machines (1 round)."""
        if not deltas:
            return
        coordinator = self.coordinator.machine
        by_machine: dict[str, list[tuple[int, int]]] = {}
        for v, delta in deltas.items():
            if delta == 0:
                continue
            by_machine.setdefault(self.partition.machine_for(v), []).append((v, delta))
        if not by_machine:
            return
        for machine_id, items in by_machine.items():
            coordinator.send(machine_id, "counter-delta", items, words=closed_form_words("counter-delta", items))
        self.cluster.exchange()
        for machine_id, items in by_machine.items():
            machine = self._machines[machine_id]
            machine.drain("counter-delta")
            for v, delta in items:
                with self.mutate_stats(v) as stats:
                    stats.free_neighbors = max(0, stats.free_neighbors + delta)

    def query_lightness(self, vertices: list[int]) -> dict[int, bool]:
        """Coordinator asks the stats machines whether each vertex is light (2 rounds)."""
        if not vertices:
            return {}
        stats = self.query_stats(sorted(set(vertices)))
        return {v: (s.degree < self.threshold) for v, s in stats.items()}

    # ------------------------------------------------------------ edge moves
    def add_edge_copy(self, v: int, w: int, stats: VertexStats, *, neighbor_mate: int | None = None) -> None:
        """Store the copy of edge ``(v, w)`` belonging to ``v`` (the paper's ``addEdge``).

        The copy goes to ``v``'s alive machine if ``v`` is light or its alive
        set is below the threshold, and to the top suspended machine (or a
        freshly allocated one) otherwise.  The coordinator directs the
        placement; the data travels as one message (1 round).
        """
        machine_id = self._ensure_alive_machine(v, stats)
        machines = self._machines
        handle = self._edge_handle(machines[machine_id])
        alive_count = len(handle.table.row(v))
        heavy = stats.degree >= self.threshold
        if heavy and alive_count >= self.threshold:
            target_id = None
            if stats.suspended_machines:
                top = machines[stats.suspended_machines[-1]]
                if top.free_words >= 16:
                    target_id = top.machine_id
            if target_id is None:
                target_id = self._allocate_machine(light=False)
                stats.suspended_machines = [*stats.suspended_machines, target_id]
        else:
            target_id = machine_id
            if machines[target_id].free_words < 16 and not heavy:
                # Light vertex whose machine is full: move v's list to a roomier machine.
                self.move_vertex_edges(v, stats, self._light_machine_with_room(alive_count * 4 + 16))
                target_id = stats.alive_machine
        target = machines[target_id]
        self.coordinator.machine.send(target_id, "add-edge", (v, w), words=closed_form_words("add-edge", (v, w)))
        self.cluster.exchange()
        target.drain("add-edge")
        if target_id != machine_id:
            handle = self._edge_handle(target)
        handle.table.add_edge(v, w)
        handle.table.place_status(w, neighbor_mate)
        self._commit_edges(target, handle)

    def remove_edge_copy(self, v: int, w: int, stats: VertexStats) -> None:
        """Remove the copy of edge ``(v, w)`` from ``v``'s alive machine if present.

        Suspended copies are cleaned lazily when their machine is next
        refreshed (exactly as in the paper).  Piggy-backed on the
        ``vertex-update`` round, so no extra exchange is needed here.
        """
        machine_id = stats.alive_machine
        if machine_id is None:
            return
        machine = self._machines[machine_id]
        handle = self._edge_handle(machine)
        if handle.table.discard_edge(v, w):
            self._commit_edges(machine, handle)

    def move_vertex_edges(self, v: int, stats: VertexStats, target_id: str) -> None:
        """The paper's ``moveEdges``: relocate ``v``'s alive edges to ``target_id`` (2 rounds).

        The pending history is applied to the source machine before its
        records are copied, so the relocated adjacency/status records are
        current regardless of when the round-robin maintenance last visited
        the source — which is what keeps batched application (deferred
        maintenance) byte-identical to sequential application.
        """
        source_id = stats.alive_machine
        if source_id is None or source_id == target_id:
            stats.alive_machine = target_id
            return
        [(source, source_handle)] = self._contact(None, [(source_id, None, 0)])
        target = self._machines[target_id]
        adjacency = source_handle.table.row(v)
        statuses = {w: source_handle.table.status.get(w) for w in adjacency}
        # the suffix the catch-up replayed rides on no message: move-request is charged its closed form only
        self.coordinator.machine.send(source_id, "move-request", v, words=closed_form_words("move-request", v))
        self.cluster.exchange()
        source.drain("move-request")
        source.send(target_id, "move-edges", {"vertex": v, "count": len(adjacency)}, words=2 * len(adjacency) + 4)
        self.cluster.exchange()
        target.drain("move-edges")
        if source_id in self._light_machines:
            source_handle.table.pop_row(v)
            self._commit_edges(source, source_handle)
        else:
            # ``v`` had the machine to itself (it was heavy before): without
            # the release every re-crossing of the threshold leaks a machine.
            self._release_machine(source_id)
        target_handle = self._edge_handle(target)
        target_handle.table.set_row(v, adjacency)
        for w, status in statuses.items():
            target_handle.table.place_status(w, status)
        self._commit_edges(target, target_handle)
        stats.alive_machine = target_id
        if target_id not in self._light_machines and stats.degree < self.threshold:
            self._light_machines[target_id] = target

    def fetch_suspended(self, v: int, stats: VertexStats) -> None:
        """The paper's ``fetchSuspended``: refill ``v``'s alive set from its suspended stack (2 rounds)."""
        if not stats.suspended_machines or stats.alive_machine is None:
            return
        alive = self._machines[stats.alive_machine]
        alive_handle = self._edge_handle(alive)
        need = self.threshold - len(alive_handle.table.row(v))
        if need <= 0:
            return
        top_id = stats.suspended_machines[-1]
        [(top, top_handle)] = self._contact(None, [(top_id, None, 0)])
        moved = sorted(top_handle.table.row(v))[:need]
        # like move-request, charged its closed form only: the catch-up above rides on no message
        self.coordinator.machine.send(top_id, "fetch-suspended", (v, need), words=closed_form_words("fetch-suspended", (v, need)))
        self.cluster.exchange()
        top.drain("fetch-suspended")
        top.send(stats.alive_machine, "suspended-edges", {"vertex": v, "count": len(moved)}, words=2 * len(moved) + 4)
        self.cluster.exchange()
        alive.drain("suspended-edges")
        alive_table, top_table = alive_handle.table, top_handle.table
        alive_table.ensure_row(v)  # the alive set is stored even when nothing moved
        for w in moved:
            top_table.discard_edge(v, w)
            alive_table.add_edge(v, w)
            alive_table.place_status(w, top_table.status.get(w))
        if top_table.row(v):
            self._commit_edges(top, top_handle)
        else:
            stats.suspended_machines = stats.suspended_machines[:-1]
            self._release_machine(top_id)
        self._commit_edges(alive, alive_handle)

    # -------------------------------------------------------------- preprocessing
    def load_initial_graph(self, graph: DynamicGraph, initial_matching: set[tuple[int, int]]) -> None:
        """Place an initial graph and matching onto the fabric.

        Used by the preprocessing step after the static algorithm has
        computed the initial maximal matching; placement follows the
        Section 3 rules (light vertices grouped, heavy vertices split into
        alive + suspended machines).
        """
        mate: dict[int, int] = {}
        for (u, v) in initial_matching:
            mate[u] = v
            mate[v] = u
        for v in graph.vertices:
            degree = graph.degree(v)
            stats = VertexStats(degree=degree, mate=mate.get(v), heavy=degree >= self.threshold)
            neighbors = sorted(graph.neighbors(v))
            if stats.heavy:
                alive_id = self._allocate_machine(light=False)
                stats.alive_machine = alive_id
                alive_slice = neighbors[: self.threshold]
                rest = neighbors[self.threshold :]
                self._store_adjacency(alive_id, v, alive_slice, mate)
                chunk = max(8, (self.config.machine_memory // 4) - 8)
                for start in range(0, len(rest), chunk):
                    suspended_id = self._allocate_machine(light=False)
                    stats.suspended_machines.append(suspended_id)
                    self._store_adjacency(suspended_id, v, rest[start : start + chunk], mate)
            else:
                words_needed = 4 * max(1, degree) + 8
                alive_id = self._light_machine_with_room(words_needed)
                stats.alive_machine = alive_id
                self._store_adjacency(alive_id, v, neighbors, mate)
            self.store_stats(v, stats)

    def _store_adjacency(self, machine_id: str, v: int, neighbors: list[int], mate: dict[int, int]) -> None:
        machine = self._machines[machine_id]
        handle = self._edge_handle(machine)
        handle.table.set_row(v, dict.fromkeys(neighbors, True))
        for w in neighbors:  # a record already here came from the same initial matching
            handle.table.place_status(w, mate.get(w))
        self._commit_edges(machine, handle)
