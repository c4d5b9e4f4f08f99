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

Edge machines learn about updates lazily: whenever a message reaches a
machine it piggy-backs the history entries the machine has not yet seen
(replayed over the machine's table in place),
and after every update one additional machine is refreshed round-robin, so
no machine is ever more than ``O(sqrt N)`` updates stale — which is what
bounds the history size.  Every round that reaches an edge table is one
primitive, ``_contact``: it ships each machine its unseen suffix, sized by
its length, and replays it there; an update pays for the entries it ships,
not for the buffer, and the round-robin cycles over a maintained list
(one pick of the next machines, a single update's and a batch's alike).
Placement is a contact too (``add-edge``, ``move-edges``,
``suspended-edges``), so every record is written onto a machine that has
just been caught up, and a buffered ``delete`` can never be replayed over a
copy placed after it.  So is every read: ``_ask`` is a contact whose
machines each answer from their own records and the request they were
sent, one reply round, and the coordinator decides from the replies in the
order it drains them.

A machine is shipped, and replays, only what it can be missing.  Two
events stamp a machine current (``seen = last_seq``): ``_contact``, after
it has applied the suffix it was sent, and ``_allocate_machine``, when the
machine is handed out.  The second stamp is vacuously true: a machine is
only handed out empty (``_release_machine`` clears an exclusive machine when
its vertex's last edges leave it), so no buffered entry can apply to it.
It saves words: without it the first contact would carry the whole buffer
in one message — ``O(capacity)`` words instead of ``O(sqrt N)``.  A reader
that falls behind the bounded buffer cannot be caught up at all, so
``_pending_history`` raises rather than ship a suffix with a gap.
``_ensure_alive_machine`` places onto an existing machine without a
contact, but only an empty row: replay never inserts (it drops copies and
rewrites statuses that are there), so no owed entry can act on it.

All cross-machine data movement uses messages on the cluster, so the
metrics ledger observes the true round / machine / communication costs.
"""

from __future__ import annotations

from bisect import insort
from contextlib import contextmanager
from itertools import islice
from typing import Any, Callable, Iterator

from repro.config import DMPCConfig
from repro.exceptions import InvariantViolation, ProtocolError
from repro.graph.graph import DynamicGraph, normalize_edge
from repro.mpc.cluster import Cluster
from repro.mpc.coordinator import Coordinator, HistoryEntry
from repro.mpc.layout import EDGE_TABLE_KEY, EdgeTable, FrozenChargeHandle, StatsTable, StatsView
from repro.mpc.machine import Machine
from repro.mpc.partition import RangePartition
from repro.mpc.sizing import closed_form_words, register_closed_form, string_words, word_size

__all__ = ["MatchingFabric"]

#: the single machine-store key each statistics machine keeps its flat
#: struct-of-arrays vertex table under, committed since the fabric was built
STATS_KEY = "stats"


# Closed forms for every fabric message the protocol previously sized by
# recursing into the payload.  Each form is pure arithmetic on the payload's
# *shape* and is pinned equal to ``word_size`` on randomized payloads in
# ``tests/dynamic_mpc``; the messages themselves are unchanged, so round
# records stay bit-identical whichever path sized the send.
def _stats_entries_words(entries) -> int:
    # [(v, payload)] as StatsTable.payloads builds it: each payload dict
    # costs 14 words of fixed keys/values plus the alive-machine string and
    # the suspended stack; the (v, dict) tuple adds 2 more.
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


def _first_free_each(table: EdgeTable, request: list[tuple[int, list[int]]]) -> list[tuple[int, int | None]]:
    """A ``batch-free-reply``: a free neighbour (or ``None``) of each requested ``(vertex, exclude)``."""
    return [(v, table.first_free(v, exclude)) for v, exclude in request]


def _sorted_row(table: EdgeTable, v: int) -> list[int]:
    """A ``neighbor-list-reply``: ``v``'s row, sorted."""
    return sorted(table.row(v))


class MatchingFabric:
    """Storage fabric + message protocol shared by the matching algorithms."""

    def __init__(self, cluster: Cluster, config: DMPCConfig) -> None:
        self.cluster = cluster
        #: the cluster's machines by id, read directly on the per-update paths
        self._machines = cluster.machines_by_id
        self.config = config
        self.threshold = config.heavy_threshold

        # Statistics machines and the consecutive-ID partition over them.
        stats_machines = cluster.add_machines("stats", config.stats_machine_count, role="stats")
        self.partition = RangePartition(config.capacity_n, [m.machine_id for m in stats_machines])
        # Each statistics machine holds its block's table from the start, so
        # every view of a slot, minted before or after the slot is first
        # committed, points into the one table the machine stores.
        for machine in stats_machines:
            block = self.partition.vertices_on(machine.machine_id)
            FrozenChargeHandle(StatsTable(block.start, len(block))).commit(machine, STATS_KEY)
        # Edge machine pool (allocated lazily; idle machines never become active).
        pool_size = 2 * config.num_worker_machines + 8
        # History capacity must cover the worst-case staleness of any machine:
        # one machine is refreshed per update (round-robin), each update adds
        # O(1) entries, so O(#machines) = O(sqrt N) entries suffice.
        capacity = max(config.sqrt_N, 10 * (pool_size + 8))
        self.coordinator = Coordinator.create(cluster, self.partition, history_capacity=capacity)
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
    def stats_tables(self) -> Iterator[StatsTable]:
        """Every statistics machine's table."""
        for machine in self.cluster.machines(role="stats"):
            yield machine.load(STATS_KEY).table

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

    def stats_of(self, v: int) -> StatsView:
        """``v``'s statistics record, read *locally* (driver-side view of its stats machine's slot).

        A write through it lands in the slot whether or not ``v`` was ever
        stored; only a commit (:meth:`store_stats`, :meth:`push_stats`,
        :meth:`mutate_stats`) occupies the slot and charges its words.
        """
        return self._machines[self.partition.machine_for(v)].load(STATS_KEY).table.view(v)

    def store_stats(self, v: int, stats: StatsView) -> None:
        """Commit ``v``'s record ``stats`` — its own slot's view — locally, without a round."""
        machine = self._machines[self.partition.machine_for(v)]
        handle = machine.load(STATS_KEY)
        handle.table.occupy(v, stats)
        handle.commit(machine, STATS_KEY)

    @contextmanager
    def mutate_stats(self, v: int) -> Iterator[StatsView]:
        """Read-modify-write ``v``'s statistics; the record is committed on exit."""
        machine = self._machines[self.partition.machine_for(v)]
        handle = machine.load(STATS_KEY)
        record = handle.table.view(v)
        try:
            yield record
        finally:
            handle.table.occupy(v, record)
            handle.commit(machine, STATS_KEY)

    def check_unoccupied_slots(self) -> None:
        """Raise :class:`InvariantViolation` if an unoccupied slot holds a non-blank value.

        Such a value is a write through a record that no commit occupied:
        the slot would read it back although the machine was never charged
        for it.  Run at update boundaries under ``check_invariants``.
        """
        for table in self.stats_tables():
            unpaid = table.unoccupied_writes()
            if unpaid:
                raise InvariantViolation(f"statistics of vertices {unpaid} were written but never committed")

    def is_heavy(self, v: int) -> bool:
        return self.stats_of(v).degree >= self.threshold

    def mate_of(self, v: int) -> int | None:
        return self.stats_of(v).mate

    def matching(self) -> set[tuple[int, int]]:
        """The maintained matching (assembled from the statistics machines)."""
        return {normalize_edge(vertex, mate) for table in self.stats_tables() for vertex, mate in table.matched_pairs()}

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

    def _contact(
        self, tag: str, targets: list[tuple[str, Any, int]], sender: Machine | None = None
    ) -> list[tuple[Machine, FrozenChargeHandle]]:
        """Send the distinct edge machines of ``targets`` a ``tag`` message and bring them current;
        ``(machine, edge table handle)`` per target.

        One round: ``sender`` — the coordinator, or a machine a contact has
        just brought current (the source of a move) — sends each
        ``(machine_id, payload, words)`` a ``tag`` message carrying
        ``payload``, charged ``words`` plus the machine's unseen history
        suffix (:meth:`_pending_history`), which the machine drains.  Each
        machine then replays its suffix into the table it loaded (committed
        only if a record changed) and is stamped current — the one stamp
        besides :meth:`_allocate_machine`'s — so whatever the caller writes
        into a returned table is placed over current records.  A current
        machine ships and replays nothing.
        """
        last = self.coordinator.history.last_seq
        seen = self._machine_seen_seq
        if sender is None:
            sender = self.coordinator.machine
        suffixes = []
        for machine_id, payload, words in targets:
            if seen[machine_id] == last:
                entries, history_words = (), 1
            else:
                entries, history_words = self._pending_history(machine_id)
            sender.send(machine_id, tag, payload, words=words + history_words)
            suffixes.append((machine_id, entries))
        self.cluster.exchange()
        contacted = []
        for machine_id, entries in suffixes:
            machine = self._machines[machine_id]
            machine.drain(tag)
            handle = self._edge_handle(machine)
            if entries and handle.table.replay(entries):
                self._commit_edges(machine, handle)
            seen[machine_id] = last
            contacted.append((machine, handle))
        return contacted

    def _ask(self, tag: str, reply_tag: str, targets: list[tuple[str, Any, int]], answer: Callable[[EdgeTable, Any], Any]) -> list:
        """One edge-table read: a ``tag`` :meth:`_contact` and a ``reply_tag`` round back (2 rounds).

        Each ``(machine_id, request, words)`` of ``targets``, brought current
        by the contact, replies ``answer(table, request)`` — its own records
        and the request are all it reads — charged the reply tag's closed
        form.  Returns the reply payloads in the order the coordinator drains
        them (senders in registration order): what the coordinator decides from.
        """
        coordinator = self.coordinator.machine
        coordinator_id = coordinator.machine_id
        for (machine, handle), (_machine_id, request, _words) in zip(self._contact(tag, targets), targets):
            reply = answer(handle.table, request)
            machine.send(coordinator_id, reply_tag, reply, words=closed_form_words(reply_tag, reply))
        self.cluster.exchange()
        return [message.payload for message in coordinator.drain(reply_tag)]

    # ------------------------------------------------------------ edge machines
    def _ensure_alive_machine(self, v: int, stats: StatsView) -> str:
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

    def query_stats(self, vertices: list[int]) -> dict[int, StatsView]:
        """Coordinator queries the statistics of ``vertices`` (2 rounds)."""
        coordinator = self.coordinator.machine
        targets: dict[str, list[int]] = {}
        for v in vertices:
            targets.setdefault(self.partition.machine_for(v), []).append(v)
        for machine_id, vs in targets.items():
            query = sorted(vs)
            coordinator.send(machine_id, "stats-query", query, words=closed_form_words("stats-query", query))
        self.cluster.exchange()
        replies: dict[int, StatsView] = {}
        for machine_id in targets:
            machine = self._machines[machine_id]
            table = machine.load(STATS_KEY).table
            for msg in machine.drain("stats-query"):
                reply, words = table.payloads(msg.payload)
                machine.send(coordinator.machine_id, "stats-reply", reply, words=_STATS_REPLY_TAG_WORDS + words)
                for v in msg.payload:
                    replies[v] = table.view(v)
        self.cluster.exchange()
        coordinator.drain("stats-reply")
        return replies

    def push_stats(self, updates: dict[int, StatsView]) -> None:
        """Coordinator writes back updated statistics (1 round).

        Each record is its vertex's own view (:meth:`query_stats` handed it
        out), so its writes are in the slot already: the round ships them
        and the commit occupies the slot.
        """
        coordinator = self.coordinator.machine
        targets: dict[str, list[int]] = {}
        for v in updates:
            targets.setdefault(self.partition.machine_for(v), []).append(v)
        handles = []
        for machine_id, vertices in targets.items():
            machine = self._machines[machine_id]
            handle = machine.load(STATS_KEY)
            writes, words = handle.table.payloads(vertices)
            coordinator.send(machine_id, "stats-write", writes, words=_STATS_WRITE_TAG_WORDS + words)
            handles.append((machine, handle, vertices))
        self.cluster.exchange()
        for machine, handle, vertices in handles:
            machine.drain("stats-write")
            for v in vertices:
                handle.table.occupy(v, updates[v])
            handle.commit(machine, STATS_KEY)

    def refresh_machine(self, machine_id: str) -> None:
        """Coordinator ships pending history to one edge machine (1 round)."""
        self._contact("refresh", [(machine_id, None, 0)])

    def round_robin_refresh(self) -> None:
        """Refresh the next edge machine in round-robin order (1 round).

        This is the Section 3 maintenance step that bounds every machine's
        staleness by ``O(sqrt N)`` updates.  The refresh is always deferred;
        outside a :meth:`batched` scope it is flushed at once.  Inside one
        the batch pays one merged round for all its updates instead of one
        round each (the pointer still advances once per update, so the
        staleness bound holds), and a batch larger than the history buffer
        can absorb flushes mid-batch, charged to the update in progress.
        """
        self._deferred_refreshes += 1
        if not self._batch_depth or self._deferred_refreshes >= self._max_deferred_refreshes:
            self.flush_deferred_refreshes()

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
        allocated = self._allocated
        if not count or not allocated:
            return 0
        # the next ``count`` picks of the pointer, each machine once, in pick order
        start = self._refresh_pointer % len(allocated)
        self._refresh_pointer += count
        pending = allocated[start : start + count]
        if len(pending) < count:  # the picks wrap past the end of the list
            pending += allocated[: min(start, count - len(pending))]
        self._contact("refresh", [(machine_id, None, 0) for machine_id in pending])
        return len(pending)

    def update_vertex(self, v: int, stats: StatsView, query: str | None = None, *, exclude: tuple[int, ...] = ()) -> dict:
        """The paper's ``updateVertex``: refresh ``v``'s alive machine and optionally query it.

        Sends one message coordinator → alive machine carrying the pending
        history plus the query, and one reply back (2 rounds, 2 active
        machines, O(sqrt N) words).  Supported queries
        (:meth:`_answer_vertex`), each skipping the neighbours in ``exclude``:

        * ``"free-neighbor"`` — a neighbour of ``v`` that is currently
          unmatched according to the machine's (now refreshed) status map;
        * ``"matched-neighbors"`` — up to ``threshold`` pairs
          ``(w, mate(w))`` for matched alive neighbours of ``v``;
        * ``None`` — no query, pure refresh.

        Returns the reply payload dict.
        """
        request = {"vertex": v, "query": query or "", "exclude": exclude}
        return self._ask("vertex-update", "vertex-reply", [(self._ensure_alive_machine(v, stats), request, 4)], self._answer_vertex)[0]

    def _answer_vertex(self, table: EdgeTable, request: dict) -> dict:
        """The alive machine's ``vertex-reply`` to a ``vertex-update`` request."""
        query = request["query"]
        if not query:  # a pure refresh: the hot path reads nothing more
            return {"free": None, "matched": []}
        v, exclude = request["vertex"], request["exclude"]
        if query == "free-neighbor":
            return {"free": table.first_free(v, exclude), "matched": []}
        if query == "matched-neighbors":
            status = table.status
            matched = ((w, status[w]) for w in sorted(table.row(v)) if w not in exclude and status.get(w) is not None)
            return {"free": None, "matched": list(islice(matched, self.threshold))}
        return {"free": None, "matched": []}

    def scan_suspended_for_free(self, v: int, stats: StatsView) -> int | None:
        """Fallback scan of ``v``'s suspended machines for a free neighbour (2 rounds): the first
        candidate the coordinator drains, the first-registered machine's, not the stack top's."""
        if not stats.suspended_machines:
            return None
        targets = [(machine_id, v, 2) for machine_id in stats.suspended_machines]
        for candidate in self._ask("suspended-scan", "suspended-reply", targets, EdgeTable.first_free):
            if candidate is not None:
                return candidate
        return None

    def batch_free_neighbor_query(self, queries: list[tuple[int, StatsView, tuple[int, ...]]]) -> dict[int, int | None]:
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
        by_machine: dict[str, list[tuple[int, list[int]]]] = {}
        for vertex, stats, exclude in queries:
            by_machine.setdefault(self._ensure_alive_machine(vertex, stats), []).append((vertex, list(exclude)))
        targets = [(machine_id, request, 2 * len(request)) for machine_id, request in by_machine.items()]
        replies = self._ask("batch-free-query", "batch-free-reply", targets, _first_free_each)
        return {v: found for reply in replies for v, found in reply}

    def neighbor_list(self, v: int, stats: StatsView) -> list[int]:
        """Fetch ``v``'s (alive) neighbour list through the coordinator (2 rounds).

        For a light vertex this is its entire adjacency list; the Section 4
        algorithm uses it to push free-neighbour-counter deltas to the
        statistics machines of a vertex whose matching status changed.
        """
        return self._ask("neighbor-list-query", "neighbor-list-reply", [(self._ensure_alive_machine(v, stats), v, 2)], _sorted_row)[0]

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

    # ------------------------------------------------------------ edge moves
    def add_edge_copy(self, v: int, w: int, stats: StatsView, *, neighbor_mate: int | None = None) -> None:
        """Store the copy of edge ``(v, w)`` belonging to ``v`` (the paper's ``addEdge``).

        The copy goes to ``v``'s alive machine if ``v`` is light or its alive
        set is below the threshold, and to the top suspended machine (or a
        freshly allocated one) otherwise.  The coordinator directs the
        placement; the data travels as one message (1 round).
        """
        machine_id = self._ensure_alive_machine(v, stats)
        machines = self._machines
        alive_count = len(self._edge_handle(machines[machine_id]).table.row(v))
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
        [(target, handle)] = self._contact("add-edge", [(target_id, (v, w), closed_form_words("add-edge", (v, w)))])
        handle.table.add_edge(v, w)
        handle.table.place_status(w, neighbor_mate)
        self._commit_edges(target, handle)

    def remove_edge_copy(self, v: int, w: int, stats: StatsView) -> None:
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

    def move_vertex_edges(self, v: int, stats: StatsView, target_id: str) -> None:
        """The paper's ``moveEdges``: relocate ``v``'s alive edges to ``target_id`` (2 rounds).

        The ``move-request`` brings the source current before it reads the
        rows, and the ``move-edges`` message that carries the ``(w, status)``
        rows brings the target current before they are written — which is
        also what keeps batched application (deferred maintenance)
        byte-identical to sequential application.
        """
        source_id = stats.alive_machine
        if source_id is None or source_id == target_id:
            stats.alive_machine = target_id
            return
        [(source, source_handle)] = self._contact("move-request", [(source_id, v, closed_form_words("move-request", v))])
        status = source_handle.table.status
        rows = [(w, status.get(w)) for w in source_handle.table.row(v)]
        moved = {"vertex": v, "rows": rows}
        [(target, target_handle)] = self._contact("move-edges", [(target_id, moved, 2 * len(rows) + 4)], sender=source)
        if source_id in self._light_machines:
            source_handle.table.pop_row(v)
            self._commit_edges(source, source_handle)
        else:
            # ``v`` had the machine to itself (it was heavy before): without
            # the release every re-crossing of the threshold leaks a machine.
            self._release_machine(source_id)
        target_handle.table.set_row(v, {w: True for w, _mate in rows})
        for w, mate in rows:
            target_handle.table.place_status(w, mate)
        self._commit_edges(target, target_handle)
        stats.alive_machine = target_id
        if target_id not in self._light_machines and stats.degree < self.threshold:
            self._light_machines[target_id] = target

    def fetch_suspended(self, v: int, stats: StatsView) -> None:
        """The paper's ``fetchSuspended``: refill ``v``'s alive set from its suspended stack (2 rounds)."""
        alive_id = stats.alive_machine
        if not stats.suspended_machines or alive_id is None:
            return
        need = self.threshold - len(self._edge_handle(self._machines[alive_id]).table.row(v))
        if need <= 0:
            return
        top_id = stats.suspended_machines[-1]
        [(top, top_handle)] = self._contact("fetch-suspended", [(top_id, (v, need), closed_form_words("fetch-suspended", (v, need)))])
        top_table = top_handle.table
        rows = [(w, top_table.status.get(w)) for w in sorted(top_table.row(v))[:need]]
        moved = {"vertex": v, "rows": rows}
        [(alive, alive_handle)] = self._contact("suspended-edges", [(alive_id, moved, 2 * len(rows) + 4)], sender=top)
        alive_table = alive_handle.table
        alive_table.ensure_row(v)  # the alive set is stored even when nothing moved
        for w, mate in rows:
            top_table.discard_edge(v, w)
            alive_table.add_edge(v, w)
            alive_table.place_status(w, mate)
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
            stats = self.stats_of(v)
            stats.degree, stats.mate, stats.heavy = degree, mate.get(v), degree >= self.threshold
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
                    stats.suspended_machines = [*stats.suspended_machines, suspended_id]
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
