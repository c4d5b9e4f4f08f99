"""The one state layout of every hot path: CSR adjacency, struct-of-arrays stats, edge tables, tour pairs.

Every static baseline stores its machine's adjacency as one flat CSR
value, the dynamic matching fabric one vertex table per statistics
machine and one edge table per edge machine, dynamic connectivity one
tour record table per worker.  The seed
stored one dict object per vertex key (adjacency, weights, statistics,
tour, edge records) and paid python-dict overhead twice per superstep,
walking the entries and re-serializing them for the resident wire.  The
flat tables charge the words those per-key stores did (the per-vertex
constants below), so every message, round and word is unchanged.
``layout="csr"`` is accepted, as a literal, by the constructors the
benchmark calls (:func:`check_layout`).  This module owns:

:class:`MachineCSR`
    one machine's owned adjacency as contiguous ``array('q')``/``array('d')``
    buffers (``verts``/``indptr``/``indices``/``weights``) plus the per-entry
    partition owners (``owner_pos``), a materialized pure function of them
    that every kernel buckets its sends by.  Stored under
    the single ``"csr"`` key behind the ordinary
    :class:`~repro.runtime.base.MachineStorage` seam, so every backend ships
    it like any other store value (one pickle buffer, no per-key framing).
:class:`AliveTable`
    the matching kernels' shared edge-liveness bitmap: one ``bytearray``
    over CSR entries per machine.  Class-wrapped on purpose — marshal
    silently corrupts naked buffers (decodes ``bytearray`` as ``bytes``),
    and a class instance forces the wire codec onto its buffer-lifted path
    (see :func:`repro.runtime.wire.register_wire_type`).
:class:`FrozenChargeHandle`
    what a machine stores for each mutable per-machine table (stats, edge
    and tour tables alike).  A handle freezes its word charge when it is
    minted (``dmpc_words`` returns a constant), because the two storage
    accounting disciplines disagree about live mutation: the reference
    storage re-sizes the *current* value on overwrite while the cached
    storage releases the charge it recorded at store time.  Every table
    commits by one rule (:meth:`FrozenChargeHandle.commit`): re-store the
    handle the machine holds while its frozen charge still equals the
    table's ``live_words()`` (both storages then leave the total alone —
    the cached one without sizing anything), and mint a fresh handle when
    the charge moved (both release the old frozen charge and add the new
    one).  Totals are identical on every backend, and each table keeps its
    live charge in a running counter, so a commit is O(1).
:class:`StatsTable` / :class:`StatsView`
    the dynamic fabric's vertex statistics as struct-of-arrays per stats
    machine, one table per machine instead of one object per vertex:
    ``live_words`` reads two counters, and a suspended stack changes only
    through its record's setter, which moves the second one.
:class:`EdgeTable`
    one Section-3 edge machine's records indexed by vertex: adjacency rows
    ``v -> {w: True}`` and status records ``w -> mate``, with the word
    counter the per-key records were charged.
:class:`TourShard` / :class:`TourPairs`
    dynamic connectivity's Euler-tour state as one record table per machine
    (plain dicts, no arrays): every tour index lives once, in the index pair
    of its tree-edge record.  One cluster-wide position index per component
    names the pair end at every tour position, so a link / cut rewrites the
    span of the tour that moves and no other.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Iterable, Mapping

from repro.mpc.sizing import string_words
from repro.runtime.wire import register_wire_type

__all__ = [
    "check_layout",
    "MachineCSR",
    "build_machine_csr",
    "AliveTable",
    "StatsTable",
    "StatsView",
    "OverflowStats",
    "FrozenChargeHandle",
    "is_live_record",
    "EDGE_TABLE_KEY",
    "EdgeTable",
    "TourShard",
    "TourPairs",
]

def check_layout(layout: str) -> None:
    """Refuse any state layout but ``"csr"``, the one every hot path has.

    The ``layout=`` argument survives on the constructors the benchmark
    calls, as a literal: it selects nothing.
    """
    if layout != "csr":
        raise ValueError(f"unknown state layout {layout!r}; the only layout is 'csr'")


# --------------------------------------------------------------------- CSR
def _array_words(buf: "array | None") -> int:
    if buf is None:
        return 0
    return (len(buf) * buf.itemsize + 7) // 8 or 1


class MachineCSR:
    """One machine's owned adjacency in CSR form.

    ``verts[i]`` is the ``i``-th owned vertex (owned order), its neighbors
    are ``indices[indptr[i]:indptr[i+1]]`` in ascending order, with parallel
    ``weights`` when the graph is weighted.  ``owner_pos[e]`` is the
    :func:`~repro.mpc.partition.hash_partition` owner of ``indices[e]`` as
    an index into the cluster's worker-id list, hoisted out of the per-round
    loops: a pure function of ``(indices, worker ids)`` — materialized
    ownership, not extra state — so ``dmpc_words`` charges only the four
    data buffers (plus a framing word), the words the seed's per-vertex
    adjacency values were charged.
    """

    __slots__ = ("verts", "indptr", "indices", "weights", "owner_pos", "_list_cache")

    def __init__(
        self,
        verts: array,
        indptr: array,
        indices: array,
        weights: "array | None",
        owner_pos: array,
    ) -> None:
        self.verts = verts
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.owner_pos = owner_pos
        self._list_cache: "dict[str, Any] | None" = None

    # ------------------------------------------------------------- accounting
    def dmpc_words(self) -> int:
        return (
            1
            + _array_words(self.verts)
            + _array_words(self.indptr)
            + _array_words(self.indices)
            + _array_words(self.weights)
        )

    # ------------------------------------------------------------------ views
    @property
    def num_rows(self) -> int:
        return len(self.verts)

    @property
    def num_entries(self) -> int:
        return len(self.indices)

    def entry_lists(self) -> "dict[str, Any]":
        """Plain-list materializations of the buffers, lazily cached.

        Keys: ``verts``/``indptr``/``indices``/``owner_pos`` as python
        lists, ``weights`` (a list, or ``None`` for unweighted rows) and
        ``row_of``, the owned vertex → row map.  One bulk
        ``array.tolist()`` conversion per process buys C-speed list
        indexing/slicing for kernels whose inner loop stays in python
        (the MST root walk and the CC frontier walk are the clients).
        Never pickled.
        """
        cache = self._list_cache
        if cache is None:
            verts = self.verts.tolist()
            cache = self._list_cache = {
                "verts": verts,
                "indptr": self.indptr.tolist(),
                "indices": self.indices.tolist(),
                "owner_pos": self.owner_pos.tolist(),
                "weights": self.weights.tolist() if self.weights is not None else None,
                "row_of": {v: row for row, v in enumerate(verts)},
            }
        return cache

    # ------------------------------------------------------------ serialization
    def _state(self) -> tuple:
        return (self.verts, self.indptr, self.indices, self.weights, self.owner_pos)

    def __getstate__(self) -> tuple:
        return self._state()

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, MachineCSR):
            return NotImplemented
        return self._state() == other._state()

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("MachineCSR is mutable buffer state; not hashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MachineCSR(rows={self.num_rows}, entries={self.num_entries}, "
            f"weighted={self.weights is not None})"
        )


def build_machine_csr(
    owned: "list[int]",
    neighbors: "Callable[[int], list[int]]",
    weight: "Callable[[int, int], float] | None",
    owner_pos: "Mapping[int, int]",
) -> MachineCSR:
    """Build one machine's CSR from its owned vertices.

    ``neighbors(v)`` must return the neighbor list sorted (every kernel's
    message order depends on per-row order); ``weight`` is ``None`` for
    unweighted workloads, which drops the weights buffer entirely.
    ``owner_pos`` maps every vertex to its owner's position in the worker-id
    list, computed once per cluster, not once per entry.
    """
    verts = array("q", owned)
    indptr = array("q", [0])
    indices = array("q")
    weights: "array | None" = array("d") if weight is not None else None
    for v in owned:
        row = neighbors(v)
        indices.extend(row)
        if weights is not None:
            weights.extend(weight(v, w) for w in row)
        indptr.append(len(indices))
    return MachineCSR(verts, indptr, indices, weights, array("q", map(owner_pos.__getitem__, indices)))


# -------------------------------------------------------------- alive table
class AliveTable:
    """Per-machine edge-liveness bitmaps for the CSR matching kernels.

    ``rows[machine_id][e]`` is 1 while CSR entry ``e`` of that machine is
    still a live (free) edge slot: neither endpoint has announced itself
    matched yet.  Lives in superstep shared state;
    the class wrapper (rather than naked bytearrays) is what routes
    resident ``shared_init`` frames onto the wire codec's buffer-lifted
    path instead of marshal's silent bytearray→bytes corruption.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: "dict[str, bytearray] | None" = None) -> None:
        self.rows: dict[str, bytearray] = rows if rows is not None else {}

    def dmpc_words(self) -> int:
        return 1 + len(self.rows) + sum((len(row) + 7) // 8 or 1 for row in self.rows.values())

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, AliveTable):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("AliveTable is mutable buffer state; not hashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = sum(sum(row) for row in self.rows.values())
        return f"AliveTable(machines={len(self.rows)}, live={live})"


# -------------------------------------------------------------- stats table
#: per-vertex word charge of the seed's per-key stats store: a stored
#: ``(tag, v)`` key cost 3 words (tuple framing + tag + id) and a
#: ``VertexStats`` value ``6 + len(suspended)`` — the flat table charges the
#: same 9 words per occupied slot plus one per suspended entry.
_STATS_WORDS_PER_VERTEX = 9


class StatsTable:
    """Struct-of-arrays vertex statistics for one stats machine's range.

    One flat slot per vertex of the machine's contiguous range partition
    block: ``present`` marks occupancy, ``degree``/``mate``/
    ``free_neighbors`` are ``array('q')`` columns (``mate`` uses ``-1`` for
    "unmatched"), ``heavy`` a bitmap, ``alive`` the per-slot edge-machine
    id (``None`` when absent), and ``suspended`` a sparse per-slot stack —
    only heavy vertices ever hold one, so only non-empty stacks are stored
    and ``suspended_words`` counts their entries (see :class:`_StackRecord`);
    with ``occupied`` that makes :meth:`live_words` O(1).

    The range partition wraps vertex ids past its sizing capacity back onto
    a machine while keeping the original id, so a machine can legitimately
    be asked about a vertex outside its dense block; those land in the
    sparse ``overflow`` dict with the same per-vertex record shape.
    """

    __slots__ = (
        "base",
        "size",
        "present",
        "degree",
        "mate",
        "heavy",
        "free_neighbors",
        "alive",
        "suspended",
        "suspended_words",
        "occupied",
        "overflow",
    )

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size
        self.present = bytearray(size)
        self.degree = array("q", bytes(8 * size))
        self.mate = array("q", [-1]) * size
        self.heavy = bytearray(size)
        self.free_neighbors = array("q", bytes(8 * size))
        self.alive: "list[str | None]" = [None] * size
        self.suspended: "dict[int, tuple[str, ...]]" = {}
        self.suspended_words = 0
        self.occupied = 0
        self.overflow: "dict[int, OverflowStats]" = {}

    # ------------------------------------------------------------------ slots
    def has(self, vertex: int) -> bool:
        offset = vertex - self.base
        if 0 <= offset < self.size:
            return bool(self.present[offset])
        return vertex in self.overflow

    def ensure(self, vertex: int) -> "StatsView | OverflowStats":
        """The live record for ``vertex``, occupying its slot if fresh."""
        offset = vertex - self.base
        if not 0 <= offset < self.size:
            record = self.overflow.get(vertex)
            if record is None:
                record = self.overflow[vertex] = OverflowStats(self, offset)
            return record
        if not self.present[offset]:
            self.present[offset] = 1
            self.occupied += 1
        return StatsView(self, offset)

    def view(self, vertex: int) -> "StatsView | OverflowStats | None":
        """The live record for ``vertex``, or ``None`` when never stored."""
        offset = vertex - self.base
        if not 0 <= offset < self.size:
            return self.overflow.get(vertex)
        if self.present[offset]:
            return StatsView(self, offset)
        return None

    def matched_pairs(self) -> "list[tuple[int, int]]":
        """``(vertex, mate)`` for every stored vertex with a mate set."""
        base = self.base
        mate = self.mate
        pairs = [
            (base + offset, mate[offset])
            for offset, present in enumerate(self.present)
            if present and mate[offset] != -1
        ]
        pairs.extend(
            (vertex, record.mate) for vertex, record in self.overflow.items() if record.mate is not None
        )
        return pairs

    def live_words(self) -> int:
        """Current word footprint, charged as the seed's per-vertex keys were."""
        return _STATS_WORDS_PER_VERTEX * (self.occupied + len(self.overflow)) + self.suspended_words

    def payloads(self, items: "Iterable[tuple[int, Any]]") -> "tuple[list[tuple[int, dict[str, Any]]], int]":
        """The statistics protocol's ``[(vertex, payload)]`` for ``items``, built in one pass, and its ``word_size``.

        ``items`` are ``(vertex, record)`` pairs.  A view of this table is
        read off its slot's columns; ``None`` stands for the blank record of
        an unstored vertex; any other record (a ``VertexStats``, an overflow
        record, another table's view) gives its own ``as_payload()``.  The
        words are what ``stats-reply`` and ``stats-write`` are charged beyond
        their tag: the list's framing word, then per entry the tuple, the
        vertex and the dict's six keys and four scalars (16 words) plus the
        ``string_words`` of the alive machine and of each suspended one.
        """
        degree, mate, heavy, free = self.degree, self.mate, self.heavy, self.free_neighbors
        alive, suspended = self.alive, self.suspended
        entries = []
        words = 1
        for vertex, record in items:
            if record is None:
                payload = {"degree": 0, "mate": -1, "heavy": False, "alive": "", "suspended": [], "free_neighbors": 0}
            elif record.__class__ is StatsView and record._table is self:
                slot = record._slot
                payload = {
                    "degree": degree[slot],
                    "mate": mate[slot],
                    "heavy": bool(heavy[slot]),
                    "alive": alive[slot] or "",
                    "suspended": list(suspended.get(slot, ())),
                    "free_neighbors": free[slot],
                }
            else:
                payload = record.as_payload()
            entries.append((vertex, payload))
            words += 16 + ((len(payload["alive"]) + 7) // 8 or 1)
            for name in payload["suspended"]:
                words += (len(name) + 7) // 8 or 1
        return entries, words


class _StackRecord:
    """What both record kinds of a :class:`StatsTable` share: the suspended
    stack, an immutable tuple in ``table.suspended`` under the record's
    slot (an overflow record's lies outside the dense block), replaced only
    by the setter, which moves ``table.suspended_words`` by the difference."""

    __slots__ = ("_table", "_slot")

    def __init__(self, table: StatsTable, slot: int) -> None:
        self._table = table
        self._slot = slot

    @property
    def vertex(self) -> int:
        return self._table.base + self._slot

    @property
    def suspended_machines(self) -> "tuple[str, ...]":
        return self._table.suspended.get(self._slot, ())

    @suspended_machines.setter
    def suspended_machines(self, value: "Iterable[str]") -> None:
        table = self._table
        stack = tuple(value)
        table.suspended_words += len(stack) - len(table.suspended.pop(self._slot, ()))
        if stack:
            table.suspended[self._slot] = stack

    def dmpc_words(self) -> int:
        return 6 + len(self.suspended_machines)


def is_live_record(stats: Any, table: StatsTable, vertex: int) -> bool:
    """Whether ``stats`` is ``table``'s own live record of ``vertex`` (writing it back would copy a
    slot onto itself).  Views are minted per read: table and slot are compared, not object identity."""
    return isinstance(stats, _StackRecord) and stats._table is table and stats._slot == vertex - table.base


class StatsView(_StackRecord):
    """Write-through view of one :class:`StatsTable` slot.

    Duck-typed to :class:`repro.dynamic_mpc.state.VertexStats`: same
    attribute names, same payload dict, same word charge — callers mutate
    it like a ``VertexStats`` object, and every mutation lands in the flat
    columns.
    """

    __slots__ = ()

    # ------------------------------------------------------------- attributes
    @property
    def degree(self) -> int:
        return self._table.degree[self._slot]

    @degree.setter
    def degree(self, value: int) -> None:
        self._table.degree[self._slot] = value

    @property
    def mate(self) -> "int | None":
        value = self._table.mate[self._slot]
        return None if value == -1 else value

    @mate.setter
    def mate(self, value: "int | None") -> None:
        self._table.mate[self._slot] = -1 if value is None else value

    @property
    def heavy(self) -> bool:
        return bool(self._table.heavy[self._slot])

    @heavy.setter
    def heavy(self, value: bool) -> None:
        self._table.heavy[self._slot] = 1 if value else 0

    @property
    def free_neighbors(self) -> int:
        return self._table.free_neighbors[self._slot]

    @free_neighbors.setter
    def free_neighbors(self, value: int) -> None:
        self._table.free_neighbors[self._slot] = value

    @property
    def alive_machine(self) -> "str | None":
        return self._table.alive[self._slot]

    @alive_machine.setter
    def alive_machine(self, value: "str | None") -> None:
        self._table.alive[self._slot] = value

    def as_payload(self) -> "dict[str, Any]":
        """Same wire dict as ``VertexStats.as_payload`` (payload parity)."""
        table = self._table
        slot = self._slot
        return {
            "degree": table.degree[slot],
            "mate": table.mate[slot],
            "heavy": bool(table.heavy[slot]),
            "alive": table.alive[slot] or "",
            "suspended": list(table.suspended.get(slot, ())),
            "free_neighbors": table.free_neighbors[slot],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StatsView(v={self.vertex}, degree={self.degree}, mate={self.mate}, "
            f"heavy={self.heavy}, free={self.free_neighbors})"
        )


class OverflowStats(_StackRecord):
    """Sparse record for a vertex outside its table's dense block.

    Same attribute surface, payload dict and word charge as
    :class:`StatsView` / ``VertexStats`` — callers never observe which of
    the three they hold.
    """

    __slots__ = ("degree", "mate", "heavy", "alive_machine", "free_neighbors")

    def __init__(self, table: StatsTable, slot: int) -> None:
        super().__init__(table, slot)
        self.degree = 0
        self.mate: "int | None" = None
        self.heavy = False
        self.alive_machine: "str | None" = None
        self.free_neighbors = 0

    def as_payload(self) -> "dict[str, Any]":
        return {
            "degree": self.degree,
            "mate": self.mate if self.mate is not None else -1,
            "heavy": self.heavy,
            "alive": self.alive_machine or "",
            "suspended": list(self.suspended_machines),
            "free_neighbors": self.free_neighbors,
        }


class FrozenChargeHandle:
    """What a machine stores for one mutable table: the table, and the word charge frozen when the handle was minted.

    ``table`` is any per-machine table with a ``live_words()`` method
    (:class:`StatsTable`, :class:`EdgeTable`, :class:`TourShard`), the
    charge its stored value stands for.  The table mutates in place; the
    handle is committed after every mutating operation by :meth:`commit`.
    """

    __slots__ = ("table", "_words")

    def __init__(self, table: Any) -> None:
        self.table = table
        words = table.live_words()
        self._words = words if words > 1 else 1

    def dmpc_words(self) -> int:
        return self._words

    def commit(self, machine: Any, key: Any) -> None:
        """Store this handle under ``key`` while its frozen charge holds, else a fresh one over the same table.

        Re-storing the object a machine holds is both storages' in-place
        path (version bump; the reference re-sizes the same frozen charge,
        the cached storage sizes nothing), exact only while the charge did
        not move.  A fresh handle makes both release the old frozen charge
        and add the new one.  Under ``strict_memory`` an overflowing commit
        raises after the table changed: the machine's table is then
        undefined, as the run is over.
        """
        words = self.table.live_words()
        holds = self._words == (words if words > 1 else 1)
        machine.store(key, self if holds else FrozenChargeHandle(self.table))

    def __getstate__(self) -> tuple:
        return (self.table, self._words)

    def __setstate__(self, state: tuple) -> None:
        self.table, self._words = state


# --------------------------------------------------------------- edge table
#: the key an edge machine stores its table under, and the words it costs
EDGE_TABLE_KEY = "edges"
_EDGE_KEY_WORDS = string_words(EDGE_TABLE_KEY)
#: the per-key charges the table keeps: an ``("adj", v)`` key cost 3 words
#: and its ``{w: True}`` value 1 + 2 per neighbour; a ``("status", w)`` key 3
#: and its mate (or ``None``) 1
_ROW_WORDS = 4
_NEIGHBOR_WORDS = 2
_STATUS_WORDS = 4


class EdgeTable:
    """One Section-3 edge machine's records, indexed by vertex.

    ``adj``
        vertex → ``{neighbour: True}``, the copies of the vertex's edges
        this machine holds (a row may be empty: the vertex is placed here
        and owns no copy at the moment);
    ``status``
        neighbour → its mate (``None`` when free), one record per vertex
        some row here names, kept current by history replay.

    ``words`` is the running charge of the per-key records the table
    replaced: 4 + 2·|row| per row, 4 per status record.  Every method that
    changes the record set moves it; the rows and statuses are not to be
    edited from outside.  A status record stays until the machine is
    cleared, as the per-key records did.  An empty table is not stored at
    all (the caller deletes the key), as a machine without records held no
    key.
    """

    __slots__ = ("adj", "status", "words")

    def __init__(self) -> None:
        self.adj: "dict[int, dict[int, bool]]" = {}
        self.status: "dict[int, int | None]" = {}
        self.words = 0

    def row(self, vertex: int) -> "dict[int, bool]":
        """``vertex``'s row, read-only (an empty dict when absent)."""
        return self.adj.get(vertex) or {}

    def ensure_row(self, vertex: int) -> "dict[int, bool]":
        """``vertex``'s row, placed here empty unless it has one."""
        row = self.adj.get(vertex)
        if row is None:
            row = self.adj[vertex] = {}
            self.words += _ROW_WORDS
        return row

    def set_row(self, vertex: int, row: "dict[int, bool]") -> None:
        """Make ``row`` (the table takes ownership) ``vertex``'s row, replacing any."""
        old = self.adj.get(vertex)
        self.words += _NEIGHBOR_WORDS * len(row) - (_NEIGHBOR_WORDS * len(old) if old is not None else -_ROW_WORDS)
        self.adj[vertex] = row

    def pop_row(self, vertex: int) -> "dict[int, bool] | None":
        """Remove and return ``vertex``'s row (``None`` when absent)."""
        row = self.adj.pop(vertex, None)
        if row is not None:
            self.words -= _ROW_WORDS + _NEIGHBOR_WORDS * len(row)
        return row

    def add_edge(self, vertex: int, neighbor: int) -> None:
        """Add the copy of ``(vertex, neighbor)`` to ``vertex``'s row, placing the row if needed."""
        row = self.ensure_row(vertex)
        if neighbor not in row:
            row[neighbor] = True
            self.words += _NEIGHBOR_WORDS

    def discard_edge(self, vertex: int, neighbor: int) -> bool:
        """Drop the copy of ``(vertex, neighbor)`` if it is here; whether it was."""
        row = self.adj.get(vertex)
        if row is None or neighbor not in row:
            return False
        del row[neighbor]
        self.words -= _NEIGHBOR_WORDS
        return True

    def place_status(self, vertex: int, mate: "int | None") -> None:
        """Record ``vertex``'s mate unless a record is here already (the one here is current)."""
        if vertex not in self.status:
            self.status[vertex] = mate
            self.words += _STATUS_WORDS

    def replay(self, entries: "Iterable[Any]") -> bool:
        """Apply history entries (``kind``, ``u``, ``v``), oldest first, to the records held here; whether any changed.

        A ``delete`` drops each endpoint's copy of the edge if it is here;
        ``match`` / ``unmatch`` rewrite the status records that are here and
        create none; ``insert`` is skipped — copies are placed during their
        own update, never by replay.  Rows stay, even when emptied.
        """
        adj, status = self.adj, self.status
        dropped = 0
        rewritten = False
        for entry in entries:
            kind = entry.kind
            if kind == "insert":
                continue
            u, v = entry.u, entry.v
            if kind == "delete":
                # a machine holds few of the rows: test membership before fetching one
                if u in adj and v in adj[u]:
                    del adj[u][v]
                    dropped += 1
                if v in adj and u in adj[v]:
                    del adj[v][u]
                    dropped += 1
            elif kind == "match":
                if u in status:
                    status[u] = v
                    rewritten = True
                if v in status:
                    status[v] = u
                    rewritten = True
            elif kind == "unmatch":
                if u in status:
                    status[u] = None
                    rewritten = True
                if v in status:
                    status[v] = None
                    rewritten = True
        self.words -= _NEIGHBOR_WORDS * dropped
        return rewritten or dropped > 0

    def live_words(self) -> int:
        """The charge the table's handle freezes: ``words`` less the ``"edges"`` key's own, so the
        machine total is exactly what the per-key records cost."""
        return self.words - _EDGE_KEY_WORDS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeTable(rows={len(self.adj)}, statuses={len(self.status)}, words={self.words})"


# --------------------------------------------------------------- tour shard
#: the seed's per-key charge for one tour vertex: the ("tour", v) key cost 3 words
#: and its {"comp", "indexes"} value 5 + len(indexes); the ("edges", v) key
#: another 3 and the empty record dict 1.  12 words per vertex plus one per
#: tour index, before edge records.
_TOUR_WORDS_PER_VERTEX = 12


def _edge_record_words(record: "dict[str, Any]") -> int:
    # the seed's per-key charge for one record entry inside the ("edges", v) value:
    # neighbor key (1) + {"tree": bool, "weight": float, "indexes": pair|None}
    # = 8 words for a non-tree record, 10 when the index pair is present, plus
    # the pair's two tour indexes (charged on ("tour", v) by the seed).
    return 10 + 2 if record.get("indexes") is not None else 8


class TourShard:
    """One worker machine's slice of every Euler-tour forest: its vertices' tree and non-tree records.

    A vertex's tour occurrences are exactly the index pairs of its tree-edge
    records (``index_v = ⋃ pair(v, w)`` over tree neighbours ``w``: the
    child's copy of an edge holds its own first/last appearance, the parent's
    copy the two positions bracketing them), so the shard stores **every tour
    index once** — in the mutable ``[lo, hi]`` pair of the record that
    produced it — and derives ``f(v)`` / ``l(v)`` / ``index_v`` on demand:

    ``comp``
        vertex → component id,
    ``edges``
        vertex → {neighbor → ``{"tree", "weight", "indexes"}`` record}
        (a tree record's ``"indexes"`` *is* its tree-row pair, kept sorted),
    ``tree``
        vertex → {tree neighbor → pair}: the row ``span`` / ``index_set``
        derive a vertex's occurrences from,
    ``by_comp``
        component id → vertex set: singletons, ``components()`` and the MST
        path-maximum scan iterate a component's members instead of every key
        on the machine.

    The shard rewrites no index: one :class:`TourPairs` position index per
    cluster holds its pairs and rewrites the ones that move.

    Word accounting is incremental (``live_words`` is O(1)) and charges
    what the seed's per-vertex keys did: 12 words per vertex plus one per
    tour index, 10 / 8 per tree / non-tree record.  Only ``add_vertex`` /
    ``set_edge`` / ``pop_edge`` move it; an index shift never does.
    """

    __slots__ = ("comp", "edges", "tree", "by_comp", "_words")

    def __init__(self) -> None:
        self.comp: "dict[int, int]" = {}
        self.edges: "dict[int, dict[int, dict[str, Any]]]" = {}
        self.tree: "dict[int, dict[int, list[int]]]" = {}
        self.by_comp: "dict[int, set[int]]" = {}
        self._words = 0

    # ------------------------------------------------------------------ tours
    def add_vertex(self, vertex: int, comp: int) -> None:
        """Place a fresh vertex in ``comp`` (empty edge row, no tour occurrence)."""
        self.comp[vertex] = comp
        self.edges[vertex] = {}
        self.tree[vertex] = {}
        self.by_comp.setdefault(comp, set()).add(vertex)
        self._words += _TOUR_WORDS_PER_VERTEX

    def span(self, vertex: int) -> "tuple[int, int]":
        """``(f(v), l(v))`` derived from the tree row, ``(0, 0)`` for a singleton."""
        pairs = self.tree[vertex].values()
        if not pairs:
            return (0, 0)
        return min(pair[0] for pair in pairs), max(pair[1] for pair in pairs)

    def index_set(self, vertex: int) -> "set[int]":
        """The derived occurrence set ``index_v`` (two indexes per tree record)."""
        return {i for pair in self.tree[vertex].values() for i in pair}

    def move(self, vertices: "set[int]", comp: int, new_comp: int) -> None:
        """Relabel ``vertices``, members of ``comp`` here, as members of ``new_comp`` (the shard keeps the set)."""
        for v in vertices:
            self.comp[v] = new_comp
        members = self.by_comp.pop(comp)
        if members is not vertices:
            members -= vertices
            if members:
                self.by_comp[comp] = members
        into = self.by_comp.setdefault(new_comp, vertices)
        if into is not vertices:
            into |= vertices

    # ------------------------------------------------------------------ edges
    def edge_row(self, vertex: int) -> "dict[int, dict[str, Any]]":
        return self.edges.get(vertex, {})

    def set_edge(self, vertex: int, neighbor: int, record: "dict[str, Any]") -> "list[int] | None":
        """Store ``record`` (the shard takes ownership); ``KeyError`` for an unknown vertex.

        Returns a tree record's pair, the one list its record and tree row now share.
        """
        row = self.edges[vertex]
        self.pop_edge(vertex, neighbor)
        pair = record.get("indexes")
        if pair is not None:
            lo, hi = pair
            pair = record["indexes"] = self.tree[vertex][neighbor] = [lo, hi] if lo <= hi else [hi, lo]
        row[neighbor] = record
        self._words += _edge_record_words(record)
        return pair

    def pop_edge(self, vertex: int, neighbor: int) -> "list[int] | None":
        """Drop the record of ``(vertex, neighbor)`` if there is one; returns its pair if it was a tree record."""
        row = self.edges.get(vertex)
        old = row.pop(neighbor, None) if row else None
        if old is None:
            return None
        self._words -= _edge_record_words(old)
        return self.tree[vertex].pop(neighbor, None)

    # ------------------------------------------------------------- accounting
    def live_words(self) -> int:
        """Current word footprint (incrementally maintained, O(1))."""
        return self._words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TourShard(vertices={len(self.comp)}, comps={len(self.by_comp)}, "
            f"words={self._words})"
        )


def _place(block: "list[tuple]", start: int) -> None:
    """Write each slot's tour position, counted from ``start``, into the end of the pair it holds."""
    for position, (_v, _w, pair, end) in enumerate(block, start):
        pair[end] = position


def _rotated(tour: "list[tuple]", first: int, start: int) -> "list[tuple]":
    """A subtree's slots ``tour`` rotated to begin at ``tour[first]`` (``0``: as they are) and placed from ``start``.

    A pair whose lower end wrapped round comes out reversed: it is re-sorted
    and its two slots trade ends.  Only the wrapped slots can hold one.
    """
    rotated = tour[first:] + tour[:first]
    _place(rotated, start)
    for v, w, pair, end in rotated[len(tour) - first :]:
        if end == 0 and pair[0] > pair[1]:
            lo, hi = pair[1], pair[0]
            pair[0], pair[1] = lo, hi
            rotated[lo - start] = (v, w, pair, 0)
            rotated[hi - start] = (v, w, pair, 1)
    return rotated


class TourPairs:
    """Every tree pair of a cluster's tour shards, one position index per component: ``comp → slots``.

    ``slots[p]``, for tour position ``p`` in ``1..4(k-1)``, is the pair end
    that sits there: ``(v, w, pair, end)`` with ``pair[end] == p``, where
    ``pair`` is the ``[lo, hi]`` list of the tree record ``(v, w)`` on
    ``v``'s shard — the very object that record and its tree row hold, so a
    pass that writes it moves the record.  ``slots[0]`` is ``None``: a list
    index is a tour position, and a slice of the list is a span of the tour.
    The shard still owns and is charged for the pair; the index lets a
    broadcast rewrite visit only the positions that move, not every pair of
    the component.  A component without a tree edge has no entry.

    Records change through :meth:`set_edge` / :meth:`pop_edge`, which edit
    shard and index together, filling or clearing the pair's two slots.  A
    cut edge's positions stay ``None`` from its records' pop until the pass
    that applies the cut drops them; a new edge's are ``None`` from the link
    pass until its records are set.  A pass relabels no vertex on its shard:
    the caller moves all of ``comp_y`` after :meth:`link`, and what
    :meth:`cut` returns (:meth:`TourShard.move`).
    """

    __slots__ = ("comps",)

    def __init__(self) -> None:
        self.comps: "dict[int, list[tuple | None]]" = {}

    @classmethod
    def from_shards(cls, shards: "Iterable[TourShard]") -> "TourPairs":
        """The index of ``shards``' tree records, rebuilt from the records' own pairs."""
        pairs = cls()
        for shard in shards:
            for v, row in shard.edges.items():
                for w, record in row.items():
                    pair = record.get("indexes")
                    if pair is not None:
                        pairs._fill(shard.comp[v], v, w, pair)
        return pairs

    def mismatch(self, shards: "Iterable[TourShard]") -> "str | None":
        """What breaks the one-to-one match of the index with ``shards``' tree records, else ``None``.

        Every position of a component's index holds exactly one pair end,
        ``pair[end]`` reads that position and the pair is sorted; the pairs
        held are exactly the tree records' pairs of the component's
        vertices, each the record's own object, and no two records share
        one.  O(pairs).
        """
        records: "dict[int, dict[int, tuple[int, int]]]" = {}
        seen: "set[int]" = set()
        for shard in shards:
            for v, row in shard.edges.items():
                for w, record in row.items():
                    pair = record.get("indexes")
                    if pair is not None:
                        if id(pair) in seen:
                            return "two tree records share one pair"
                        seen.add(id(pair))
                        records.setdefault(shard.comp[v], {})[id(pair)] = (v, w)
        for comp in sorted(self.comps.keys() | records.keys()):
            slots = self.comps.get(comp, [None])
            held = records.get(comp, {})
            if slots[0] is not None:
                return f"component {comp}: position 0 holds a pair end"
            for position in range(1, len(slots)):
                slot = slots[position]
                if slot is None:
                    return f"component {comp}: position {position} holds no pair end"
                v, w, pair, end = slot
                if pair[end] != position:
                    return f"component {comp}: position {position} holds end {end} of ({v}, {w})'s pair {pair}"
                if pair[0] >= pair[1]:
                    return f"component {comp}: position {position} holds ({v}, {w})'s unsorted pair {pair}"
                if held.get(id(pair)) != (v, w):
                    return f"component {comp}: position {position} holds a pair no tree record ({v}, {w}) of the component holds"
            if len(slots) - 1 != 2 * len(held):
                return f"component {comp}: {len(slots) - 1} positions index {len(held)} tree records' pairs"
        return None

    # ------------------------------------------------------------------ edges
    def _fill(self, comp: int, vertex: int, neighbor: int, pair: "list[int]") -> None:
        slots = self.comps.get(comp)
        if slots is None:
            slots = self.comps[comp] = [None]
        lo, hi = pair
        if len(slots) <= hi:
            slots.extend([None] * (hi + 1 - len(slots)))
        slots[lo] = (vertex, neighbor, pair, 0)
        slots[hi] = (vertex, neighbor, pair, 1)

    def set_edge(self, shard: TourShard, vertex: int, neighbor: int, record: "dict[str, Any]") -> None:
        """:meth:`TourShard.set_edge`, filling a tree record's two slots in ``vertex``'s component."""
        if neighbor in shard.tree[vertex]:  # a tree record it replaces leaves the index (KeyError: unknown vertex)
            self.pop_edge(shard, vertex, neighbor)
        pair = shard.set_edge(vertex, neighbor, record)
        if pair is not None:
            self._fill(shard.comp[vertex], vertex, neighbor, pair)

    def pop_edge(self, shard: TourShard, vertex: int, neighbor: int) -> None:
        """:meth:`TourShard.pop_edge`, clearing a tree record's two slots."""
        pair = shard.pop_edge(vertex, neighbor)
        if pair is not None:
            slots = self.comps[shard.comp[vertex]]
            slots[pair[0]] = slots[pair[1]] = None

    # ----------------------------------------------------------------- passes
    def link(self, comp_x: int, comp_y: int, f_x: int, l_y: int, len_y: int, reroot: bool) -> None:
        """Splice ``comp_y``'s index into ``comp_x``'s for a broadcast link.

        ``T_y`` is rotated to ``y`` when ``reroot`` and lands at ``f_x + 3``,
        between the new edge's two pairs of holes; ``T_x`` past ``f_x`` makes
        room (``+len_y+4``).  The new edge's own two pairs arrive with its
        records (:meth:`set_edge`).
        """
        held_y = self.comps.pop(comp_y, None)
        tour = _rotated(held_y[1:] if held_y is not None else [], l_y - 1 if reroot else 0, f_x + 3)
        slots = self.comps.get(comp_x)
        if slots is None:
            slots = self.comps[comp_x] = [None]
        slots[f_x + 1 : f_x + 1] = [None, None, *tour, None, None]
        tail = f_x + len_y + 5
        _place(slots[tail:], tail)

    def cut(self, comp: int, new_comp: int, y: int, f_y: int, l_y: int) -> "set[int]":
        """Split ``y``'s subtree off ``comp``'s index for a broadcast cut; returns the vertices that move to ``new_comp``.

        The cut edge's own records are already gone, and its four positions
        with them.  The slots strictly inside ``[f_y, l_y]`` belong to
        ``y``'s subtree: they drop by ``f_y`` and move, with their vertices,
        to ``new_comp`` (as does ``y`` itself, even when the cut left it a
        singleton); the slots past ``l_y + 1`` close the gap.
        """
        slots = self.comps[comp]
        tour = slots[f_y + 1 : l_y]
        _place(tour, 1)
        moved = {slot[0] for slot in tour}
        moved.add(y)
        if tour:
            self.comps[new_comp] = [None, *tour]
        del slots[f_y - 1 : l_y + 2]
        _place(slots[f_y - 1 :], f_y - 1)
        if len(slots) == 1:
            del self.comps[comp]
        return moved

    def inside(self, comp: int, y: int, f_y: int, l_y: int) -> "set[int]":
        """The vertices of ``y``'s subtree, read before the broadcast cut is applied.

        The cut edge's own records are already gone.  Every pair of a vertex
        lies on one side of the cut, so the subtree's vertices are those the
        slots strictly inside ``[f_y, l_y]`` name; ``y``, whose row may be
        empty, is named.
        """
        inside = {slot[0] for slot in self.comps[comp][f_y + 1 : l_y]}
        inside.add(y)
        return inside

    def cut_link(self, comp: int, f_y: int, l_y: int, f_x: int, l_b: int, len_y: int, reroot: bool) -> None:
        """:meth:`cut` then :meth:`link` of the replacement edge, as one rewrite of the span that moves.

        ``[f_y, l_y]`` is the cut subtree in the tour as it stands; ``f_x``,
        ``l_b``, ``len_y`` and ``reroot`` are the link's scalars as they read
        once the cut is applied.  The subtree's slots are rotated to the
        replacement's endpoint when ``reroot`` and land at ``f_x + 3``,
        between the new edge's holes.  Outside the subtree the cut's
        ``-(len_y + 4)`` and the link's ``+(len_y + 4)`` cancel everywhere
        but between the hole and the attachment point, so the list is
        rewritten from one to the other and nowhere else.  The subtree comes
        back to ``comp``, so no vertex changes component.
        """
        slots = self.comps[comp]
        gap = len_y + 4
        tour = _rotated(slots[f_y + 1 : l_y], l_b - 1 if reroot else 0, f_x + 3)
        if f_x < f_y:  # attached before the hole: what lies between moves up past the subtree
            between = slots[f_x + 1 : f_y - 1]
            _place(between, f_x + gap + 1)
            slots[f_x + 1 : l_y + 2] = [None, None, *tour, None, None, *between]
        else:  # attached after it (f_x has the gap closed already): what lies between moves down
            stop = f_x + gap + 1  # one past the attachment point, in the tour as it stands
            between = slots[l_y + 2 : stop]
            _place(between, f_y - 1)
            slots[f_y - 1 : stop] = [*between, None, None, *tour, None, None]


# ------------------------------------------------------------ wire registry
def _csr_to_wire(csr: MachineCSR) -> tuple:
    return csr._state()


def _csr_from_wire(payload: tuple) -> MachineCSR:
    return MachineCSR(*payload)


def _alive_to_wire(table: AliveTable) -> list:
    return list(table.rows.items())

def _alive_from_wire(payload: list) -> AliveTable:
    return AliveTable({machine_id: row for machine_id, row in payload})


register_wire_type(MachineCSR, "csr", _csr_to_wire, _csr_from_wire)
register_wire_type(AliveTable, "alv", _alive_to_wire, _alive_from_wire)
