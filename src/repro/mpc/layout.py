"""The one state layout of every hot path: CSR adjacency, interning, struct-of-arrays stats, tour pairs.

Every static baseline stores its machine's adjacency as one flat CSR
value, the dynamic matching fabric one vertex table per statistics
machine, dynamic connectivity one tour-pair table per worker.  The seed
stored one dict object per vertex key (adjacency, weights, statistics,
tour, edge records) and paid python-dict overhead twice per superstep,
walking the entries and re-serializing them for the resident wire.  The
flat tables charge the words those per-key stores did (the per-vertex
constants below), so every message, round and word is unchanged.
``layout="csr"`` is accepted, as a literal, by the constructors the
benchmark calls (:func:`check_layout`).  This module owns:

:class:`VertexInterner`
    the dense vertex-ID map built once per static cluster — vertex ids in
    payloads stay raw (bit-identical messages), dense positions index the
    driver-side kernel caches.
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
:class:`StatsTable` / :class:`StatsView` / :class:`StatsTableHandle`
    the dynamic fabric's vertex statistics as struct-of-arrays per stats
    machine, stored as one handle per machine instead of one object per
    vertex.  The handle freezes its word charge at construction
    (``dmpc_words`` returns a constant), because the two storage accounting
    disciplines disagree about live mutation: the reference storage re-sizes
    the *current* value on overwrite while the cached storage releases the
    charge it recorded at store time.  A fresh frozen handle per seam commit
    makes both release the previous frozen charge and add the new one —
    identical totals on every backend, tracking the live table size in O(1):
    ``live_words`` reads two counters, and a suspended stack changes only
    through its record's setter, which moves the second one.
:class:`TourShard` / :class:`TourShardHandle`
    dynamic connectivity's Euler-tour state as one pair table per machine
    (plain dicts, no arrays): every tour index lives once, in the index pair
    of its tree-edge record, shifted in place by the link / cut kernels.

NumPy acceleration is optional everywhere and imported on first use, not
with this module: kernels ask :func:`numpy_or_none` and fall back to
pure-python loops with identical results, so a run that never vectorises
never loads it; buffers are always ``array``/``bytearray`` (never numpy scalars —
``np.int64`` is not an ``int`` subclass and would corrupt both the word
sizer and the marshal wire), with zero-copy ``np.frombuffer`` views built
lazily per process and ``.tolist()`` conversions at every payload boundary.
"""

from __future__ import annotations

import functools
import importlib.util
from array import array
from typing import Any, Callable, Iterable, Mapping

from repro.runtime.wire import register_wire_type

__all__ = [
    "HAVE_NUMPY",
    "numpy_or_none",
    "check_layout",
    "VertexInterner",
    "MachineCSR",
    "build_machine_csr",
    "AliveTable",
    "StatsTable",
    "StatsView",
    "OverflowStats",
    "StatsTableHandle",
    "is_live_record",
    "TourShard",
    "TourShardHandle",
]

#: whether the vectorized kernel paths are available in this interpreter
#: (numpy is installed; nothing is imported until a kernel asks for it).
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


@functools.cache
def numpy_or_none():
    """The numpy module, imported on the first call, else ``None`` (kernel guard)."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def check_layout(layout: str) -> None:
    """Refuse any state layout but ``"csr"``, the one every hot path has.

    The ``layout=`` argument survives on the constructors the benchmark
    calls, as a literal: it selects nothing.
    """
    if layout != "csr":
        raise ValueError(f"unknown state layout {layout!r}; the only layout is 'csr'")


# ---------------------------------------------------------------- interning
class VertexInterner:
    """Dense position per vertex id, fixed at cluster build time.

    Message payloads stay in raw vertex-id space (the messages the seed's
    per-vertex stores sent); the dense side indexes driver-side kernel state
    like the matched bitmap of the matching driver.
    """

    __slots__ = ("vertices", "index")

    def __init__(self, vertices: "Iterable[int]") -> None:
        #: dense position -> vertex id, in the graph's vertex order
        self.vertices: list[int] = list(vertices)
        #: vertex id -> dense position
        self.index: dict[int, int] = {v: i for i, v in enumerate(self.vertices)}

    def __len__(self) -> int:
        return len(self.vertices)

    def dense(self, vertex: int) -> int:
        return self.index[vertex]

    def vertex(self, position: int) -> int:
        return self.vertices[position]


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

    __slots__ = ("verts", "indptr", "indices", "weights", "owner_pos", "_np_cache", "_list_cache")

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
        self._np_cache: "dict[str, Any] | None" = None
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

    def np_views(self) -> "dict[str, Any]":
        """Zero-copy numpy views over the buffers (built lazily per process).

        Keys: ``verts``/``indptr``/``indices`` (+ ``weights`` when present)
        as ``np.frombuffer`` views, ``degrees`` per row, and ``rows`` — the
        row position of every entry.  Never pickled (see ``__getstate__``);
        requires numpy (guard with :func:`numpy_or_none`).
        """
        cache = self._np_cache
        if cache is None:
            np = numpy_or_none()
            indptr = np.frombuffer(self.indptr, dtype=np.int64)
            degrees = np.diff(indptr)
            cache = {
                "verts": np.frombuffer(self.verts, dtype=np.int64) if self.verts else np.empty(0, np.int64),
                "indptr": indptr,
                "indices": np.frombuffer(self.indices, dtype=np.int64) if self.indices else np.empty(0, np.int64),
                "degrees": degrees,
                "rows": np.repeat(np.arange(len(self.verts), dtype=np.int64), degrees),
            }
            if self.weights is not None and len(self.weights):
                cache["weights"] = np.frombuffer(self.weights, dtype=np.float64)
            self._np_cache = cache
        return cache

    def entry_lists(self) -> "dict[str, Any]":
        """Plain-list materializations of the buffers, lazily cached.

        Keys: ``verts``/``indptr``/``indices``/``owner_pos`` as python
        lists, ``weights`` (a list, or ``None`` for unweighted rows) and
        ``row_of``, the owned vertex → row map.  One bulk
        ``array.tolist()`` conversion per process buys C-speed list
        indexing/slicing for kernels whose inner loop stays in python
        (per-machine rows are tens-to-hundreds of entries here, too small
        for per-call numpy dispatch to pay off — the MST root walk and the
        CC frontier walk are the clients).  Never pickled, and numpy-free by
        design so the fallback path benefits equally.
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
    return isinstance(stats, _StackRecord) and stats._table is table and stats.vertex == vertex


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


class StatsTableHandle:
    """The stored value committed at every stats seam mutation.

    Freezes the table's word charge at construction so the reference
    storage (which re-sizes the live value) and the cached storage (which
    releases the charge recorded at store time) account every commit
    identically — see the module docstring.  A fresh handle per commit is
    mandatory: re-storing the *same* object would skip sizing entirely on
    the cached backend while the reference backend re-measured it.
    """

    __slots__ = ("table", "_words")

    def __init__(self, table: StatsTable) -> None:
        self.table = table
        # the stored key ("stats") costs its own word; keep the machine
        # total at exactly live_words() + 1 word of key, minimum 2.
        self._words = max(1, table.live_words())

    def dmpc_words(self) -> int:
        return self._words

    def __getstate__(self) -> tuple:
        return (self.table, self._words)

    def __setstate__(self, state: tuple) -> None:
        self.table, self._words = state


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
    """One worker machine's slice of every Euler-tour forest, as a pair table.

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
        component id → vertex set, maintained by the kernels: singletons,
        ``components()`` and the MST path-maximum scan iterate a component's
        members instead of every key on the machine,
    ``pairs``
        component id → ``[(pair, vertex), ...]``, the tree pairs its members
        hold here (the very lists the tree rows share), in no order: the
        list every kernel walks, so a sweep visits neither a non-tree record
        nor a member's row.

    Three kernels rewrite indexes, each one pass over the touched
    component's pair list: ``apply_link``, ``apply_cut`` and
    ``apply_cut_link`` — a cut and the link of its replacement edge composed,
    so a replaced tree delete rewrites every index once and moves no vertex
    between components.  ``subtree_offers`` is the read-only scan that lets
    the replacement search run before the cut is applied.

    Word accounting is incremental (``live_words`` is O(1)) and charges
    what the seed's per-vertex keys did: 12 words per vertex plus one per
    tour index, 10 / 8 per tree / non-tree record.  Only ``add_vertex`` /
    ``set_edge`` / ``pop_edge`` move it; an index shift never does.
    """

    __slots__ = ("comp", "edges", "tree", "by_comp", "pairs", "_words")

    def __init__(self) -> None:
        self.comp: "dict[int, int]" = {}
        self.edges: "dict[int, dict[int, dict[str, Any]]]" = {}
        self.tree: "dict[int, dict[int, list[int]]]" = {}
        self.by_comp: "dict[int, set[int]]" = {}
        self.pairs: "dict[int, list[tuple[list[int], int]]]" = {}
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

    # ---------------------------------------------------------------- kernels
    def apply_link(self, comp_x: int, comp_y: int, f_x: int, l_y: int, len_y: int, reroot: bool) -> bool:
        """Shift this shard's pairs for a broadcast link; False if it holds neither tree.

        ``T_x`` entries past ``f_x`` make room (``+len_y+4``); ``T_y`` is
        rotated to ``y`` when ``reroot`` — a flipped edge comes out reversed
        and is re-sorted — then offset by ``f_x+2`` and moved into ``comp_x``.
        The new edge's own two pairs arrive with its records (``set_edge``).
        """
        members_x = self.by_comp.get(comp_x)
        members_y = self.by_comp.pop(comp_y, None)
        if not members_x and not members_y:
            return False
        pairs_x = self.pairs.get(comp_x)
        if pairs_x:
            grow = len_y + 4
            for pair, _v in pairs_x:
                if pair[1] > f_x:
                    pair[1] += grow
                    if pair[0] > f_x:
                        pair[0] += grow
        if members_y:
            comp = self.comp
            for v in members_y:
                comp[v] = comp_x
            pairs_y = self.pairs.pop(comp_y, None)
            if pairs_y:
                offset = f_x + 2
                for pair, _v in pairs_y:
                    a, b = pair
                    if reroot:
                        a = (a - l_y) % len_y + 1
                        b = (b - l_y) % len_y + 1
                        if a > b:
                            a, b = b, a
                    pair[0] = a + offset
                    pair[1] = b + offset
                if pairs_x is None:
                    self.pairs[comp_x] = pairs_y
                else:
                    pairs_x += pairs_y
            if members_x:
                members_x |= members_y
            else:
                self.by_comp[comp_x] = members_y
        return True

    def apply_cut(self, comp: int, new_comp: int, y: int, f_y: int, l_y: int) -> bool:
        """Shift this shard's pairs for a broadcast cut; False if it holds none of ``comp``.

        The cut edge's own records are already gone.  A pair inside
        ``[f_y, l_y]`` belongs to ``y``'s subtree: it drops by ``f_y`` and
        moves, with its vertex, to ``new_comp`` (as does ``y`` itself, even
        when the cut left it a singleton); entries past ``l_y`` close the gap.
        """
        members = self.by_comp.get(comp)
        if not members:
            return False
        gap = l_y - f_y + 3
        kept, inner = [], []
        for entry in self.pairs.get(comp, ()):
            pair = entry[0]
            a = pair[0]
            if a > l_y:
                pair[0] = a - gap
                pair[1] -= gap
                kept.append(entry)
            elif a >= f_y:
                pair[0] = a - f_y
                pair[1] -= f_y
                inner.append(entry)
            else:
                if pair[1] > l_y:
                    pair[1] -= gap
                kept.append(entry)
        moved = {v for _pair, v in inner}
        if y in members:
            moved.add(y)
        if moved:
            for v in moved:
                self.comp[v] = new_comp
            members -= moved
            if members:
                self.pairs[comp] = kept
            else:
                del self.by_comp[comp]
                self.pairs.pop(comp, None)
            self.by_comp[new_comp] = moved
            if inner:
                self.pairs[new_comp] = inner
        return True

    def subtree_offers(self, comp: int, y: int, f_y: int, l_y: int) -> "list[tuple[int, int, float]]":
        """Non-tree edges ``(v, w, weight)`` of this shard's vertices inside ``y``'s subtree.

        Read-only, and answered **before** the broadcast cut of ``y`` from its
        parent is applied (the cut edge's own records are already gone): every
        pair of a vertex lies on one side of the cut, so a vertex is inside
        iff one of its pairs lies in ``[f_y, l_y]``, and ``y`` — whose row
        may be empty — is named.  These are the records ``by_comp[new_comp]``
        would hold after :meth:`apply_cut`, in pair-list order.
        """
        members = self.by_comp.get(comp)
        if not members:
            return []
        inside = {}
        for pair, v in self.pairs.get(comp, ()):
            if f_y <= pair[0] <= l_y:
                inside[v] = None
        if y in members:
            inside[y] = None
        offers: "list[tuple[int, int, float]]" = []
        for v in inside:
            for w, record in self.edges[v].items():
                if not record.get("tree"):
                    offers.append((v, w, float(record.get("weight", 1.0))))
        return offers

    def apply_cut_link(self, comp: int, f_y: int, l_y: int, f_x: int, l_b: int, len_y: int, reroot: bool) -> bool:
        """:meth:`apply_cut` then :meth:`apply_link` of the replacement edge, as one rewrite.

        ``[f_y, l_y]`` is the cut subtree in the tour as it stands; ``f_x``,
        ``l_b``, ``len_y`` and ``reroot`` are the link's scalars as they read
        once the cut is applied.  A pair inside the subtree drops by ``f_y``,
        is rotated to the replacement's endpoint when ``reroot``, and lands at
        ``f_x + 2``.  Outside it the cut's ``-(len_y + 4)`` and the link's
        ``+(len_y + 4)`` cancel everywhere but between the hole and the
        attachment point.  The subtree comes back to ``comp``, so no vertex
        changes component.  False if the shard holds none of ``comp``.
        """
        members = self.by_comp.get(comp)
        if not members:
            return False
        gap = len_y + 4
        if f_x < f_y:  # attached before the hole: what lies between moves up past the subtree
            lo, hi, delta = f_x, f_y - 1, gap
            first, last = f_x + 1, l_y
        else:  # attached after it (f_x has the gap closed already): what lies between moves down
            lo, hi, delta = l_y + 1, f_x + gap, -gap
            first, last = f_y, hi
        offset = f_x + 2
        slide = offset - f_y
        turn = f_y + l_b
        for pair, _v in self.pairs.get(comp, ()):
            a, b = pair
            if a > last or b < first:
                continue  # wholly before or past everything that moves
            if f_y <= a <= l_y:
                if reroot:
                    a = (a - turn) % len_y + 1
                    b = (b - turn) % len_y + 1
                    if a > b:
                        a, b = b, a
                    pair[0] = a + offset
                    pair[1] = b + offset
                else:
                    pair[0] = a + slide
                    pair[1] = b + slide
            else:
                if lo < a <= hi:
                    pair[0] = a + delta
                if lo < b <= hi:
                    pair[1] = b + delta
        return True

    # ------------------------------------------------------------------ edges
    def edge_row(self, vertex: int) -> "dict[int, dict[str, Any]]":
        return self.edges.get(vertex, {})

    def set_edge(self, vertex: int, neighbor: int, record: "dict[str, Any]") -> None:
        """Store ``record`` (the shard takes ownership); ``KeyError`` for an unknown vertex."""
        row = self.edges[vertex]
        self.pop_edge(vertex, neighbor)
        pair = record.get("indexes")
        if pair is not None:
            lo, hi = pair
            pair = record["indexes"] = self.tree[vertex][neighbor] = [lo, hi] if lo <= hi else [hi, lo]
            self.pairs.setdefault(self.comp[vertex], []).append((pair, vertex))
        row[neighbor] = record
        self._words += _edge_record_words(record)

    def pop_edge(self, vertex: int, neighbor: int) -> None:
        row = self.edges.get(vertex)
        old = row.pop(neighbor, None) if row else None
        if old is not None:
            self._words -= _edge_record_words(old)
            pair = self.tree[vertex].pop(neighbor, None)
            if pair is not None:
                entries = self.pairs[self.comp[vertex]]
                for i, (held, _v) in enumerate(entries):
                    if held is pair:
                        del entries[i]
                        break

    # ------------------------------------------------------------- accounting
    def live_words(self) -> int:
        """Current word footprint (incrementally maintained, O(1))."""
        return self._words

    # ------------------------------------------------------------ serialization
    def __getstate__(self) -> tuple:
        return (self.comp, self.edges, self._words)

    def __setstate__(self, state: tuple) -> None:
        # tree rows, by_comp and pairs are rebuilt, so a restored record's
        # "indexes" is again the very pair its tree row and pair list hold
        self.comp, self.edges, self._words = state
        self.tree, self.by_comp, self.pairs = {}, {}, {}
        for v, row in self.edges.items():
            comp = self.comp[v]
            self.by_comp.setdefault(comp, set()).add(v)
            held = self.tree[v] = {w: rec["indexes"] for w, rec in row.items() if rec.get("indexes") is not None}
            if held:
                self.pairs.setdefault(comp, []).extend((pair, v) for pair in held.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TourShard(vertices={len(self.comp)}, comps={len(self.by_comp)}, "
            f"words={self._words})"
        )


class TourShardHandle:
    """Frozen-charge commit handle for a :class:`TourShard`.

    Same discipline as :class:`StatsTableHandle`: the shard mutates in place,
    drivers commit a *fresh* handle after each mutating operation, and the
    frozen ``dmpc_words`` makes the reference and cached storage backends
    release the previous charge and record the new one identically.
    """

    __slots__ = ("shard", "_words")

    def __init__(self, shard: TourShard) -> None:
        self.shard = shard
        self._words = max(1, shard.live_words())

    def dmpc_words(self) -> int:
        return self._words

    def __getstate__(self) -> tuple:
        return (self.shard, self._words)

    def __setstate__(self, state: tuple) -> None:
        self.shard, self._words = state


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
