"""Per-machine state layouts: CSR adjacency, interning, struct-of-arrays stats, tour pairs.

The machine stores of the static baselines were dict-of-objects — an
``("adj", v)`` list and a ``("weights", v)`` dict per vertex — and the
dynamic matching fabric kept one :class:`VertexStats` object per ``("st",
v)`` key.  Every superstep paid python-dict overhead twice: once walking the
per-vertex entries, once re-serializing the same keys for the
process/resident wire.  This module owns the flat replacements:

:class:`VertexInterner`
    the dense vertex-ID map built once per static cluster — vertex ids in
    payloads stay raw (bit-identical messages), dense positions index the
    driver-side kernel caches.
:class:`MachineCSR`
    one machine's owned adjacency as contiguous ``array('q')``/``array('d')``
    buffers (``verts``/``indptr``/``indices``/``weights``) plus two
    materialized pure functions of them: per-entry partition owners
    (``owner_pos``) and the *send plan* — the entries regrouped by target
    machine, which the CC kernel slices its proposals from.  Stored under
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
import os
from array import array
from typing import Any, Callable, Iterable

from repro.mpc.partition import hash_partition
from repro.runtime.wire import register_wire_type

__all__ = [
    "HAVE_NUMPY",
    "numpy_or_none",
    "resolve_static_layout",
    "STATIC_LAYOUTS",
    "resolve_dynamic_layout",
    "DYNAMIC_LAYOUTS",
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

#: layouts :func:`resolve_static_layout` accepts.
STATIC_LAYOUTS = ("dict", "csr")

#: environment override for the default static layout.
LAYOUT_ENV_VAR = "REPRO_STATIC_LAYOUT"

#: layouts :func:`resolve_dynamic_layout` accepts.
DYNAMIC_LAYOUTS = ("dict", "csr")

#: environment override for the default dynamic layout.
DYNAMIC_LAYOUT_ENV_VAR = "REPRO_DYNAMIC_LAYOUT"


@functools.cache
def numpy_or_none():
    """The numpy module, imported on the first call, else ``None`` (kernel guard)."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def resolve_static_layout(layout: "str | None" = None) -> str:
    """Resolve the static state layout: argument, env var, default ``csr``.

    Mirrors the backend resolution chain: an explicit argument wins, then
    ``REPRO_STATIC_LAYOUT``, then the CSR default.  Unknown names fail
    loudly — a typo silently running the slow layout would invalidate every
    benchmark comparison downstream.
    """
    if layout is None:
        layout = os.environ.get(LAYOUT_ENV_VAR, "").strip() or "csr"
    if layout not in STATIC_LAYOUTS:
        raise ValueError(f"unknown static layout {layout!r}; expected one of {STATIC_LAYOUTS}")
    return layout


def resolve_dynamic_layout(layout: "str | None" = None) -> str:
    """Resolve the dynamic state layout: argument, env var, default ``csr``.

    The dynamic mirror of :func:`resolve_static_layout` — an explicit
    argument wins, then ``REPRO_DYNAMIC_LAYOUT``, then the flat default.
    ``dict`` selects the seed per-key layouts (one ``("st", v)`` /
    ``("tour", v)`` store entry per vertex); ``csr`` selects the flat
    per-machine tables (:class:`StatsTable`, :class:`TourShard`).
    """
    if layout is None:
        layout = os.environ.get(DYNAMIC_LAYOUT_ENV_VAR, "").strip() or "csr"
    if layout not in DYNAMIC_LAYOUTS:
        raise ValueError(f"unknown dynamic layout {layout!r}; expected one of {DYNAMIC_LAYOUTS}")
    return layout


# ---------------------------------------------------------------- interning
class VertexInterner:
    """Dense position per vertex id, fixed at cluster build time.

    Message payloads stay in raw vertex-id space (bit-identity with the
    dict layout); the dense side indexes driver-side kernel state like the
    matched bitmap of the matching driver.
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

    ``verts[i]`` is the ``i``-th owned vertex (owned order — the order the
    dict layout iterated), its neighbors are ``indices[indptr[i]:
    indptr[i+1]]`` in ascending order (the dict layout stored sorted
    adjacency, so per-row order is identical), with parallel ``weights``
    when the graph is weighted.  ``owner_pos[e]`` is the
    :func:`~repro.mpc.partition.hash_partition` owner of ``indices[e]`` as
    an index into the cluster's worker-id list, hoisted out of the per-round
    loops.  The *send plan* is the same entries regrouped by that owner, in
    first-appearance target order and ascending entry order within a target
    (the order the dict layout's per-vertex loops appended proposals in):
    ``plan_indices`` / ``plan_sources`` hold each entry's neighbour and
    source vertex, ``plan_spans`` the flattened ``(target_pos, start, stop)``
    triples delimiting each target's slice.  Both are pure functions of
    ``(indices, worker ids)`` — materialized ownership, not extra state —
    so ``dmpc_words`` charges only the four data buffers (plus a framing
    word), mirroring what the dict layout's per-vertex values represented.
    """

    __slots__ = (
        "verts",
        "indptr",
        "indices",
        "weights",
        "owner_pos",
        "plan_indices",
        "plan_sources",
        "plan_spans",
        "_np_cache",
        "_list_cache",
        "_plan_cache",
    )

    def __init__(
        self,
        verts: array,
        indptr: array,
        indices: array,
        weights: "array | None",
        owner_pos: array,
        plan_indices: array,
        plan_sources: array,
        plan_spans: array,
    ) -> None:
        self.verts = verts
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.owner_pos = owner_pos
        self.plan_indices = plan_indices
        self.plan_sources = plan_sources
        self.plan_spans = plan_spans
        self._np_cache: "dict[str, Any] | None" = None
        self._list_cache: "dict[str, Any] | None" = None
        self._plan_cache: "tuple[list[int], list[int], list[tuple[int, int, int]]] | None" = None

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

    def row_bounds(self, row: int) -> "tuple[int, int]":
        return self.indptr[row], self.indptr[row + 1]

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

        Keys: ``verts``/``indptr``/``indices`` as python lists and
        ``weights`` (a list, or ``None`` for unweighted rows).  One bulk
        ``array.tolist()`` conversion per process buys C-speed list
        indexing/slicing for kernels whose inner loop stays in python
        (per-machine rows are tens-to-hundreds of entries here, too small
        for per-call numpy dispatch to pay off — the MST root walk is the
        canonical client).  Never pickled, and numpy-free by design so the
        fallback path benefits equally.
        """
        cache = self._list_cache
        if cache is None:
            cache = self._list_cache = {
                "verts": self.verts.tolist(),
                "indptr": self.indptr.tolist(),
                "indices": self.indices.tolist(),
                "weights": self.weights.tolist() if self.weights is not None else None,
            }
        return cache

    def send_plan(self) -> "tuple[list[int], list[int], list[tuple[int, int, int]]]":
        """The send plan as plain lists, lazily cached: ``(neighbours, sources, spans)``.

        ``neighbours[i]`` / ``sources[i]`` are the endpoints of the ``i``-th
        entry in target order and ``spans`` the ``(target_pos, start, stop)``
        slices — a kernel zips per-entry values against the two lists once
        and cuts one slice per target.  Never pickled, numpy-free.
        """
        cache = self._plan_cache
        if cache is None:
            flat = self.plan_spans.tolist()
            cache = self._plan_cache = (
                self.plan_indices.tolist(),
                self.plan_sources.tolist(),
                list(zip(flat[0::3], flat[1::3], flat[2::3])),
            )
        return cache

    # ------------------------------------------------------------ serialization
    def _state(self) -> tuple:
        return (
            self.verts,
            self.indptr,
            self.indices,
            self.weights,
            self.owner_pos,
            self.plan_indices,
            self.plan_sources,
            self.plan_spans,
        )

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
    worker_ids: "list[str]",
) -> MachineCSR:
    """Build one machine's CSR from its owned vertices.

    ``neighbors(v)`` must return the neighbor list in the exact order the
    dict layout stored it (sorted — bit-identity of every kernel depends on
    per-row order); ``weight`` is ``None`` for unweighted workloads, which
    drops the weights buffer entirely.
    """
    verts = array("q", owned)
    indptr = array("q", [0])
    indices = array("q")
    weights: "array | None" = array("d") if weight is not None else None
    position = {machine_id: pos for pos, machine_id in enumerate(worker_ids)}
    owner_pos = array("q")
    # target position -> (neighbours, sources) of its entries; dict order is
    # first appearance over the row-major entry scan — exactly the order the
    # dict layout's per-vertex loops appended proposals in.
    by_target: "dict[int, tuple[array, array]]" = {}
    for v in owned:
        row = neighbors(v)
        indices.extend(row)
        if weights is not None:
            weights.extend(weight(v, w) for w in row)
        indptr.append(len(indices))
        for w in row:
            pos = position[hash_partition(w, worker_ids)]
            owner_pos.append(pos)
            bucket = by_target.get(pos)
            if bucket is None:
                bucket = by_target[pos] = (array("q"), array("q"))
            bucket[0].append(w)
            bucket[1].append(v)
    plan_indices = array("q")
    plan_sources = array("q")
    plan_spans = array("q")
    for pos, (nbrs, sources) in by_target.items():
        start = len(plan_indices)
        plan_indices.extend(nbrs)
        plan_sources.extend(sources)
        plan_spans.extend((pos, start, len(plan_indices)))
    return MachineCSR(verts, indptr, indices, weights, owner_pos, plan_indices, plan_sources, plan_spans)


# -------------------------------------------------------------- alive table
class AliveTable:
    """Per-machine edge-liveness bitmaps for the CSR matching kernels.

    ``rows[machine_id][e]`` is 1 while CSR entry ``e`` of that machine is
    still a live (free) edge slot — the flat equivalent of membership in the
    dict layout's ``free_adj[v]`` sets.  Lives in superstep shared state;
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
#: per-vertex word parity with the dict layout: a stored ``("st", v)`` key
#: cost 3 words (tuple framing + tag + id) and a ``VertexStats`` value
#: ``6 + len(suspended)`` — the flat table charges the same 9 words per
#: occupied slot plus one per suspended entry.
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
        """Current word footprint, same charging as the dict layout's keys."""
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
    it exactly like the live per-vertex objects the dict layout's
    ``stats_of`` returned, and every mutation lands in the flat columns.
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
#: dict-layout parity for one tour vertex: the ("tour", v) key cost 3 words
#: and its {"comp", "indexes"} value 5 + len(indexes); the ("edges", v) key
#: another 3 and the empty record dict 1.  12 words per vertex plus one per
#: tour index, before edge records.
_TOUR_WORDS_PER_VERTEX = 12


def _edge_record_words(record: "dict[str, Any]") -> int:
    # dict-layout parity for one record entry inside the ("edges", v) value:
    # neighbor key (1) + {"tree": bool, "weight": float, "indexes": pair|None}
    # = 8 words for a non-tree record, 10 when the index pair is present, plus
    # the pair's two tour indexes (charged on ("tour", v) by the dict layout).
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
        vertex → {neighbor → record dict} (records share the dict layout's
        ``{"tree", "weight", "indexes"}`` shape; a tree record's
        ``"indexes"`` *is* its tree-row pair, kept sorted),
    ``tree``
        vertex → {tree neighbor → pair}: the rows the link/cut kernels walk,
        so an index shift never visits a non-tree record,
    ``by_comp``
        component id → vertex set, maintained by the kernels: broadcast
        application, replacement-edge scans and the MST path-maximum scan
        iterate a component's members instead of every key on the machine.

    Three kernels rewrite indexes, each one pass over the touched
    component's tree pairs: ``apply_link``, ``apply_cut`` and
    ``apply_cut_link`` — a cut and the link of its replacement edge composed,
    so a replaced tree delete rewrites every index once and moves no vertex
    between components.  ``subtree_offers`` is the read-only scan that lets
    the replacement search run before the cut is applied.

    Word accounting is incremental (``live_words`` is O(1)) and in parity
    with the dict layout: 12 words per vertex plus one per tour index, 10 /
    8 per tree / non-tree record.  Only ``add_vertex`` / ``set_edge`` /
    ``pop_edge`` move it; an index shift never does.
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
        tree = self.tree
        if members_x:
            grow = len_y + 4
            for v in members_x:
                for pair in tree[v].values():
                    if pair[1] > f_x:
                        pair[1] += grow
                        if pair[0] > f_x:
                            pair[0] += grow
        if members_y:
            offset = f_x + 2
            comp = self.comp
            for v in members_y:
                comp[v] = comp_x
                for pair in tree[v].values():
                    a, b = pair
                    if reroot:
                        a = (a - l_y) % len_y + 1
                        b = (b - l_y) % len_y + 1
                        if a > b:
                            a, b = b, a
                    pair[0] = a + offset
                    pair[1] = b + offset
            if members_x:
                members_x |= members_y
            else:
                self.by_comp[comp_x] = members_y
        return True

    def apply_cut(self, comp: int, new_comp: int, y: int, f_y: int, l_y: int) -> bool:
        """Shift this shard's pairs for a broadcast cut; False if it holds none of ``comp``.

        The cut edge's own records are already gone.  A pair inside
        ``[f_y, l_y]`` belongs to ``y``'s subtree: it drops by ``f_y`` and
        its vertex moves to ``new_comp`` (as does ``y`` itself, even when the
        cut left it a singleton); entries past ``l_y`` close the gap.
        """
        members = self.by_comp.get(comp)
        if not members:
            return False
        tree = self.tree
        gap = l_y - f_y + 3
        moved = []
        for v in members:
            inside = v == y
            for pair in tree[v].values():
                a = pair[0]
                if a > l_y:
                    pair[0] = a - gap
                    pair[1] -= gap
                elif a >= f_y:
                    pair[0] = a - f_y
                    pair[1] -= f_y
                    inside = True
                elif pair[1] > l_y:
                    pair[1] -= gap
            if inside:
                moved.append(v)
        if moved:
            for v in moved:
                self.comp[v] = new_comp
            members.difference_update(moved)
            if not members:
                del self.by_comp[comp]
            self.by_comp[new_comp] = set(moved)
        return True

    def subtree_offers(self, comp: int, y: int, f_y: int, l_y: int) -> "list[tuple[int, int, float]]":
        """Non-tree edges ``(v, w, weight)`` of this shard's vertices inside ``y``'s subtree.

        Read-only, and answered **before** the broadcast cut of ``y`` from its
        parent is applied (the cut edge's own records are already gone): every
        pair of a vertex lies on one side of the cut, so the first pair of
        its tree row places it, and ``y`` — whose row may be empty — is named.
        These are the records ``by_comp[new_comp]`` would hold after
        :meth:`apply_cut`.
        """
        offers: "list[tuple[int, int, float]]" = []
        tree = self.tree
        for v in self.by_comp.get(comp, ()):
            for pair in tree[v].values():
                inside = f_y <= pair[0] <= l_y
                break
            else:
                inside = v == y
            if inside:
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
        tree = self.tree
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
        for v in members:
            for pair in tree[v].values():
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
            record["indexes"] = self.tree[vertex][neighbor] = [lo, hi] if lo <= hi else [hi, lo]
        row[neighbor] = record
        self._words += _edge_record_words(record)

    def pop_edge(self, vertex: int, neighbor: int) -> None:
        row = self.edges.get(vertex)
        old = row.pop(neighbor, None) if row else None
        if old is not None:
            self._words -= _edge_record_words(old)
            self.tree[vertex].pop(neighbor, None)

    # ------------------------------------------------------------- accounting
    def live_words(self) -> int:
        """Current word footprint (incrementally maintained, O(1))."""
        return self._words

    # ------------------------------------------------------------ serialization
    def __getstate__(self) -> tuple:
        return (self.comp, self.edges, self._words)

    def __setstate__(self, state: tuple) -> None:
        # tree rows and by_comp are rebuilt, so a restored record's "indexes"
        # is again the very pair its tree row holds
        self.comp, self.edges, self._words = state
        self.tree = {
            v: {w: rec["indexes"] for w, rec in row.items() if rec.get("indexes") is not None}
            for v, row in self.edges.items()
        }
        self.by_comp = {}
        for v, comp in self.comp.items():
            self.by_comp.setdefault(comp, set()).add(v)

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
