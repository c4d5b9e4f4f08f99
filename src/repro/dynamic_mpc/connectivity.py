"""Section 5 — fully-dynamic connected components in the DMPC model.

Costs per update (Table 1, "Connected comps" row): ``O(1)`` rounds,
``O(sqrt N)`` active machines, ``O(sqrt N)`` total communication per round,
worst case, starting from an arbitrary graph.

Data layout
-----------
Vertices are hash-partitioned across the worker machines.  For every owned
vertex ``v`` a machine stores

* its component identifier and the set of positions ``index_v`` at which it
  appears in its tree's Euler tour (``f(v)`` / ``l(v)`` are the min / max of
  that set, Section 5), and
* its incident edges, each tagged as tree / non-tree, with the tour index
  pair associated with the edge (for tree edges) and the edge weight.

Two storage layouts implement that contract behind the ``_TourStore`` seam
(selected by ``layout=`` / ``REPRO_DYNAMIC_LAYOUT``, default ``csr``):

``dict``
    the seed layout — one ``("tour", v)`` dict and one ``("edges", v)`` dict
    per vertex.  Every index rewrite re-stores (and therefore re-sizes)
    per-vertex dicts, which is what profiles showed dominating the update
    hot path.
``csr``
    one :class:`~repro.mpc.layout.TourShard` pair table per machine, mutated
    in place behind a frozen-charge handle.  ``index_v`` is not stored: it is
    the union of the index pairs of ``v``'s tree-edge records, so every tour
    index lives once and a link / cut is one pass over the touched
    component's tree pairs (found through ``by_comp``), never visiting a
    non-tree record.  A shift cannot move a machine's word charge, so it
    re-stores the handle the machine holds (version bump, no sizing); only
    the endpoint owners, whose record sets changed, get a fresh one.

Update mechanism
----------------
Inserting or deleting an edge broadcasts a **constant number of scalars**
(``f(x)``, ``l(y)``, tour lengths, component ids) from the endpoints'
machines to all machines; every machine then rewrites the indexes of the
vertices and edge records it stores locally, with no further communication.
That is the index arithmetic of :mod:`repro.eulertour.indexed`, applied
shard-by-shard.  Deleting a tree edge additionally runs a replacement
search: every machine owning vertices of the subtree being split off
offers the non-tree edges incident to them to a designated machine, which
identifies the crossing edges as exactly those offered by *one* endpoint
(edges internal to the subtree are offered twice) and reinserts one of
them as a tree edge.

The machines hold the cut's scalars through that search but rewrite nothing
until it has answered: a vertex's side of the cut shows in the tour as it
stands (``f(y) <= index <= l(y)``), so the offers need no applied cut.  A
cut without a replacement is then applied as such.  A **replaced cut is one
rewrite**: the replacement link's scalars follow from the cut's by O(1)
arithmetic (:meth:`DMPCConnectivity._replacement_link`), its broadcast goes
out as before, and every machine applies cut ∘ link in a single pass
(:meth:`TourShard.apply_cut_link`) — outside the subtree the two shifts
cancel everywhere but between the hole and the attachment point, and no
vertex changes component.  Rounds, messages and words are those of a cut
followed by a link.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.config import DMPCConfig
from repro.dynamic_mpc.base import DynamicMPCAlgorithm
from repro.exceptions import InvariantViolation
from repro.graph.graph import DynamicGraph, normalize_edge
from repro.graph.updates import GraphUpdate
from repro.graph.validation import connected_components, same_partition
from repro.mpc.layout import TourShard, TourShardHandle
from repro.mpc.machine import Machine
from repro.mpc.partition import hash_partition
from repro.mpc.sizing import closed_form_words, register_closed_form

__all__ = ["DMPCConnectivity"]

#: storage key of a machine's flat tour shard under the ``csr`` layout
TOUR_SHARD_KEY = "tours"

# Closed forms for this protocol's constant-shape sends (see
# repro.mpc.sizing): endpoint-info ships a tuple of vertex ids, the ack is
# always None.  Pinned equal to the recursive sizer in tests/dynamic_mpc.
register_closed_form("endpoint-info", lambda payload: 1 + len(payload))
register_closed_form("endpoint-ack", lambda payload: 1)


class _DictTourStore:
    """The seed per-vertex-key layout: ``("tour", v)`` / ``("edges", v)`` dicts.

    The rewrites are the seed implementation, run over every worker — the
    dict layout is the bit-identity baseline the flat layout is
    property-tested against, so a replaced cut stays its two passes here and
    ``subtree_offers`` is the classification half of the cut pass.
    """

    layout = "dict"

    def __init__(self, algo: "DMPCConnectivity") -> None:
        self.algo = algo
        self._workers = algo._workers

    def _machine(self, v: int) -> Machine:
        return self.algo.cluster.machine(self.algo.owner(v))

    # ------------------------------------------------------------------ tours
    def comp_of(self, v: int) -> "int | None":
        state = self._machine(v).load(("tour", v))
        return None if state is None else state["comp"]

    def span(self, v: int) -> "tuple[int, int]":
        indexes = self._machine(v).load(("tour", v))["indexes"]
        return min(indexes, default=0), max(indexes, default=0)

    def create_vertex(self, v: int, comp: int) -> None:
        machine = self._machine(v)
        machine.store(("tour", v), {"comp": comp, "indexes": set()})
        machine.store(("edges", v), {})

    def place_vertex(self, v: int, comp: int, indexes: "set[int]", records: "dict[int, dict]") -> None:
        machine = self._machine(v)
        machine.store(("tour", v), {"comp": comp, "indexes": indexes})
        machine.store(("edges", v), records)

    # ------------------------------------------------------------------ edges
    def edges_of(self, v: int) -> dict:
        return self._machine(v).load(("edges", v), {})

    def store_edge_record(self, v: int, w: int, record: "dict[str, Any]") -> None:
        machine = self._machine(v)
        records = dict(machine.load(("edges", v), {}))
        records[w] = record
        machine.store(("edges", v), records)

    def remove_edge_record(self, v: int, w: int) -> None:
        machine = self._machine(v)
        records = dict(machine.load(("edges", v), {}))
        records.pop(w, None)
        machine.store(("edges", v), records)

    # ------------------------------------------------------------- global reads
    def components(self) -> "list[set[int]]":
        groups: dict[int, set[int]] = {}
        for machine in self._workers:
            for key, value in machine.items():
                if isinstance(key, tuple) and key[0] == "tour":
                    groups.setdefault(value["comp"], set()).add(key[1])
        return list(groups.values())

    def spanning_forest(self) -> "set[tuple[int, int]]":
        forest: set[tuple[int, int]] = set()
        for machine in self._workers:
            for key, value in machine.items():
                if isinstance(key, tuple) and key[0] == "edges":
                    v = key[1]
                    for w, record in value.items():
                        if record.get("tree"):
                            forest.add(normalize_edge(v, w))
        return forest

    def tour_groups(self) -> "dict[int, list[set[int]]]":
        groups: dict[int, list[set[int]]] = {}
        for machine in self._workers:
            for key, state in machine.items():
                if isinstance(key, tuple) and key[0] == "tour":
                    groups.setdefault(state["comp"], []).append(set(state["indexes"]))
        return groups

    # --------------------------------------------------------- broadcast sweeps
    def apply_link(self, scalars: dict) -> None:
        comp_x, comp_y = scalars["comp_x"], scalars["comp_y"]
        f_x, l_y, len_y = scalars["f_x"], scalars["l_y"], scalars["len_y"]
        reroot = scalars.get("reroot", True)
        x, y = scalars["x"], scalars["y"]

        def shift_y(i: int) -> int:
            if reroot and len_y > 0:
                i = ((i - l_y) % len_y) + 1
            return i + f_x + 2

        def shift_x(i: int) -> int:
            return i + len_y + 4 if i > f_x else i

        for machine in self._workers:
            for key, state in list(machine.items()):
                if not (isinstance(key, tuple) and key[0] == "tour"):
                    continue
                vertex = key[1]
                indexes = state["indexes"]
                if state["comp"] == comp_y:
                    new_indexes = {shift_y(i) for i in indexes}
                    if vertex == y:
                        new_indexes.update({f_x + 2, f_x + len_y + 3})
                    machine.store(key, {"comp": comp_x, "indexes": new_indexes})
                    self._shift_edge_indexes(machine, vertex, shift_y)
                elif state["comp"] == comp_x:
                    new_indexes = {shift_x(i) for i in indexes}
                    if vertex == x:
                        new_indexes.update({f_x + 1, f_x + len_y + 4})
                    machine.store(key, {"comp": comp_x, "indexes": new_indexes})
                    self._shift_edge_indexes(machine, vertex, shift_x)

    @staticmethod
    def _cut_side(vertex: int, state: dict, cut: dict) -> "tuple[bool, set[int]]":
        """Whether ``vertex`` lies in the subtree ``cut`` splits off, and its indexes without the cut edge's."""
        f_y, l_y = cut["f_y"], cut["l_y"]
        indexes = set(state["indexes"])
        if vertex == cut["x"]:
            indexes -= {f_y - 1, l_y + 1}
        if vertex == cut["y"]:
            indexes -= {f_y, l_y}
        first = min(indexes, default=0)
        last = max(indexes, default=0)
        in_subtree = vertex == cut["y"] or (bool(indexes) and f_y <= first and last <= l_y)
        return in_subtree, indexes

    def apply_cut(self, scalars: dict) -> None:
        comp, new_comp = scalars["comp"], scalars["new_comp"]
        f_y, l_y = scalars["f_y"], scalars["l_y"]
        shift = (l_y - f_y + 1) + 2

        def shift_any(i: int) -> int:
            if f_y <= i <= l_y:
                return i - f_y
            if i > l_y + 1:
                return i - shift
            return i

        for machine in self._workers:
            for key, state in list(machine.items()):
                if not (isinstance(key, tuple) and key[0] == "tour"):
                    continue
                if state["comp"] != comp:
                    continue
                vertex = key[1]
                in_subtree, indexes = self._cut_side(vertex, state, scalars)
                new_indexes = {shift_any(i) for i in indexes}
                machine.store(key, {"comp": new_comp if in_subtree else comp, "indexes": new_indexes})
                self._shift_edge_indexes(machine, vertex, shift_any)

    def apply_cut_link(self, cut: dict, link: dict) -> None:
        """The oracle applies a replaced cut as the two passes the flat layout composes."""
        self.apply_cut(cut)
        self.apply_link(link)

    @staticmethod
    def _shift_edge_indexes(machine: Machine, vertex: int, shift) -> None:
        """Apply an index transformation to the tour pairs cached on ``vertex``'s edge records."""
        records = machine.load(("edges", vertex))
        if not records:
            return
        changed = False
        new_records = {}
        for w, record in records.items():
            indexes = record.get("indexes")
            if record.get("tree") and indexes is not None:
                record = dict(record)
                a, b = shift(indexes[0]), shift(indexes[1])
                record["indexes"] = (a, b) if a <= b else (b, a)
                changed = True
            new_records[w] = record
        if changed:
            machine.store(("edges", vertex), new_records)

    # ------------------------------------------------------------------ scans
    def subtree_offers(self, cuts: "list[dict]") -> "Iterator[tuple[Machine, list[list[tuple[int, int, float]]]]]":
        for machine in self._workers:
            per_cut: "list[list[tuple[int, int, float]]]" = [[] for _ in cuts]
            for key, state in machine.items():
                if not (isinstance(key, tuple) and key[0] == "tour"):
                    continue
                v = key[1]
                for cut, offers in zip(cuts, per_cut):
                    if state["comp"] != cut["comp"] or not self._cut_side(v, state, cut)[0]:
                        continue
                    for w, record in machine.load(("edges", v), {}).items():
                        if not record.get("tree"):
                            offers.append((v, w, float(record.get("weight", 1.0))))
            yield machine, per_cut

    def path_scan_items(self, machine: Machine, comp: int) -> "Iterator[tuple[int, tuple[int, int], dict]]":
        for key, state in machine.items():
            if not (isinstance(key, tuple) and key[0] == "tour"):
                continue
            if state["comp"] != comp:
                continue
            v = key[1]
            yield v, self.span(v), machine.load(("edges", v), {})


class _ShardTourStore:
    """The pair-table layout: one in-place :class:`TourShard` per worker machine.

    Mutations edit the shard directly and commit through the machine's
    frozen-charge :class:`TourShardHandle` (the :class:`StatsTableHandle`
    discipline), so index rewrites cost no sizing on any backend and the
    word totals stay in dict-layout parity.
    """

    layout = "csr"

    def __init__(self, algo: "DMPCConnectivity") -> None:
        self.algo = algo
        self._workers = algo._workers

    def _handle(self, machine: Machine) -> TourShardHandle:
        handle = machine.load(TOUR_SHARD_KEY)
        if handle is None:
            handle = TourShardHandle(TourShard())
            machine.store(TOUR_SHARD_KEY, handle)
        return handle

    def _peek(self, machine: Machine) -> "TourShard | None":
        handle = machine.load(TOUR_SHARD_KEY)
        return None if handle is None else handle.shard

    @staticmethod
    def _commit(machine: Machine, handle: TourShardHandle) -> None:
        """Re-store ``handle`` while its frozen charge still holds, else mint a fresh one.

        Re-storing the object a machine holds is the storage backends'
        in-place path (version bump, nothing sized), exact only while the
        charge did not move: an index shift takes it, a changed record set
        does not.
        """
        if handle.dmpc_words() != max(1, handle.shard.live_words()):
            handle = TourShardHandle(handle.shard)
        machine.store(TOUR_SHARD_KEY, handle)

    def _machine(self, v: int) -> Machine:
        return self.algo.cluster.machine(self.algo.owner(v))

    # ------------------------------------------------------------------ tours
    def comp_of(self, v: int) -> "int | None":
        shard = self._peek(self._machine(v))
        return None if shard is None else shard.comp.get(v)

    def span(self, v: int) -> "tuple[int, int]":
        return self._peek(self._machine(v)).span(v)

    def create_vertex(self, v: int, comp: int) -> None:
        machine = self._machine(v)
        handle = self._handle(machine)
        handle.shard.add_vertex(v, comp)
        self._commit(machine, handle)

    def place_vertex(self, v: int, comp: int, indexes: "set[int]", records: "dict[int, dict]") -> None:
        machine = self._machine(v)
        handle = self._handle(machine)
        shard = handle.shard
        shard.add_vertex(v, comp)
        for w, record in records.items():
            shard.set_edge(v, w, record)
        if shard.index_set(v) != indexes:
            raise InvariantViolation(f"vertex {v}: tour indexes are not the union of its tree-record pairs")
        self._commit(machine, handle)

    # ------------------------------------------------------------------ edges
    def edges_of(self, v: int) -> dict:
        shard = self._peek(self._machine(v))
        return {} if shard is None else shard.edge_row(v)

    def store_edge_record(self, v: int, w: int, record: "dict[str, Any]") -> None:
        machine = self._machine(v)
        handle = self._handle(machine)
        handle.shard.set_edge(v, w, record)
        self._commit(machine, handle)

    def remove_edge_record(self, v: int, w: int) -> None:
        machine = self._machine(v)
        handle = self._handle(machine)
        handle.shard.pop_edge(v, w)
        self._commit(machine, handle)

    # ------------------------------------------------------------- global reads
    def _shards(self) -> "Iterator[TourShard]":
        for machine in self._workers:
            shard = self._peek(machine)
            if shard is not None:
                yield shard

    def components(self) -> "list[set[int]]":
        groups: dict[int, set[int]] = {}
        for shard in self._shards():
            for comp, members in shard.by_comp.items():
                groups.setdefault(comp, set()).update(members)
        return list(groups.values())

    def spanning_forest(self) -> "set[tuple[int, int]]":
        return {normalize_edge(v, w) for shard in self._shards() for v, row in shard.tree.items() for w in row}

    def tour_groups(self) -> "dict[int, list[set[int]]]":
        groups: dict[int, list[set[int]]] = {}
        for shard in self._shards():
            for comp, members in shard.by_comp.items():
                groups.setdefault(comp, []).extend(shard.index_set(v) for v in members)
        return groups

    # --------------------------------------------------------- broadcast sweeps
    def _sweep(self, kernel: "Callable[..., bool]", *scalars: Any) -> None:
        """Run one index-rewriting :class:`TourShard` kernel on every worker's shard.

        A shard that held the component re-stores the handle it holds: a
        rewrite moves indexes, never the record set, so the frozen charge
        stands (see :meth:`_commit`) and nothing is sized.
        """
        for machine in self._workers:
            handle = machine.load(TOUR_SHARD_KEY)
            if handle is not None and kernel(handle.shard, *scalars):
                machine.store(TOUR_SHARD_KEY, handle)

    def apply_link(self, scalars: dict) -> None:
        self._sweep(
            TourShard.apply_link,
            scalars["comp_x"], scalars["comp_y"], scalars["f_x"], scalars["l_y"], scalars["len_y"], scalars["reroot"],
        )

    def apply_cut(self, scalars: dict) -> None:
        self._sweep(TourShard.apply_cut, scalars["comp"], scalars["new_comp"], scalars["y"], scalars["f_y"], scalars["l_y"])

    def apply_cut_link(self, cut: dict, link: dict) -> None:
        self._sweep(
            TourShard.apply_cut_link,
            cut["comp"], cut["f_y"], cut["l_y"], link["f_x"], link["l_y"], link["len_y"], link["reroot"],
        )

    # ------------------------------------------------------------------ scans
    def subtree_offers(self, cuts: "list[dict]") -> "Iterator[tuple[Machine, list[list[tuple[int, int, float]]]]]":
        scalars = [(cut["comp"], cut["y"], cut["f_y"], cut["l_y"]) for cut in cuts]
        for machine in self._workers:
            shard = self._peek(machine)
            if shard is not None:
                yield machine, [shard.subtree_offers(*cut) for cut in scalars]

    def path_scan_items(self, machine: Machine, comp: int) -> "Iterator[tuple[int, tuple[int, int], dict]]":
        shard = self._peek(machine)
        if shard is None:
            return
        for v in shard.by_comp.get(comp, ()):
            yield v, shard.span(v), shard.edges[v]


class DMPCConnectivity(DynamicMPCAlgorithm):
    """Fully-dynamic connected components via sharded Euler tours (Section 5)."""

    kind = "connectivity"

    def __init__(
        self,
        config: DMPCConfig,
        *,
        check_invariants: bool = False,
        layout: str | None = None,
        coalesce: bool | None = None,
    ) -> None:
        super().__init__(config, check_invariants=check_invariants, layout=layout, coalesce=coalesce)
        self._workers = self.cluster.add_machines("w", max(2, config.num_worker_machines), role="worker")
        self.worker_ids = [m.machine_id for m in self._workers]
        self.aggregator_id = self.worker_ids[0]
        self._next_comp = 0
        self._comp_length: dict[int, int] = {}
        self._tours = _ShardTourStore(self) if self.layout == "csr" else _DictTourStore(self)
        #: driver-side mirror of the input graph, used only for invariant checks
        self.shadow = DynamicGraph()

    # ----------------------------------------------------------------- layout
    def owner(self, v: int) -> str:
        """The worker machine owning vertex ``v``'s tour state and edge records."""
        return hash_partition(v, self.worker_ids)

    def _comp(self, v: int, *, create: bool = False) -> int | None:
        """Component id of ``v``; ``None`` for an unseen vertex unless ``create``."""
        comp = self._tours.comp_of(v)
        if comp is None and create:
            comp = self._new_component(0)
            self._tours.create_vertex(v, comp)
        return comp

    def _new_component(self, length: int) -> int:
        comp = self._next_comp
        self._next_comp += 1
        self._comp_length[comp] = length
        return comp

    def _edges_of(self, v: int) -> dict:
        return self._tours.edges_of(v)

    # -------------------------------------------------------------- accessors
    def component_of(self, v: int) -> int:
        """Component identifier of ``v`` (driver-side read of its owner)."""
        comp = self._comp(v)
        if comp is None:
            raise KeyError(f"vertex {v} is not known to the algorithm")
        return comp

    def connected(self, u: int, v: int) -> bool:
        """True iff ``u`` and ``v`` are currently in the same component."""
        comp = self._comp(u)
        return comp is not None and comp == self._comp(v)

    def components(self) -> list[set[int]]:
        """All connected components (assembled from the worker machines)."""
        return self._tours.components()

    def num_components(self) -> int:
        return len(self.components())

    def spanning_forest(self) -> set[tuple[int, int]]:
        """The maintained spanning forest (tree-flagged edge records)."""
        return self._tours.spanning_forest()

    # ---------------------------------------------------------- preprocessing
    def _preprocess(self, graph: DynamicGraph) -> None:
        """Load an arbitrary initial graph.

        The paper's preprocessing builds the forest and its tours in
        ``O(log n)`` rounds by augmenting a contraction-based spanning-forest
        algorithm.  Here it is *unmodelled*: the spanning forest and its
        tours are seeded centrally on the driver in ``O(n + m)``
        (:meth:`IndexedEulerTourForest.link_all`), the per-vertex shards are
        placed directly, and one 4-word ``preprocess-plan`` round is charged.
        The per-update costs, which Table 1 bounds, are unaffected.
        """
        from repro.eulertour.indexed import IndexedEulerTourForest

        self.shadow = graph.copy()
        forest = IndexedEulerTourForest(graph.vertices)
        tree_edges = forest.link_all(graph.edge_list())

        # Remap component ids into this algorithm's id space.
        self._load_shards(graph, forest, tree_edges)

    def _load_shards(self, graph: DynamicGraph, forest, tree_edges: set[tuple[int, int]]) -> None:
        """Place per-vertex tour shards and edge records onto the workers.

        The tour index pair associated with each tree edge is stored with
        both copies of the edge (the paper's "two indexes in the E-tour that
        are associated with the edge"): the child endpoint's pair is its own
        first/last appearance, the parent's pair brackets it one position on
        each side.
        """
        comp_map: dict[int, int] = {}
        for v in graph.vertices:
            old = forest.component_of(v)
            if old not in comp_map:
                comp_map[old] = self._new_component(forest.tour_length(v))
        for v in graph.vertices:
            records = {}
            for w in graph.neighbors(v):
                edge = normalize_edge(v, w)
                record = {"tree": edge in tree_edges, "weight": graph.weight(v, w), "indexes": None}
                if edge in tree_edges:
                    child = w if forest.is_ancestor(v, w) else v
                    child_state = forest.state(child)
                    f_c, l_c = child_state.first, child_state.last
                    record["indexes"] = (f_c, l_c) if v == child else (f_c - 1, l_c + 1)
                records[w] = record
            self._tours.place_vertex(
                v, comp_map[forest.component_of(v)], set(forest.state(v).indexes), records
            )
        # One round of placement traffic (constant words per worker machine).
        agg = self.cluster.machine(self.aggregator_id)
        for machine_id in self.worker_ids:
            if machine_id != self.aggregator_id:
                agg.send(machine_id, "preprocess-plan", None, words=4)
        self.cluster.exchange()
        for machine_id in self.worker_ids:
            self.cluster.machine(machine_id).drain("preprocess-plan")

    # ---------------------------------------------------------------- updates
    def _apply(self, update: GraphUpdate) -> None:
        if update.is_insert:
            self._insert(update.u, update.v, update.weight)
        else:
            self._delete(update.u, update.v)

    # --------------------------------------------------------- batched updates
    def _classify_update(self, update: GraphUpdate) -> tuple[bool, set]:
        """Whether an update is *structural*, plus its component conflict keys.

        A **structural** update rewrites Euler-tour indexes: a link
        (cross-component insert, including inserts that first materialise an
        unseen endpoint as a singleton) or a tree-edge cut.  A **flat**
        update only touches the edge records of its two endpoints (non-tree
        insert / non-tree delete) and leaves every tour untouched.

        Keys are the touched component ids; endpoints the algorithm has
        never seen key by vertex id instead.
        """
        comps = [self._comp(update.u), self._comp(update.v)]
        keys = {
            ("comp", comp) if comp is not None else ("vertex", v)
            for v, comp in zip((update.u, update.v), comps)
        }
        if update.is_insert:
            structural = None in comps or comps[0] != comps[1]
        else:
            record = self._edges_of(update.u).get(update.v, {})
            structural = bool(record.get("tree"))
        return structural, keys

    def _apply_batch(self, updates: list[GraphUpdate]) -> None:
        """Apply a batch in waves of compatible groups.

        A group admits any mix of updates whose effects commute: flat
        updates (non-tree inserts/deletes) coexist freely — they only edit
        per-vertex edge records, and the group applies them in stream order
        — while a structural update (link / tree cut) claims its components
        exclusively, conflicting with *any* other update that touches them.
        A group's Section 5 index-shift scalars are composed into one merged
        packet list and shipped with a single broadcast round, so ``k``
        compatible updates cost ``O(1)`` rounds instead of ``O(k)``.  A
        conflicting update closes the group (order between groups is
        preserved, so the result equals sequential application).
        """
        position = 0
        group_index = 0
        while position < len(updates):
            group: list[GraphUpdate] = []
            structural_keys: set = set()
            flat_keys: set = set()
            while position < len(updates):
                structural, keys = self._classify_update(updates[position])
                conflict = keys & (structural_keys | flat_keys) if structural else keys & structural_keys
                if conflict and group:
                    break
                (structural_keys if structural else flat_keys).update(keys)
                group.append(updates[position])
                position += 1
            if len(group) == 1:
                update = group[0]
                with self.cluster.update(f"{self.kind}:{update.op}:{update.u}-{update.v}"):
                    self._apply(update)
            else:
                ops = f"{sum(u.is_insert for u in group)}i{sum(u.is_delete for u in group)}d"
                with self.cluster.update(f"{self.kind}:batch:{group_index}[{len(group)}:{ops}]"):
                    self._apply_group(group)
            group_index += 1

    def _apply_group(self, group: list[GraphUpdate]) -> None:
        """Apply one compatible (component-disjoint) group of updates.

        Wave structure (constant rounds regardless of the group size):

        1. one merged endpoint-scalar exchange for every update (2 rounds);
        2. one merged broadcast carrying every link/cut packet (1 round),
           then the local index rewrites for each link packet;
        3. for tree-edge cuts, one merged replacement-offer round resolving
           every split-off subtree at once, and one more merged broadcast for
           the replacement links; a cut is rewritten once, with its
           replacement link if it found one (see :meth:`_delete`).
        """
        self._endpoint_query_many([(u.u, u.v) for u in group])

        packets: list[tuple[str, dict, float]] = []
        for update in group:
            x, y = update.u, update.v
            if update.is_insert:
                self.shadow.insert_edge(x, y, update.weight)
                if self._comp(x, create=True) == self._comp(y, create=True):
                    self._store_edge_record(x, y, tree=False, weight=update.weight)
                    self._store_edge_record(y, x, tree=False, weight=update.weight)
                else:
                    packets.append(("link", self._link_scalars(x, y), update.weight))
            else:
                self.shadow.delete_edge(x, y)
                if self._edges_of(x).get(y, {}).get("tree"):
                    packets.append(("cut", self._cut_scalars(x, y), 0.0))
                self._remove_edge_record(x, y)
                self._remove_edge_record(y, x)

        self._broadcast_many([scalars for (_op, scalars, _w) in packets])
        cuts: list[dict] = []
        for op, scalars, weight in packets:
            if op == "link":
                self._commit_link(scalars, weight=weight)
            else:
                cuts.append(scalars)

        if not cuts:
            return
        replacements = self._find_replacements_many(cuts)
        replaced: list[tuple[dict, dict, float]] = []
        for cut in cuts:
            replacement = replacements.get(cut["new_comp"])
            if replacement is None:
                self._commit_cut(cut)
            else:
                replaced.append((cut, self._replacement_link(cut, replacement), replacement[2]))
        self._broadcast_many([link for (_cut, link, _w) in replaced])
        for cut, link, weight in replaced:
            self._commit_cut_link(cut, link, weight=weight)

    # ------------------------------------------------------------------ insert
    def _insert(self, x: int, y: int, weight: float = 1.0) -> None:
        self.shadow.insert_edge(x, y, weight)
        comp_x = self._comp(x, create=True)
        comp_y = self._comp(y, create=True)

        # Round 1-2: the endpoints' owners exchange their scalars through the
        # aggregator (constant-size messages).
        self._endpoint_query(x, y)

        if comp_x == comp_y:
            self._store_edge_record(x, y, tree=False, weight=weight)
            self._store_edge_record(y, x, tree=False, weight=weight)
            return
        self._link(x, y, weight=weight)

    def _link(self, x: int, y: int, *, weight: float) -> None:
        """Make ``(x, y)`` a tree edge merging ``y``'s component into ``x``'s."""
        scalars = self._link_scalars(x, y)
        self._broadcast(scalars)
        self._commit_link(scalars, weight=weight)

    def _link_scalars(self, x: int, y: int) -> dict:
        """The constant-size scalar packet describing the link of ``(x, y)``.

        Pure driver-side arithmetic over the endpoints' tour state — the
        messaging (one broadcast) and the local index rewrites happen in
        :meth:`_broadcast` / :meth:`_commit_link`, so batched application
        can merge several packets into a single broadcast round.
        """
        comp_x = self._comp(x, create=True)
        comp_y = self._comp(y, create=True)
        len_y = self._comp_length[comp_y]
        f_y, l_y = self._tours.span(y)
        # Attachment offset: x's first appearance rounded down to the arc
        # boundary (0 when x is a root or a singleton).
        f_x = self._tours.span(x)[0]
        if f_x % 2 == 1:
            f_x -= 1

        return {
            "op": "link",
            "x": x,
            "y": y,
            "comp_x": comp_x,
            "comp_y": comp_y,
            "f_x": f_x,
            "l_y": l_y,
            "len_y": len_y,
            # Rerooting T_y at y is skipped when y already is its tree's root
            # (rotating in that case would produce an invalid tour).
            "reroot": len_y > 0 and f_y != 1,
        }

    def _commit_link(self, scalars: dict, *, weight: float) -> None:
        """Apply a broadcast link packet: local rewrites + edge records."""
        self._tours.apply_link(scalars)
        comp_x, comp_y = scalars["comp_x"], scalars["comp_y"]
        self._comp_length[comp_x] = self._comp_length[comp_x] + scalars["len_y"] + 4
        self._comp_length.pop(comp_y, None)
        self._store_tree_edge(scalars, weight)

    def _store_tree_edge(self, link: dict, weight: float) -> None:
        """The linked edge's two records with their tour index pairs (x is the parent, y the child)."""
        x, y, f_x, len_y = link["x"], link["y"], link["f_x"], link["len_y"]
        self._store_edge_record(x, y, tree=True, weight=weight, indexes=(f_x + 1, f_x + len_y + 4))
        self._store_edge_record(y, x, tree=True, weight=weight, indexes=(f_x + 2, f_x + len_y + 3))

    # ------------------------------------------------------------------ delete
    def _delete(self, x: int, y: int) -> None:
        self.shadow.delete_edge(x, y)
        is_tree = bool(self._edges_of(x).get(y, {}).get("tree"))
        self._endpoint_query(x, y)
        scalars = self._cut_scalars(x, y) if is_tree else None
        self._remove_edge_record(x, y)
        self._remove_edge_record(y, x)
        if scalars is None:
            return

        # Every machine has the cut's scalars but rewrites nothing yet: the
        # replacement search reads the tours as they stand, and a cut that is
        # replaced is applied together with its link, as one rewrite.
        self._broadcast(scalars)
        replacement = self._find_replacement(scalars)
        if replacement is None:
            self._commit_cut(scalars)
            return
        link = self._replacement_link(scalars, replacement)
        self._broadcast(link)
        self._commit_cut_link(scalars, link, weight=replacement[2])

    def _cut_scalars(self, x: int, y: int) -> dict:
        """The constant-size scalar packet describing the cut of tree edge ``(x, y)``.

        Read from the two copies of the edge, so it must run **before** they
        are removed: the child's copy holds ``(f(y), l(y))`` and the parent's
        brackets it one position on each side.  Orients the pair so ``x`` is
        the ancestor endpoint and allocates the identifier of the split-off
        component; like :meth:`_link_scalars` this is pure driver-side
        arithmetic so packets can be batched.
        """
        pair_x = self._edges_of(x)[y]["indexes"]
        pair_y = self._edges_of(y)[x]["indexes"]
        if pair_x[0] > pair_y[0]:  # x holds the inner pair: it is the child
            x, y, pair_y = y, x, pair_x

        return {
            "op": "cut",
            "x": x,
            "y": y,
            "comp": self._comp(x),
            "new_comp": self._new_component(0),
            "f_y": pair_y[0],
            "l_y": pair_y[1],
        }

    def _commit_cut(self, scalars: dict) -> None:
        """Apply a broadcast cut packet: local rewrites + component lengths."""
        self._tours.apply_cut(scalars)
        comp, new_comp = scalars["comp"], scalars["new_comp"]
        span = scalars["l_y"] - scalars["f_y"] + 1
        self._comp_length[new_comp] = span - 2
        self._comp_length[comp] = self._comp_length[comp] - span - 2

    def _replacement_link(self, cut: dict, replacement: tuple[int, int, float]) -> dict:
        """The link packet of a cut's replacement edge, read before the cut is applied.

        ``replacement`` is ``(b, a, weight)`` as its one offer named it: ``b``
        inside the subtree being split off, ``a`` in the surviving tree.  The
        scalars are what :meth:`_link_scalars` would read once the cut is
        applied, by O(1) arithmetic on the spans as they stand: the subtree's
        tour has ``l_y - f_y - 1`` entries and starts at ``f_y``; ``b`` needs
        rerooting unless it is ``y``, the root the cut leaves; ``a``'s first
        appearance drops by the closed gap when it lies past the hole.
        """
        b, a, _weight = replacement
        f_y, l_y = cut["f_y"], cut["l_y"]
        len_y = l_y - f_y - 1
        f_x = self._tours.span(a)[0]
        if f_x > l_y:
            f_x -= len_y + 4
        if f_x % 2 == 1:
            f_x -= 1
        return {
            "op": "link",
            "x": a,
            "y": b,
            "comp_x": cut["comp"],
            "comp_y": cut["new_comp"],
            "f_x": f_x,
            "l_y": len_y if b == cut["y"] else self._tours.span(b)[1] - f_y,
            "len_y": len_y,
            "reroot": b != cut["y"],
        }

    def _commit_cut_link(self, cut: dict, link: dict, *, weight: float) -> None:
        """Apply a broadcast cut and its broadcast replacement link as one local rewrite.

        The split-off subtree returns to the component it left, so no vertex
        changes component and the tour keeps its length; the identifier
        :meth:`_cut_scalars` allocated for it is spent unused.  The
        replacement's non-tree records give way to its tree records.
        """
        self._remove_edge_record(link["x"], link["y"])
        self._remove_edge_record(link["y"], link["x"])
        self._tours.apply_cut_link(cut, link)
        self._comp_length.pop(cut["new_comp"])
        self._store_tree_edge(link, weight)

    # --------------------------------------------------------------- messaging
    def _endpoint_query(self, x: int, y: int) -> None:
        """The endpoints' owners exchange constant-size scalars (2 rounds)."""
        owner_x, owner_y = self.owner(x), self.owner(y)
        mx, my = self.cluster.machine(owner_x), self.cluster.machine(owner_y)
        mx.send(self.aggregator_id, "endpoint-info", (x,), words=closed_form_words("endpoint-info", (x,)))
        if owner_y != owner_x:
            my.send(self.aggregator_id, "endpoint-info", (y,), words=closed_form_words("endpoint-info", (y,)))
        self.cluster.exchange()
        agg = self.cluster.machine(self.aggregator_id)
        agg.drain("endpoint-info")
        agg.send(owner_x, "endpoint-ack", None, words=closed_form_words("endpoint-ack", None))
        if owner_y != owner_x:
            agg.send(owner_y, "endpoint-ack", None, words=closed_form_words("endpoint-ack", None))
        self.cluster.exchange()
        mx.drain("endpoint-ack")
        my.drain("endpoint-ack")

    def _endpoint_query_many(self, pairs: list[tuple[int, int]]) -> None:
        """Merged endpoint exchange for a whole group of updates (2 rounds).

        Every distinct owner ships the scalars of all its involved endpoints
        in one message, so the round cost stays 2 regardless of how many
        updates ride the batch.
        """
        by_owner: dict[str, list[int]] = {}
        for x, y in pairs:
            for v in (x, y):
                by_owner.setdefault(self.owner(v), []).append(v)
        for owner_id, vertices in by_owner.items():
            self.cluster.machine(owner_id).send(
                self.aggregator_id, "endpoint-info", tuple(vertices), words=max(1, len(vertices))
            )
        self.cluster.exchange()
        agg = self.cluster.machine(self.aggregator_id)
        agg.drain("endpoint-info")
        ack_words = closed_form_words("endpoint-ack", None)
        agg.send_many("endpoint-ack", [(owner_id, None, ack_words) for owner_id in by_owner])
        self.cluster.exchange()
        for owner_id in by_owner:
            self.cluster.machine(owner_id).drain("endpoint-ack")

    def _broadcast(self, scalars: dict) -> None:
        """Broadcast the constant-size update scalars to every worker (1 round)."""
        self._fan_out_scalars(self.owner(scalars["x"]), 10)

    def _broadcast_many(self, packets: list[dict]) -> None:
        """Broadcast a merged list of scalar packets to every worker (1 round).

        The endpoint owners already shipped their scalars to the aggregator
        during :meth:`_endpoint_query_many`, so the aggregator is the sender
        of the composed packet (``10`` words per update, one round total).
        """
        if packets:
            self._fan_out_scalars(self.aggregator_id, 10 * len(packets))

    def _fan_out_scalars(self, sender_id: str, words: int) -> None:
        """One ``tour-scalars`` message of ``words`` words to every other worker (1 round)."""
        self.cluster.machine(sender_id).send_many(
            "tour-scalars", [(machine_id, None, words) for machine_id in self.worker_ids if machine_id != sender_id]
        )
        self.cluster.exchange()
        for machine in self._workers:
            machine.drain("tour-scalars")

    # --------------------------------------------------------- edge records
    def _store_edge_record(self, v: int, w: int, *, tree: bool, weight: float, indexes: tuple[int, int] | None = None) -> None:
        self._tours.store_edge_record(v, w, {"tree": tree, "weight": float(weight), "indexes": indexes})

    def _remove_edge_record(self, v: int, w: int) -> None:
        self._tours.remove_edge_record(v, w)

    # ------------------------------------------------------- replacement search
    def _find_replacement(self, cut: dict) -> tuple[int, int, float] | None:
        """Find a non-tree edge reconnecting the subtree ``cut`` splits off (2 rounds).

        Every machine offers, for each owned vertex inside the subtree, all
        its incident non-tree edges.  An edge internal to the subtree is
        offered by both endpoints, a crossing edge by exactly one — so the
        aggregator keeps exactly the edges with an odd offer count and picks
        one (the minimum-weight one, which is what the MST subclass needs),
        returned as ``(inside endpoint, outside endpoint, weight)``.
        """
        for machine, (offers,) in self._tours.subtree_offers([cut]):
            if offers:
                machine.send(self.aggregator_id, "replacement-offer", offers, words=3 * len(offers) + 1)
        self.cluster.exchange()

        agg = self.cluster.machine(self.aggregator_id)
        counts: dict[tuple[int, int], int] = {}
        weights: dict[tuple[int, int], float] = {}
        endpoints: dict[tuple[int, int], tuple[int, int]] = {}
        for msg in agg.drain("replacement-offer"):
            for (v, w, weight) in msg.payload:
                edge = normalize_edge(v, w)
                counts[edge] = counts.get(edge, 0) + 1
                weights[edge] = weight
                endpoints[edge] = (v, w)
        crossing = [edge for edge, count in counts.items() if count == 1]
        if not crossing:
            return None
        best = min(crossing, key=lambda e: (weights[e], e))
        v, w = endpoints[best]
        return (v, w, weights[best])

    def _find_replacements_many(self, cuts: list[dict]) -> dict[int, tuple[int, int, float]]:
        """Merged replacement search for several split-off subtrees (2 rounds).

        Every machine offers, in one message, the non-tree edges of all its
        vertices inside *any* of the subtrees, tagging each offer with the
        identifier allocated for the split-off component.  The aggregator
        then resolves every cut with the sequential odd-offer-count rule
        (both endpoints of any edge share a component, so offers for
        different cuts cannot mix).  Returns ``{new_comp: (v, w, weight)}``,
        ``v`` the inside endpoint, for the cuts with a reconnecting edge.
        """
        for machine, per_cut in self._tours.subtree_offers(cuts):
            offers = [(cut["new_comp"], *offer) for cut, found in zip(cuts, per_cut) for offer in found]
            if offers:
                machine.send(self.aggregator_id, "replacement-offer", offers, words=4 * len(offers) + 1)
        self.cluster.exchange()

        agg = self.cluster.machine(self.aggregator_id)
        by_comp: dict[int, dict[tuple[int, int], list]] = {}
        for msg in agg.drain("replacement-offer"):
            for comp, v, w, weight in msg.payload:
                entry = by_comp.setdefault(comp, {}).setdefault(normalize_edge(v, w), [0, weight, (v, w)])
                entry[0] += 1
        results: dict[int, tuple[int, int, float]] = {}
        for cut in cuts:
            offers = by_comp.get(cut["new_comp"], {})
            crossing = [edge for edge, (count, _weight, _vw) in offers.items() if count == 1]
            if not crossing:
                continue
            best = min(crossing, key=lambda e: (offers[e][1], e))
            _count, weight, (v, w) = offers[best]
            results[cut["new_comp"]] = (v, w, weight)
        return results

    # ------------------------------------------------------------ diagnostics
    def verify_invariants(self) -> None:
        """Assert the maintained components match a reference BFS of the graph."""
        ours = self.components()
        reference = connected_components(self.shadow)
        # The algorithm may know isolated vertices the shadow graph also has;
        # compare only non-empty groups over the same vertex universe.
        if not same_partition(ours, reference):
            raise InvariantViolation("maintained components diverge from the reference BFS")
        # Tour-structure sanity: every component's index multiset must tile 1..4(k-1).
        for comp, index_sets in self._tours.tour_groups().items():
            total = sorted(i for s in index_sets for i in s)
            expected = list(range(1, 4 * (len(index_sets) - 1) + 1))
            if total != expected:
                raise InvariantViolation(
                    f"component {comp}: tour indexes {total[:8]}... do not tile 1..{len(expected)}"
                )
