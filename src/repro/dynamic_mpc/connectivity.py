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

All of it lives in one :class:`~repro.mpc.layout.TourShard` record table per
machine, behind a frozen-charge handle (``_ShardTourStore`` is the driver's
seam onto them).  ``index_v`` is not stored: it is the union of the index
pairs of ``v``'s tree-edge records, so every tour index lives once, and one
:class:`~repro.mpc.layout.TourPairs` position index per cluster names, for
each component, the pair end at every tour position.  A link / cut splices
or splits the component's index and rewrites the positions of the slots
that moved, and no others; the owners of the vertices that change
component then relabel them on their shards.  No other shard is touched,
and no handle is re-stored for a shift or a relabel: neither moves a
charge.  Only the endpoints' record edits commit.  The seed's per-vertex
``("tour", v)`` / ``("edges", v)`` dicts survive as the test suite's oracle
(``tests/dynamic_mpc/tour_oracle.py``), run in lockstep with the shards.

Update mechanism
----------------
There is one update path, :meth:`DMPCConnectivity._apply_group`: a single
update is a group of one, and a batch merges the packets of a group of
component-disjoint updates.  The endpoints' owners name their endpoints to
an aggregator (1 word per endpoint) and are acknowledged; the aggregator
then broadcasts a **constant number of scalars** per link or cut (``f(x)``,
``l(y)``, tour lengths, component ids; 10 words per packet) to all
machines, and every machine rewrites the indexes of the vertices and edge
records it stores locally, with no further communication.  That is the
index arithmetic of :mod:`repro.eulertour.indexed`, every machine's share
applied to the span of the position index that moves.  Deleting a tree
edge additionally runs a replacement search: every machine owning vertices
of the subtree being split off offers the non-tree edges incident to them
to a designated machine (1 word per cut it offers for, plus 3 per offer),
which identifies the crossing edges as exactly those offered by *one*
endpoint (edges internal to the subtree are offered twice) and reinserts
one of them as a tree edge.

The machines hold the cut's scalars through that search but rewrite nothing
until it has answered: a vertex's side of the cut shows in the tour as it
stands (``f(y) <= index <= l(y)``: one slice of the index), so the offers
need no applied cut.  A
cut without a replacement is then applied as such.  A **replaced cut is one
rewrite**: the replacement link's scalars follow from the cut's by O(1)
arithmetic (:meth:`DMPCConnectivity._replacement_link`), its broadcast goes
out as before, and every machine applies cut ∘ link as one rewrite
(:meth:`~repro.mpc.layout.TourPairs.cut_link`) — outside the subtree the two shifts
cancel everywhere but between the hole and the attachment point, so only
that span of the index is rebuilt, and no vertex changes component.  Rounds, messages and words are those of a cut
followed by a link.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.config import DMPCConfig
from repro.dynamic_mpc.base import DynamicMPCAlgorithm
from repro.exceptions import InvariantViolation
from repro.graph.graph import DynamicGraph, normalize_edge
from repro.graph.updates import GraphUpdate
from repro.graph.validation import connected_components, same_partition
from repro.mpc.layout import FrozenChargeHandle, TourPairs, TourShard, check_layout
from repro.mpc.machine import Machine
from repro.mpc.partition import hash_partition
from repro.mpc.sizing import closed_form_words, register_closed_form

__all__ = ["DMPCConnectivity"]

#: storage key of a machine's flat tour shard
TOUR_SHARD_KEY = "tours"

# Closed form for this protocol's constant-shape send (see repro.mpc.sizing):
# the ack is always None.  Pinned equal to the recursive sizer in tests/dynamic_mpc.
register_closed_form("endpoint-ack", lambda payload: 1)
_ACK_WORDS = closed_form_words("endpoint-ack", None)


def _lightest_crossing(offers: "Iterable[tuple[int, int, float]]") -> "tuple[int, int, float] | None":
    """The lightest edge offered exactly once, as its one offer ``(v, w, weight)`` named it; ties by edge."""
    tally: dict[tuple[int, int], list] = {}
    for v, w, weight in offers:
        tally.setdefault(normalize_edge(v, w), [0, (v, w, weight)])[0] += 1
    crossing = [edge for edge, (count, _offer) in tally.items() if count == 1]
    if not crossing:
        return None
    return tally[min(crossing, key=lambda edge: (tally[edge][1][2], edge))][1]


class _ShardTourStore:
    """One in-place :class:`TourShard` per worker machine, and the one :class:`TourPairs` index over them.

    Record edits go through the index and commit through the machine's
    :class:`~repro.mpc.layout.FrozenChargeHandle`, so the word totals are
    the seed's per-vertex charges and an index rewrite sizes nothing.
    """

    def __init__(self, algo: "DMPCConnectivity") -> None:
        self.algo = algo
        self._workers = algo._workers
        self.pairs = TourPairs()

    def _handle(self, machine: Machine) -> FrozenChargeHandle:
        handle = machine.load(TOUR_SHARD_KEY)
        if handle is None:
            handle = FrozenChargeHandle(TourShard())
            machine.store(TOUR_SHARD_KEY, handle)
        return handle

    def _peek(self, machine: Machine) -> "TourShard | None":
        handle = machine.load(TOUR_SHARD_KEY)
        return None if handle is None else handle.table

    def _machine(self, v: int) -> Machine:  # algo.owner(v) inlined: every record access starts here
        return self.algo.cluster.machines_by_id[hash_partition(v, self.algo.worker_ids)]

    # ------------------------------------------------------------------ tours
    def comp_of(self, v: int) -> "int | None":
        shard = self._peek(self._machine(v))
        return None if shard is None else shard.comp.get(v)

    def span(self, v: int) -> "tuple[int, int]":
        return self._peek(self._machine(v)).span(v)

    def create_vertex(self, v: int, comp: int) -> None:
        machine = self._machine(v)
        handle = self._handle(machine)
        handle.table.add_vertex(v, comp)
        handle.commit(machine, TOUR_SHARD_KEY)

    def place_vertex(self, v: int, comp: int, indexes: "set[int]", records: "dict[int, dict]") -> None:
        machine = self._machine(v)
        handle = self._handle(machine)
        shard = handle.table
        shard.add_vertex(v, comp)
        for w, record in records.items():
            self.pairs.set_edge(shard, v, w, record)
        if shard.index_set(v) != indexes:
            raise InvariantViolation(f"vertex {v}: tour indexes are not the union of its tree-record pairs")
        handle.commit(machine, TOUR_SHARD_KEY)

    # ------------------------------------------------------------------ edges
    def edges_of(self, v: int) -> dict:
        shard = self._peek(self._machine(v))
        return {} if shard is None else shard.edge_row(v)

    def store_edge_record(self, v: int, w: int, record: "dict[str, Any]") -> None:
        machine = self._machine(v)
        handle = self._handle(machine)
        self.pairs.set_edge(handle.table, v, w, record)
        handle.commit(machine, TOUR_SHARD_KEY)

    def remove_edge_record(self, v: int, w: int) -> None:
        machine = self._machine(v)
        handle = self._handle(machine)
        self.pairs.pop_edge(handle.table, v, w)
        handle.commit(machine, TOUR_SHARD_KEY)

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

    def tour_length(self, comp: int) -> int:
        """The length of ``comp``'s Euler tour: ``4(k - 1)`` for ``k`` vertices, 0 for a singleton."""
        slots = self.pairs.comps.get(comp)
        return 0 if slots is None else len(slots) - 1

    def check_pair_index(self) -> None:
        """The index and the shards' tree records match one-to-one (:meth:`TourPairs.mismatch`)."""
        problem = self.pairs.mismatch(self._shards())
        if problem is not None:
            raise InvariantViolation(f"tour pair index: {problem}")

    # --------------------------------------------------------- broadcast sweeps
    def _by_owner(self, vertices: "Iterable[int]") -> "dict[str, set[int]]":
        """``vertices`` grouped by the id of the worker that owns them."""
        worker_ids = self.algo.worker_ids
        groups: dict[str, set[int]] = {}
        for v in vertices:
            groups.setdefault(hash_partition(v, worker_ids), set()).add(v)
        return groups

    def _relabel(self, moved: "set[int]", comp: int, into: int) -> None:
        """After a pass: the owners of ``moved`` relabel them from ``comp`` to ``into``.

        No handle is re-stored: a relabel, like a shift, moves no charge.
        """
        machines = self.algo.cluster.machines_by_id
        for machine_id, here in self._by_owner(moved).items():
            self._peek(machines[machine_id]).move(here, comp, into)

    def apply_link(self, scalars: dict) -> None:
        comp_x, comp_y = scalars["comp_x"], scalars["comp_y"]
        moved = self.pairs.link(comp_x, comp_y, scalars["y"], scalars["f_x"], scalars["l_y"], scalars["len_y"], scalars["reroot"])
        self._relabel(moved, comp_y, comp_x)

    def apply_cut(self, scalars: dict) -> None:
        comp, new_comp = scalars["comp"], scalars["new_comp"]
        self._relabel(self.pairs.cut(comp, new_comp, scalars["y"], scalars["f_y"], scalars["l_y"]), comp, new_comp)

    def apply_cut_link(self, cut: dict, link: dict) -> None:
        self.pairs.cut_link(cut["comp"], cut["f_y"], cut["l_y"], link["f_x"], link["l_y"], link["len_y"], link["reroot"])

    # ------------------------------------------------------------------ scans
    def subtree_offers(self, cuts: "list[dict]") -> "Iterator[tuple[Machine, list[list[tuple[int, int, float]]]]]":
        """Per owner of a vertex inside any cut's subtree, in worker order: its non-tree edges, per cut."""
        per_cut = [self._by_owner(self.pairs.inside(cut["comp"], cut["y"], cut["f_y"], cut["l_y"])) for cut in cuts]
        owner_ids = set().union(*per_cut)
        for machine in self._workers:
            machine_id = machine.machine_id
            if machine_id not in owner_ids:
                continue
            edges = self._peek(machine).edges
            yield machine, [
                [
                    (v, w, float(record.get("weight", 1.0)))
                    for v in owners.get(machine_id, ())
                    for w, record in edges[v].items()
                    if not record.get("tree")
                ]
                for owners in per_cut
            ]

    def path_scan_items(self, machine: Machine, comp: int) -> "Iterator[tuple[int, tuple[int, int], dict]]":
        shard = self._peek(machine)
        if shard is None:
            return
        for v in shard.by_comp.get(comp, ()):
            yield v, shard.span(v), shard.edges[v]


class DMPCConnectivity(DynamicMPCAlgorithm):
    """Fully-dynamic connected components via sharded Euler tours (Section 5).

    ``layout`` accepts only ``"csr"`` (:func:`~repro.mpc.layout.check_layout`).
    """

    kind = "connectivity"

    def __init__(
        self,
        config: DMPCConfig,
        *,
        check_invariants: bool = False,
        layout: str = "csr",
        coalesce: bool = False,
    ) -> None:
        check_layout(layout)
        super().__init__(config, check_invariants=check_invariants, coalesce=coalesce)
        self._workers = self.cluster.add_machines("w", max(2, config.num_worker_machines), role="worker")
        self.worker_ids = [m.machine_id for m in self._workers]
        self.aggregator_id = self.worker_ids[0]
        self._next_comp = 0
        self._tours = _ShardTourStore(self)
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
            comp = self._new_component()
            self._tours.create_vertex(v, comp)
        return comp

    def _new_component(self) -> int:
        comp = self._next_comp
        self._next_comp += 1
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
                comp_map[old] = self._new_component()
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
        self._apply_group([update])

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
                label = f"{self.kind}:{group[0].op}:{group[0].u}-{group[0].v}"
            else:
                ops = f"{sum(u.is_insert for u in group)}i{sum(u.is_delete for u in group)}d"
                label = f"{self.kind}:batch:{group_index}[{len(group)}:{ops}]"
            with self.cluster.update(label):
                self._apply_group(group)
            group_index += 1

    def _apply_group(self, group: list[GraphUpdate]) -> None:
        """Apply one compatible (component-disjoint) group of updates; a single update is a group of one.

        Wave structure (constant rounds regardless of the group size):

        1. one merged endpoint-scalar exchange for every update (2 rounds);
        2. one merged broadcast carrying every link/cut packet (1 round),
           then the local index rewrites for each link packet;
        3. for tree-edge cuts, one merged replacement-offer round resolving
           every split-off subtree at once, and one more merged broadcast for
           the replacement links.  Every machine holds a cut's scalars but
           rewrites nothing until the search has answered (it reads the
           tours as they stand), and a cut is then rewritten once, with its
           replacement link if it found one (:meth:`_commit_cut_link`).
        """
        self._endpoint_query([(u.u, u.v) for u in group])

        links: list[tuple[dict, float]] = []
        cuts: list[dict] = []
        for update in group:
            x, y = update.u, update.v
            if update.is_insert:
                self.shadow.insert_edge(x, y, update.weight)
                if self._comp(x, create=True) == self._comp(y, create=True):
                    self._store_edge_record(x, y, tree=False, weight=update.weight)
                    self._store_edge_record(y, x, tree=False, weight=update.weight)
                else:
                    links.append((self._link_scalars(x, y), update.weight))
            else:
                self.shadow.delete_edge(x, y)
                if self._edges_of(x).get(y, {}).get("tree"):
                    cuts.append(self._cut_scalars(x, y))
                self._remove_edge_record(x, y)
                self._remove_edge_record(y, x)
        if not (links or cuts):
            return

        self._broadcast([link for link, _weight in links] + cuts)
        for link, weight in links:
            self._commit_link(link, weight=weight)
        if not cuts:
            return
        replacements = self._find_replacements(cuts)
        replaced: list[tuple[dict, dict, float]] = []
        for cut in cuts:
            replacement = replacements.get(cut["new_comp"])
            if replacement is None:
                self._commit_cut(cut)
            else:
                replaced.append((cut, self._replacement_link(cut, replacement), replacement[2]))
        self._broadcast([link for (_cut, link, _w) in replaced])
        for cut, link, weight in replaced:
            self._commit_cut_link(cut, link, weight=weight)

    # ------------------------------------------------------------ link / cut
    def _link_scalars(self, x: int, y: int) -> dict:
        """The constant-size scalar packet describing the link of ``(x, y)``.

        Pure driver-side arithmetic over the endpoints' tour state — the
        messaging (one broadcast) and the local index rewrites happen in
        :meth:`_broadcast` / :meth:`_commit_link`, so a group merges its
        packets into a single broadcast round.
        """
        comp_x = self._comp(x, create=True)
        comp_y = self._comp(y, create=True)
        len_y = self._tours.tour_length(comp_y)
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
        self._store_tree_edge(scalars, weight)

    def _store_tree_edge(self, link: dict, weight: float) -> None:
        """The linked edge's two records with their tour index pairs (x is the parent, y the child)."""
        x, y, f_x, len_y = link["x"], link["y"], link["f_x"], link["len_y"]
        self._store_edge_record(x, y, tree=True, weight=weight, indexes=(f_x + 1, f_x + len_y + 4))
        self._store_edge_record(y, x, tree=True, weight=weight, indexes=(f_x + 2, f_x + len_y + 3))

    def _cut_scalars(self, x: int, y: int) -> dict:
        """The constant-size scalar packet describing the cut of tree edge ``(x, y)``.

        Read from the two copies of the edge, so it must run **before** they
        are removed: the child's copy holds ``(f(y), l(y))`` and the parent's
        brackets it one position on each side.  Orients the pair so ``x`` is
        the ancestor endpoint and allocates the identifier of the split-off
        component; like :meth:`_link_scalars` this is pure driver-side
        arithmetic so a group can merge its packets.
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
            "new_comp": self._new_component(),
            "f_y": pair_y[0],
            "l_y": pair_y[1],
        }

    def _commit_cut(self, scalars: dict) -> None:
        """Apply a broadcast cut packet: the local rewrites."""
        self._tours.apply_cut(scalars)

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
        self._store_tree_edge(link, weight)

    # --------------------------------------------------------------- messaging
    def _endpoint_query(self, pairs: list[tuple[int, int]]) -> None:
        """The endpoints' owners name them to the aggregator and are acknowledged (2 rounds).

        Every distinct owner ships all its endpoints in one message, 1 word
        per endpoint named, so the round cost stays 2 however many updates
        ride the group.
        """
        worker_ids, machines = self.worker_ids, self.cluster.machines_by_id
        by_owner: dict[str, list[int]] = {}
        for x, y in pairs:
            by_owner.setdefault(hash_partition(x, worker_ids), []).append(x)
            by_owner.setdefault(hash_partition(y, worker_ids), []).append(y)
        for owner_id, vertices in by_owner.items():
            machines[owner_id].send(self.aggregator_id, "endpoint-info", tuple(vertices), words=len(vertices))
        self.cluster.exchange()
        agg = machines[self.aggregator_id]
        agg.drain("endpoint-info")
        for owner_id in by_owner:
            agg.send(owner_id, "endpoint-ack", None, words=_ACK_WORDS)
        self.cluster.exchange()
        for owner_id in by_owner:
            machines[owner_id].drain("endpoint-ack")

    def _broadcast(self, packets: list[dict]) -> None:
        """Broadcast a merged list of scalar packets to every worker (1 round; none for no packet).

        The endpoint owners already shipped their scalars to the aggregator
        during :meth:`_endpoint_query`, so the aggregator sends the composed
        packet: one ``tour-scalars`` message of ``10`` words per packet to
        every other worker.
        """
        if not packets:
            return
        words = 10 * len(packets)
        self.cluster.machine(self.aggregator_id).send_many(
            "tour-scalars", [(machine_id, None, words) for machine_id in self.worker_ids if machine_id != self.aggregator_id]
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
    def _find_replacements(self, cuts: list[dict]) -> dict[int, tuple[int, int, float]]:
        """Find a non-tree edge reconnecting each subtree ``cuts`` split off (1 round).

        Every machine offers, in one message, the non-tree edges of all its
        vertices inside *any* of the subtrees, grouped per cut under the
        identifier allocated for the split-off component: 1 word per cut it
        offers for, plus 3 per offer.  An edge internal to a subtree is
        offered by both endpoints, a crossing edge by exactly one, so the
        aggregator keeps, per cut, the edges with an odd offer count and
        picks the minimum-weight one (what the MST subclass needs).  Both
        endpoints of any edge share a component, so offers for different
        cuts cannot mix.  Returns ``{new_comp: (v, w, weight)}``, ``v`` the
        inside endpoint, for the cuts with a reconnecting edge.
        """
        for machine, per_cut in self._tours.subtree_offers(cuts):
            offers = [(cut["new_comp"], found) for cut, found in zip(cuts, per_cut) if found]
            if offers:
                words = sum(1 + 3 * len(found) for _comp, found in offers)
                machine.send(self.aggregator_id, "replacement-offer", offers, words=words)
        self.cluster.exchange()

        by_comp: dict[int, list[tuple[int, int, float]]] = {}
        for msg in self.cluster.machine(self.aggregator_id).drain("replacement-offer"):
            for comp, found in msg.payload:
                by_comp.setdefault(comp, []).extend(found)
        results: dict[int, tuple[int, int, float]] = {}
        for cut in cuts:
            best = _lightest_crossing(by_comp.get(cut["new_comp"], ()))
            if best is not None:
                results[cut["new_comp"]] = best
        return results

    # ------------------------------------------------------------ diagnostics
    def verify_invariants(self) -> None:
        """Assert the maintained components match a reference BFS of the graph, and the tour state is whole."""
        self._tours.check_pair_index()
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
