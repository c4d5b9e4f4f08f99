"""Section 5.1 — fully-dynamic (1+eps)-approximate minimum spanning tree.

Costs per update (Table 1, "(1+eps)-MST" row): ``O(1)`` rounds,
``O(sqrt N)`` active machines, ``O(sqrt N)`` communication per round.

The algorithm is the Section 5 connectivity/spanning-forest algorithm with
two changes:

* **insert** — when the new edge closes a cycle, the machines locate the
  maximum-weight tree edge on the tree path between the endpoints (each
  machine can test locally whether one of its tree-edge copies lies on that
  path using the broadcast ``f``/``l`` values of the endpoints and the tour
  index pair stored with the edge) and the heavier of the two edges is kept
  out of the tree;
* **delete** — when a tree edge disappears, the replacement search picks the
  *minimum-weight* crossing edge rather than an arbitrary one (already what
  :meth:`DMPCConnectivity._find_replacements` returns), so a delete is
  connectivity's update path unchanged.

The ``(1+eps)`` factor comes from the preprocessing, which buckets edge
weights into powers of ``(1+eps)`` and computes the initial forest on the
rounded weights; dynamic updates afterwards preserve exactness with respect
to the (rounded) weights, so the maintained forest stays within ``(1+eps)``
of the true minimum spanning forest weight.
"""

from __future__ import annotations

import math

from repro.config import DMPCConfig
from repro.dynamic_mpc.connectivity import DMPCConnectivity
from repro.exceptions import InvariantViolation
from repro.graph.graph import DynamicGraph
from repro.graph.updates import GraphUpdate
from repro.graph.validation import is_spanning_forest, minimum_spanning_forest_weight
from repro.mpc.sizing import closed_form_words, register_closed_form

__all__ = ["DMPCApproxMST"]

# The per-machine path-maximum offer is always a (weight, v, w) triple.
register_closed_form("path-max-offer", lambda payload: 4)


class DMPCApproxMST(DMPCConnectivity):
    """Fully-dynamic (1+eps)-approximate minimum spanning forest (Section 5.1)."""

    kind = "approx-mst"

    def __init__(
        self,
        config: DMPCConfig,
        *,
        epsilon: float = 0.1,
        check_invariants: bool = False,
        coalesce: bool = False,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        super().__init__(config, check_invariants=check_invariants, coalesce=coalesce)
        self.epsilon = epsilon

    # ----------------------------------------------------------------- weights
    def bucketed_weight(self, weight: float) -> float:
        """Round ``weight`` down to its ``(1+eps)`` bucket's lower boundary.

        Every stored weight is bucketed — the preprocessing graph's and each
        dynamically inserted edge's alike (:meth:`_insert` stores
        ``bucketed_weight(weight)``) — so all swap comparisons are between
        bucketed weights, and the forest that is exact for them is within
        ``(1+eps)`` of the true optimum.
        """
        if weight <= 0:
            return weight
        base = 1.0 + self.epsilon
        exponent = math.floor(math.log(weight, base))
        return base**exponent

    def forest_weight(self) -> float:
        """Total (exact) weight of the maintained spanning forest."""
        return sum(self.shadow.weight(u, v) for (u, v) in self.spanning_forest())

    # ---------------------------------------------------------- preprocessing
    def _preprocess(self, graph: DynamicGraph) -> None:
        """Kruskal on bucketed weights, then load shards exactly as in Section 5.

        The *stored* weight of every edge is its bucketed (rounded-down)
        weight; the maintained forest is an exact minimum spanning forest
        with respect to stored weights at all times (the insert/delete swap
        rules preserve exactness), which is what pins its true weight within
        ``(1+eps)`` of the true optimum.

        Like connectivity's, this preprocessing is *unmodelled*: the forest
        and its tours are seeded centrally on the driver in ``O(n + m)``
        after the sort (:meth:`IndexedEulerTourForest.link_all` over the
        weight-sorted edges) and one 4-word ``preprocess-plan`` round is
        charged.
        """
        rounded = DynamicGraph(graph.num_vertices)
        for (u, v, w) in graph.weighted_edges():
            rounded.insert_edge(u, v, self.bucketed_weight(w))
        # Build the initial forest greedily by increasing (bucketed) weight.
        from repro.eulertour.indexed import IndexedEulerTourForest

        self.shadow = graph.copy()
        forest = IndexedEulerTourForest(graph.vertices)
        by_weight = sorted(rounded.weighted_edges(), key=lambda t: (t[2], t[0], t[1]))
        tree_edges = forest.link_all((u, v) for (u, v, _) in by_weight)

        self._load_shards(rounded, forest, tree_edges)

    # ---------------------------------------------------------------- updates
    def _apply(self, update: GraphUpdate) -> None:
        """An insert takes the swap-aware :meth:`_insert`; a delete is a group of one."""
        if update.is_insert:
            self._insert(update.u, update.v, update.weight)
        else:
            self._apply_group([update])

    def _insert(self, x: int, y: int, weight: float = 1.0) -> None:
        self.shadow.insert_edge(x, y, weight)
        stored = self.bucketed_weight(weight)
        comp = self._comp(x, create=True)
        comp_y = self._comp(y, create=True)
        self._endpoint_query([(x, y)])

        if comp != comp_y:
            self._link(x, y, weight=stored)
            return
        # Cycle: locate the maximum-weight tree edge on the path x .. y.
        heaviest = self._max_weight_path_edge(x, y, comp)
        if heaviest is None:
            self._store_edge_record(x, y, tree=False, weight=stored)
            self._store_edge_record(y, x, tree=False, weight=stored)
            return
        a, b, path_weight = heaviest
        if path_weight <= stored:
            self._store_edge_record(x, y, tree=False, weight=stored)
            self._store_edge_record(y, x, tree=False, weight=stored)
            return
        # Swap: the old heaviest path edge becomes a non-tree edge and the
        # new edge takes its place (cut + link through broadcasts).  After the
        # cut, x and y are guaranteed to lie in different components because
        # the removed edge was on their tree path.  The two rewrites stay two
        # plain sweeps, unlike a delete's cut and replacement link
        # (``_commit_cut_link``): that one rewrite takes the link's first
        # endpoint to lie outside the cut subtree, and here ``x`` may lie
        # inside it.  Mirroring the link would root the merged tour elsewhere,
        # which changes which side later cuts split off — their offers, and
        # so the words they send.
        self._cut_tree_edge(a, b)
        self._link(x, y, weight=stored)
        self._store_edge_record(a, b, tree=False, weight=path_weight)
        self._store_edge_record(b, a, tree=False, weight=path_weight)

    def _link(self, x: int, y: int, *, weight: float) -> None:
        """Broadcast and apply the link making ``(x, y)`` a tree edge (``y``'s component merges into ``x``'s)."""
        scalars = self._link_scalars(x, y)
        self._broadcast([scalars])
        self._commit_link(scalars, weight=weight)

    def _cut_tree_edge(self, x: int, y: int) -> None:
        """Broadcast the cut of tree edge ``(x, y)`` without a replacement search."""
        scalars = self._cut_scalars(x, y)
        self._remove_edge_record(x, y)
        self._remove_edge_record(y, x)
        self._broadcast([scalars])
        self._commit_cut(scalars)

    def _apply_batch(self, updates) -> None:
        """MST batches fall back to sequential application.

        The connectivity batch path prepares plain link/record packets for
        insertions, which would bypass the heaviest-path-edge swap that
        keeps the maintained forest minimum; batched ingestion still
        amortises the ledger scoping but pays per-update rounds.
        """
        self._apply_batch_sequential(updates)

    def _max_weight_path_edge(self, x: int, y: int, comp: int) -> tuple[int, int, float] | None:
        """Find the maximum-weight tree edge on the tree path between x and y (2 rounds).

        The endpoints' ``f`` values are broadcast.  For every tree-edge copy
        a machine stores, the tour index pair cached on the record brackets
        the subtree of the edge's *child* endpoint (exactly, if the copy
        belongs to the child; one position wider, if it belongs to the
        parent), so the machine can evaluate locally whether the edge lies on
        the path: it does iff the child's subtree contains exactly one of x
        and y.  Each machine reports its heaviest on-path candidate to the
        aggregator, which picks the global maximum.
        """
        fx = self._tours.span(x)[0]
        fy = self._tours.span(y)[0]
        scalars = {"op": "path-query", "x": x, "y": y, "f_x": fx, "f_y": fy, "comp": comp}
        self._broadcast([scalars])

        for machine in self._workers:
            best: tuple[float, int, int] | None = None
            for v, span, edge_row in self._tours.path_scan_items(machine, comp):
                for w, record in edge_row.items():
                    if not record.get("tree") or record.get("indexes") is None:
                        continue
                    i1, i2 = record["indexes"]
                    if (i1, i2) == span:
                        child_lo, child_hi = i1, i2  # this copy belongs to the child endpoint
                    else:
                        child_lo, child_hi = i1 + 1, i2 - 1  # parent copy: the pair brackets the child
                    on_path = (child_lo <= fx <= child_hi) != (child_lo <= fy <= child_hi)
                    if not on_path:
                        continue
                    weight = float(record.get("weight", 1.0))
                    candidate = (weight, min(v, w), max(v, w))
                    if best is None or candidate > best:
                        best = candidate
            if best is not None:
                machine.send(
                    self.aggregator_id,
                    "path-max-offer",
                    best,
                    words=closed_form_words("path-max-offer", best),
                )
        self.cluster.exchange()
        agg = self.cluster.machine(self.aggregator_id)
        offers = [msg.payload for msg in agg.drain("path-max-offer")]
        if not offers:
            return None
        weight, v, w = max(offers)
        return (v, w, weight)

    # ------------------------------------------------------------ diagnostics
    def verify_invariants(self) -> None:
        """The forest must span every component and be within (1+eps) of optimal, and the tour state whole."""
        self._tours.check_pair_index()
        forest = self.spanning_forest()
        if not is_spanning_forest(self.shadow, forest):
            raise InvariantViolation("maintained edge set is not a spanning forest of the graph")
        optimal = minimum_spanning_forest_weight(self.shadow)
        ours = self.forest_weight()
        if optimal > 0 and ours > (1.0 + self.epsilon) * optimal + 1e-9:
            raise InvariantViolation(
                f"forest weight {ours:.3f} exceeds (1+eps) * optimal = {(1 + self.epsilon) * optimal:.3f}"
            )
