"""Section 4 — fully-dynamic 3/2-approximate matching in the DMPC model.

Costs per update (Table 1, second row): ``O(1)`` rounds, ``O(n / sqrt N)``
active machines, ``O(sqrt N)`` communication per round, using a coordinator
and starting from the **empty graph**.

The algorithm extends the Section 3 maximal matching with one extra piece of
state — a *free-neighbour counter* per vertex, stored with the vertex
statistics — and with extra case analysis that eliminates every augmenting
path of length 3: by Hopcroft–Karp, a maximal matching with no length-3
augmenting path is a 3/2-approximation of the maximum matching.

Whenever a (light) vertex changes its matching status, the counters of all
its neighbours are updated: one ``O(sqrt N)``-word message carries the
neighbour list from the vertex's machine to the coordinator, and messages of
total size ``O(sqrt N)`` fan out to the ``O(n / sqrt N)`` statistics
machines — exactly the traffic pattern the paper describes.
"""

from __future__ import annotations

from repro.config import DMPCConfig
from repro.dynamic_mpc.maximal_matching import DMPCMaximalMatching
from repro.dynamic_mpc.state import VertexStats
from repro.exceptions import InvariantViolation
from repro.graph.graph import DynamicGraph
from repro.graph.updates import GraphUpdate
from repro.graph.validation import has_length3_augmenting_path, is_matching, is_maximal_matching

__all__ = ["DMPCThreeHalvesMatching"]


class DMPCThreeHalvesMatching(DMPCMaximalMatching):
    """Fully-dynamic 3/2-approximate maximum matching (Section 4)."""

    kind = "three-halves-matching"

    def __init__(
        self,
        config: DMPCConfig,
        *,
        check_invariants: bool = False,
        coalesce: bool = False,
    ) -> None:
        super().__init__(config, check_invariants=check_invariants, coalesce=coalesce)
        # Matching-status changes observed during the current update:
        # vertex -> (was_matched, is_matched).  Used for counter maintenance.
        self._status_events: dict[int, tuple[bool, bool]] = {}
        self._current_edge: tuple[int, int] | None = None

    # ---------------------------------------------------------- preprocessing
    def _preprocess(self, graph: DynamicGraph) -> None:
        """Section 4 starts from the empty graph (the paper gives no
        initialization that eliminates length-3 augmenting paths within the
        memory budget); a non-empty initial graph is replayed as insertions
        by :meth:`bootstrap_from_graph`."""
        if graph.num_edges > 0:
            raise ValueError(
                "DMPCThreeHalvesMatching starts from the empty graph; replay the initial "
                "edges as insertions (see bootstrap_from_graph)"
            )
        super()._preprocess(graph)

    def bootstrap_from_graph(self, graph: DynamicGraph) -> None:
        """Convenience: preprocess empty, then insert every edge of ``graph``."""
        self._check_graph(graph)
        self.preprocess(DynamicGraph(graph.num_vertices))
        for (u, v) in graph.edge_list():
            self.apply(GraphUpdate.insert(u, v))

    # -------------------------------------------------------- status tracking
    def _match(self, u: int, v: int, su: VertexStats, sv: VertexStats) -> None:
        for vertex in (u, v):
            was = self._status_events.get(vertex, (None, None))[0]
            if was is None:
                # A vertex being matched now with no recorded event was free
                # at the start of the update unless the snapshot says otherwise.
                was = self._initial_status.get(vertex, False)
            self._status_events[vertex] = (was, True)
        super()._match(u, v, su, sv)

    def _unmatch(self, u: int, v: int, su: VertexStats, sv: VertexStats) -> None:
        for vertex in (u, v):
            was = self._status_events.get(vertex, (None, None))[0]
            if was is None:
                was = self._initial_status.get(vertex, True)
            self._status_events[vertex] = (was, False)
        super()._unmatch(u, v, su, sv)

    # ---------------------------------------------------------------- updates
    def _apply(self, update: GraphUpdate) -> None:
        self._status_events = {}
        self._initial_status: dict[int, bool] = {}
        self._current_edge = update.edge
        if update.is_insert:
            self._insert34(update.u, update.v)
        else:
            self._delete34(update.u, update.v)
        self._update_counters(update)
        self.fabric.round_robin_refresh()

    # ------------------------------------------------------------------ insert
    def _insert34(self, x: int, y: int) -> None:
        self.shadow.insert_edge(x, y)
        fabric = self.fabric
        stats = fabric.query_stats([x, y])
        sx, sy = stats[x], stats[y]
        self._initial_status[x] = sx.mate is not None
        self._initial_status[y] = sy.mate is not None

        sx.degree += 1
        sy.degree += 1
        fabric.record("insert", x, y)
        self._handle_threshold_crossing(x, sx)
        self._handle_threshold_crossing(y, sy)
        fabric.push_stats({x: sx, y: sy})

        fabric.update_vertex(x, sx)
        fabric.update_vertex(y, sy)
        fabric.add_edge_copy(x, y, sx, neighbor_mate=sy.mate)
        fabric.add_edge_copy(y, x, sy, neighbor_mate=sx.mate)

        if sx.mate is not None and sy.mate is not None:
            return
        if sx.mate is None and sy.mate is None:
            self._match(x, y, sx, sy)
            return

        # Exactly one endpoint (call it u) is matched; v is free.
        (u, su), (v, sv) = ((x, sx), (y, sy)) if sx.mate is not None else ((y, sy), (x, sx))
        mate_u = su.mate
        assert mate_u is not None
        s_mate = fabric.query_stats([mate_u])[mate_u]
        self._initial_status[mate_u] = True
        # Probe the mate's machine for an actual free neighbour distinct from
        # u and v.  (The free-neighbour counter is the paper's shortcut for
        # skipping this probe when it is zero; the probe itself is what
        # guarantees the chosen neighbour really is free and distinct.)
        found = fabric.batch_free_neighbor_query([(mate_u, s_mate, (u, v))]).get(mate_u)
        if found is not None:
            s_found = fabric.query_stats([found])[found]
            if s_found.mate is None:
                self._initial_status.setdefault(found, False)
                self._unmatch(u, mate_u, su, s_mate)
                self._match(u, v, su, sv)
                self._match(mate_u, found, s_mate, s_found)
                return
        # No augmenting path through the mate; restore Invariant 3.1 if the
        # free endpoint is heavy (as in Section 3).
        if sv.degree >= fabric.threshold:
            self._settle(v, sv)

    # ------------------------------------------------------------------ delete
    def _delete34(self, x: int, y: int) -> None:
        self.shadow.delete_edge(x, y)
        fabric = self.fabric
        stats = fabric.query_stats([x, y])
        sx, sy = stats[x], stats[y]
        self._initial_status[x] = sx.mate is not None
        self._initial_status[y] = sy.mate is not None

        sx.degree = max(0, sx.degree - 1)
        sy.degree = max(0, sy.degree - 1)
        sx.heavy = sx.degree >= fabric.threshold
        sy.heavy = sy.degree >= fabric.threshold
        fabric.record("delete", x, y)
        fabric.push_stats({x: sx, y: sy})

        fabric.update_vertex(x, sx)
        fabric.update_vertex(y, sy)
        fabric.remove_edge_copy(x, y, sx)
        fabric.remove_edge_copy(y, x, sy)

        if sx.mate != y:
            return
        self._unmatch(x, y, sx, sy)
        self._handle_free34(x, sx)
        self._handle_free34(y, sy)

    def _handle_free34(self, z: int, sz: VertexStats, *, depth: int = 0) -> None:
        """Re-settle a newly free vertex while killing length-3 augmenting paths."""
        fabric = self.fabric
        if sz.mate is not None:
            return
        # the Section-3 query: a vertex that fell below the threshold may
        # still keep its only free neighbours on the suspended stack
        free = self._query_free_neighbor(z, sz)
        if free is not None:
            s_free = fabric.query_stats([free])[free]
            if s_free.mate is None:
                self._initial_status.setdefault(free, False)
                self._match(z, free, sz, s_free)
                return
        if sz.degree < fabric.threshold:
            # Light vertex with no free neighbour: look for an augmenting
            # path of length 3 starting at z.
            reply = fabric.update_vertex(z, sz, query="matched-neighbors")
            pairs = [(w, mate) for (w, mate) in reply["matched"] if mate is not None and w != z and mate != z]
            if not pairs:
                return
            mates = [mate for (_w, mate) in pairs]
            mate_stats = fabric.query_stats(sorted(set(mates)))
            # Probe every candidate mate's machine in one batched round; the
            # free-neighbour counters order the candidates (most promising
            # first) but the probe is what decides.
            candidates = sorted(pairs, key=lambda p: -mate_stats[p[1]].free_neighbors)
            probe = fabric.batch_free_neighbor_query(
                [(mate, mate_stats[mate], (z, w)) for (w, mate) in candidates]
            )
            for (w, mate) in candidates:
                q = probe.get(mate)
                if q is None:
                    continue
                s_q = fabric.query_stats([q])[q]
                if s_q.mate is not None:
                    continue
                s_w = fabric.query_stats([w])[w]
                s_mate = mate_stats[mate]
                if s_w.mate != mate:
                    continue
                self._initial_status.setdefault(w, True)
                self._initial_status.setdefault(mate, True)
                self._initial_status.setdefault(q, False)
                self._unmatch(w, mate, s_w, s_mate)
                self._match(z, w, sz, s_w)
                self._match(mate, q, s_mate, s_q)
                return
            return
        # Heavy vertex: first make sure no free neighbour hides among the
        # suspended edges (a matched (z, w) edge where z still had a free
        # neighbour would re-create a length-3 augmenting path), then steal a
        # neighbour with a light mate (Section 3 rule) and re-settle the
        # evicted light mate with the Section 4 logic.
        suspended_free = fabric.scan_suspended_for_free(z, sz)
        if suspended_free is not None:
            s_free = fabric.query_stats([suspended_free])[suspended_free]
            if s_free.mate is None:
                self._initial_status.setdefault(suspended_free, False)
                self._match(z, suspended_free, sz, s_free)
                return
        reply = fabric.update_vertex(z, sz, query="matched-neighbors")
        pairs = reply["matched"]
        mates = [mate for (_w, mate) in pairs if mate is not None]
        lightness = fabric.query_lightness(mates)
        chosen: tuple[int, int] | None = None
        for (w, mate) in pairs:
            if mate is not None and lightness.get(mate, False) and mate != z and w != z:
                chosen = (w, mate)
                break
        if chosen is None:
            free = fabric.scan_suspended_for_free(z, sz)
            if free is not None:
                s_free = fabric.query_stats([free])[free]
                if s_free.mate is None:
                    self._initial_status.setdefault(free, False)
                    self._match(z, free, sz, s_free)
            return
        w, mate = chosen
        pair_stats = fabric.query_stats([w, mate])
        s_w, s_mate = pair_stats[w], pair_stats[mate]
        if s_w.mate != mate:
            return
        self._initial_status.setdefault(w, True)
        self._initial_status.setdefault(mate, True)
        self._unmatch(w, mate, s_w, s_mate)
        self._match(z, w, sz, s_w)
        if depth < 2:
            self._handle_free34(mate, s_mate, depth=depth + 1)

    # ------------------------------------------------------ counter maintenance
    def _update_counters(self, update: GraphUpdate) -> None:
        """Push free-neighbour-counter deltas caused by this update.

        Two sources of change are combined exactly as described in the module
        docstring: the edge insertion/deletion itself (affecting only its two
        endpoints) and the matching-status flips of (light) vertices
        (affecting all their neighbours, reached through one neighbour-list
        message plus a fan-out to the statistics machines).
        """
        fabric = self.fabric
        deltas: dict[int, int] = {}
        u, v = update.edge
        final_status = {vertex: (after) for vertex, (_before, after) in self._status_events.items()}

        def is_free_now(vertex: int) -> bool:
            if vertex in final_status:
                return not final_status[vertex]
            return fabric.mate_of(vertex) is None

        def was_free_before(vertex: int) -> bool:
            if vertex in self._status_events:
                before, _after = self._status_events[vertex]
                return not bool(before)
            if vertex in self._initial_status:
                return not self._initial_status[vertex]
            return fabric.mate_of(vertex) is None

        if update.is_insert:
            if is_free_now(v):
                deltas[u] = deltas.get(u, 0) + 1
            if is_free_now(u):
                deltas[v] = deltas.get(v, 0) + 1
        else:
            if was_free_before(v):
                deltas[u] = deltas.get(u, 0) - 1
            if was_free_before(u):
                deltas[v] = deltas.get(v, 0) - 1

        for vertex, (before, after) in self._status_events.items():
            before = bool(before)
            if before == after:
                continue
            delta = -1 if after else 1  # became matched -> neighbours lose a free neighbour
            stats = fabric.query_stats([vertex])[vertex]
            neighbors = fabric.neighbor_list(vertex, stats)
            for nbr in neighbors:
                if update.is_insert and {vertex, nbr} == {u, v}:
                    continue  # already accounted for by the edge term above
                deltas[nbr] = deltas.get(nbr, 0) + delta
        fabric.push_counter_deltas(deltas)

    # ------------------------------------------------------------ diagnostics
    def verify_invariants(self) -> None:
        matching = self.matching()
        if not is_matching(self.shadow, matching):
            raise InvariantViolation("maintained edge set is not a matching")
        if not is_maximal_matching(self.shadow, matching):
            raise InvariantViolation("maintained matching is not maximal")
        if has_length3_augmenting_path(self.shadow, matching):
            raise InvariantViolation("a length-3 augmenting path survived the update")
