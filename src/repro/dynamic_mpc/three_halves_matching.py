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

The Section-3 update path is :class:`DMPCMaximalMatching`'s, unchanged;
this class keeps only what Section 4 adds to it, through its three hooks:

* ``_augment`` — an inserted edge ``(u, v)`` with ``u`` matched and ``v``
  free probes ``mate(u)``'s machine for a free neighbour ``q`` and, if one
  is there, replaces ``u = mate(u)`` by ``v = u`` and ``mate(u) = q``;
* ``_resettle`` — an endpoint freed by a delete: a light vertex without a
  free neighbour searches for a length-3 augmenting path; a heavy one scans
  its suspended edges, then steals, and its evicted mate re-settles in turn;
* ``_update_counters`` — the counter deltas of the update and of every
  status change it made (``_match`` / ``_unmatch`` record those).
"""

from __future__ import annotations

from repro.config import DMPCConfig
from repro.dynamic_mpc.maximal_matching import DMPCMaximalMatching
from repro.exceptions import InvariantViolation, ProtocolError
from repro.graph.graph import DynamicGraph
from repro.graph.updates import GraphUpdate
from repro.graph.validation import has_length3_augmenting_path
from repro.mpc.layout import StatsView

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
    # A vertex with no event yet in this update had, when the update began,
    # the status it has now: a vertex being matched was free, and a vertex
    # being unmatched was matched.
    def _match(self, u: int, v: int, su: StatsView, sv: StatsView) -> None:
        events = self._status_events
        for vertex in (u, v):
            events[vertex] = (events[vertex][0] if vertex in events else False, True)
        super()._match(u, v, su, sv)

    def _unmatch(self, u: int, v: int, su: StatsView, sv: StatsView) -> None:
        events = self._status_events
        for vertex in (u, v):
            events[vertex] = (events[vertex][0] if vertex in events else True, False)
        super()._unmatch(u, v, su, sv)

    # ------------------------------------------------------------------ hooks
    def _augment(self, u: int, su: StatsView, v: int, sv: StatsView) -> bool:
        """Kill the length-3 path ``v - u = mate(u) - q`` the inserted edge ``(u, v)`` opened, if ``q`` exists."""
        fabric = self.fabric
        mate_u = su.mate
        assert mate_u is not None
        s_mate = fabric.query_stats([mate_u])[mate_u]
        # Probe the mate's machine for an actual free neighbour distinct from
        # u and v.  (The free-neighbour counter is the paper's shortcut for
        # skipping this probe when it is zero; the probe itself is what
        # guarantees the chosen neighbour really is free and distinct.)
        found = fabric.batch_free_neighbor_query([(mate_u, s_mate, (u, v))]).get(mate_u)
        if found is None:
            return False
        s_found = fabric.query_stats([found])[found]
        if s_found.mate is not None:
            return False
        self._unmatch(u, mate_u, su, s_mate)
        self._match(u, v, su, sv)
        self._match(mate_u, found, s_mate, s_found)
        return True

    def _resettle(self, z: int, sz: StatsView) -> None:
        """Re-settle a newly free vertex while killing length-3 augmenting paths.

        A heavy ``z`` that steals evicts a mate whose statistics, read in the
        steal, were light, and nothing changes that mate's degree before it
        re-settles: the recursion takes the light branch and ends there.  An
        evicted mate at or above the threshold would break that, so it is
        refused.
        """
        fabric = self.fabric
        # the Section-3 query: a vertex that fell below the threshold may
        # still keep its only free neighbours on the suspended stack
        if sz.mate is not None or self._match_if_free(z, sz, self._query_free_neighbor(z, sz)):
            return
        if sz.degree < fabric.threshold:
            self._augment_length3(z, sz)
            return
        # Heavy vertex: first make sure no free neighbour hides among the
        # suspended edges (a matched (z, w) edge where z still had a free
        # neighbour would re-create a length-3 augmenting path), then steal a
        # neighbour with a light mate (Section 3 rule) and re-settle the
        # evicted light mate with the Section 4 logic.
        if self._match_if_free(z, sz, fabric.scan_suspended_for_free(z, sz)):
            return
        stolen = self._steal(z, sz)
        if stolen is not None:
            _w, mate, s_mate = stolen
            if s_mate.degree >= fabric.threshold:
                raise ProtocolError(
                    f"heavy vertex {z} stole from vertex {mate}, whose degree {s_mate.degree} "
                    f"is at or above the threshold {fabric.threshold}"
                )
            self._resettle(mate, s_mate)

    def _augment_length3(self, z: int, sz: StatsView) -> None:
        """A light free ``z`` with no free neighbour: augment along a path ``z - w = mate(w) - q`` if one exists."""
        fabric = self.fabric
        reply = fabric.update_vertex(z, sz, query="matched-neighbors")
        pairs = [(w, mate) for (w, mate) in reply["matched"] if w != z and mate != z]
        if not pairs:
            return
        mates = [mate for (_w, mate) in pairs]
        mate_stats = fabric.query_stats(sorted(set(mates)))
        # Probe every candidate mate's machine in one batched round; the
        # free-neighbour counters order the candidates (most promising
        # first) but the probe is what decides.
        candidates = sorted(pairs, key=lambda p: -mate_stats[p[1]].free_neighbors)
        probe = fabric.batch_free_neighbor_query([(mate, mate_stats[mate], (z, w)) for (w, mate) in candidates])
        for (w, mate) in candidates:
            q = probe.get(mate)
            if q is None:
                continue
            s_q = fabric.query_stats([q])[q]
            if s_q.mate is not None:
                continue
            s_w = fabric.query_stats([w])[w]
            if s_w.mate != mate:
                continue
            s_mate = mate_stats[mate]
            self._unmatch(w, mate, s_w, s_mate)
            self._match(z, w, sz, s_w)
            self._match(mate, q, s_mate, s_q)
            return

    # ------------------------------------------------------ counter maintenance
    def _update_counters(self, update: GraphUpdate) -> None:
        """Push free-neighbour-counter deltas caused by this update.

        Two sources of change are combined exactly as described in the module
        docstring: the edge insertion/deletion itself (affecting only its two
        endpoints) and the matching-status flips of (light) vertices
        (affecting all their neighbours, reached through one neighbour-list
        message plus a fan-out to the statistics machines).  The update's
        status events are consumed.
        """
        fabric = self.fabric
        events, self._status_events = self._status_events, {}
        deltas: dict[int, int] = {}
        u, v = update.edge

        def free(vertex: int, when: int) -> bool:
            """Whether ``vertex`` was free before the update (``when`` 0) or is now (1)."""
            if vertex in events:
                return not events[vertex][when]
            return fabric.mate_of(vertex) is None

        if update.is_insert:
            if free(v, 1):
                deltas[u] = deltas.get(u, 0) + 1
            if free(u, 1):
                deltas[v] = deltas.get(v, 0) + 1
        else:
            if free(v, 0):
                deltas[u] = deltas.get(u, 0) - 1
            if free(u, 0):
                deltas[v] = deltas.get(v, 0) - 1

        for vertex, (before, after) in events.items():
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
        super().verify_invariants()
        if has_length3_augmenting_path(self.shadow, self.matching()):
            raise InvariantViolation("a length-3 augmenting path survived the update")
