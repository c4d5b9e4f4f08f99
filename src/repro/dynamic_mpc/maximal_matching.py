"""Section 3 — fully-dynamic DMPC maximal matching.

Costs per update (Table 1, first row): ``O(1)`` rounds, ``O(1)`` active
machines, ``O(sqrt N)`` communication per round, in the worst case, using a
coordinator machine and starting from an arbitrary graph.

The algorithm follows the paper's structure:

* vertices are *light* (degree below ``sqrt(2m)``) or *heavy*; a light
  vertex keeps its whole adjacency list on one machine, a heavy vertex keeps
  ``sqrt(2m)`` *alive* edges on one machine and the rest *suspended* on a
  stack of exclusive machines;
* all updates flow through the coordinator, which buffers the last
  ``O(sqrt N)`` input/matching changes in the update-history and forwards it
  to the machines involved in the current update (plus one machine per
  update round-robin, bounding staleness);
* **Invariant 3.1** — no heavy vertex stays unmatched: when a heavy vertex
  loses its matched edge (or appears unmatched), it either grabs a free
  alive neighbour or *steals* a neighbour ``w`` whose mate ``z`` is light,
  after which the light ``z`` re-settles within its single machine.
"""

from __future__ import annotations

from repro.config import DMPCConfig
from repro.dynamic_mpc.base import DynamicMPCAlgorithm
from repro.dynamic_mpc.state import MatchingFabric, VertexStats
from repro.exceptions import InvariantViolation
from repro.graph.graph import DynamicGraph
from repro.graph.updates import GraphUpdate
from repro.graph.validation import greedy_maximal_matching, is_matching, is_maximal_matching

__all__ = ["DMPCMaximalMatching"]


class DMPCMaximalMatching(DynamicMPCAlgorithm):
    """Fully-dynamic maximal matching in the DMPC model (Section 3)."""

    kind = "maximal-matching"

    def __init__(
        self,
        config: DMPCConfig,
        *,
        check_invariants: bool = False,
        layout: str | None = None,
        coalesce: bool | None = None,
    ) -> None:
        super().__init__(config, check_invariants=check_invariants, layout=layout, coalesce=coalesce)
        self.fabric = MatchingFabric(self.cluster, config, layout=self.layout)
        #: driver-side mirror of the input graph, used only for invariant checks
        self.shadow = DynamicGraph()

    # ----------------------------------------------------------------- layout
    def owner(self, v: int) -> str:
        """The statistics machine owning ``v`` (coalesced batches group by it)."""
        return self.fabric.partition.machine_for(v)

    # -------------------------------------------------------------- accessors
    def matching(self) -> set[tuple[int, int]]:
        """The maintained maximal matching."""
        return self.fabric.matching()

    def matching_size(self) -> int:
        return len(self.matching())

    def is_matched(self, v: int) -> bool:
        return self.fabric.mate_of(v) is not None

    # ---------------------------------------------------------- preprocessing
    def _preprocess(self, graph: DynamicGraph) -> None:
        """Load ``graph`` and an initial maximal matching onto the fabric.

        The paper computes the initial matching with the randomized
        ``O(log n)``-round CONGEST algorithm [23]; the equivalent static MPC
        baseline lives in :mod:`repro.static_mpc.maximal_matching` and is
        benchmarked separately, so the preprocessing here uses the greedy
        reference matching and charges only the placement traffic.
        """
        self.shadow = graph.copy()
        initial = greedy_maximal_matching(graph)
        self.fabric.load_initial_graph(graph, initial)
        # One broadcast-style round accounts for shipping the placement plan.
        coordinator = self.fabric.coordinator.machine
        for machine in self.cluster.machines(role="stats"):
            coordinator.send(machine.machine_id, "preprocess-plan", None, words=4)
        self.cluster.exchange()
        for machine in self.cluster.machines(role="stats"):
            machine.drain("preprocess-plan")

    # ---------------------------------------------------------------- updates
    def _apply(self, update: GraphUpdate) -> None:
        if update.is_insert:
            self._insert(update.u, update.v)
        else:
            self._delete(update.u, update.v)
        # Round-robin maintenance: keep every machine at most O(sqrt N) stale.
        self.fabric.round_robin_refresh()

    def _apply_batch(self, updates: list[GraphUpdate]) -> None:
        """Batched application: amortise the round-robin maintenance.

        The matching updates themselves flow through the coordinator one at
        a time (the Section 3 protocol is inherently sequential around the
        update-history), but the per-update maintenance refresh — one round
        each — is deferred by the fabric's batch scope and delivered as a
        single merged round at the end of the batch, with the history
        slices piggy-backed per machine.  Decision reads always apply
        pending history first, so the maintained matching is identical to
        sequential application.
        """
        fabric = self.fabric
        with fabric.batched():
            for update in updates:
                label = f"{self.kind}:{update.op}:{update.u}-{update.v}"
                with self.cluster.update(label):
                    self._apply(update)
            with self.cluster.update(f"{self.kind}:batch:refresh[{len(updates)}]"):
                fabric.flush_deferred_refreshes()

    # ------------------------------------------------------------------ insert
    def _insert(self, x: int, y: int) -> None:
        self.shadow.insert_edge(x, y)
        fabric = self.fabric
        stats = fabric.query_stats([x, y])
        sx, sy = stats[x], stats[y]

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
        # Exactly one endpoint is matched: restore Invariant 3.1 if the free
        # endpoint is heavy, otherwise nothing needs to happen.
        free_vertex, free_stats = (x, sx) if sx.mate is None else (y, sy)
        if free_stats.degree >= self.fabric.threshold:
            self._settle(free_vertex, free_stats)

    # ------------------------------------------------------------------ delete
    def _delete(self, x: int, y: int) -> None:
        self.shadow.delete_edge(x, y)
        fabric = self.fabric
        stats = fabric.query_stats([x, y])
        sx, sy = stats[x], stats[y]

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
        self._settle(x, sx)
        self._settle(y, sy)

    # ------------------------------------------------------------- sub-steps
    def _handle_threshold_crossing(self, v: int, stats: VertexStats) -> None:
        """Relocate a light vertex that just became heavy to an exclusive machine."""
        fabric = self.fabric
        became_heavy = stats.degree >= fabric.threshold and not stats.heavy
        stats.heavy = stats.degree >= fabric.threshold
        if became_heavy and stats.alive_machine is not None:
            exclusive = fabric._allocate_machine(light=False)
            fabric.move_vertex_edges(v, stats, exclusive)

    def _match(self, u: int, v: int, su: VertexStats, sv: VertexStats) -> None:
        fabric = self.fabric
        su.mate = v
        sv.mate = u
        fabric.record("match", u, v)
        fabric.push_stats({u: su, v: sv})

    def _unmatch(self, u: int, v: int, su: VertexStats, sv: VertexStats) -> None:
        fabric = self.fabric
        su.mate = None
        sv.mate = None
        fabric.record("unmatch", u, v)
        fabric.push_stats({u: su, v: sv})

    def _query_free_neighbor(self, z: int, sz: VertexStats) -> int | None:
        """A free neighbour of ``z`` among its alive *and* suspended edges, if any."""
        fabric = self.fabric
        free = fabric.update_vertex(z, sz, query="free-neighbor")["free"]
        if free is None and sz.suspended_machines:
            # Deletions can drain the alive set while neighbours — possibly
            # the only free ones — still sit on the suspended stack, and the
            # vertex may meanwhile have dropped below the heavy threshold
            # (which would skip the callers' heavy fallbacks entirely).
            # Refill the alive set from the stack (the paper's
            # ``fetchSuspended``), re-query it, and as a last resort scan
            # the remaining suspended machines directly.
            fabric.fetch_suspended(z, sz)
            fabric.push_stats({z: sz})
            free = fabric.update_vertex(z, sz, query="free-neighbor")["free"]
            if free is None and sz.suspended_machines:
                free = fabric.scan_suspended_for_free(z, sz)
        return free

    def _settle(self, z: int, sz: VertexStats) -> None:
        """(Re)match a free vertex ``z``, restoring maximality and Invariant 3.1."""
        fabric = self.fabric
        if sz.mate is not None:
            return
        free = self._query_free_neighbor(z, sz)
        if free is not None:
            sfree = fabric.query_stats([free])[free]
            if sfree.mate is None:
                self._match(z, free, sz, sfree)
                return
        if sz.degree < fabric.threshold:
            return  # light vertex with no free neighbour: maximality holds around z
        # Heavy vertex: steal a neighbour whose mate is light.
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
            # Fallback: look for a free neighbour among the suspended edges.
            free = fabric.scan_suspended_for_free(z, sz)
            if free is not None:
                sfree = fabric.query_stats([free])[free]
                if sfree.mate is None:
                    self._match(z, free, sz, sfree)
            return
        w, mate = chosen
        stats_pair = fabric.query_stats([w, mate])
        sw, smate = stats_pair[w], stats_pair[mate]
        if sw.mate != mate:
            return  # stale pair (can only happen if the history raced) — leave as is
        self._unmatch(w, mate, sw, smate)
        self._match(z, w, sz, sw)
        # The evicted (light) vertex re-settles within its single machine.
        reply = fabric.update_vertex(mate, smate, query="free-neighbor", exclude=(w,))
        q = reply["free"]
        if q is not None:
            sq = fabric.query_stats([q])[q]
            if sq.mate is None:
                self._match(mate, q, smate, sq)

    # ------------------------------------------------------------ diagnostics
    def verify_invariants(self) -> None:
        """Assert that the maintained matching is a maximal matching of the graph."""
        matching = self.matching()
        if not is_matching(self.shadow, matching):
            raise InvariantViolation("maintained edge set is not a matching")
        if not is_maximal_matching(self.shadow, matching):
            raise InvariantViolation("maintained matching is not maximal")
