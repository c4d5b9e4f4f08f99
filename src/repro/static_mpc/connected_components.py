"""Static MPC connected components (and spanning forest) by label propagation.

Every vertex starts with its own identifier as its component label.  In each
iteration every machine sends, for every edge ``(u, v)`` with an owned
endpoint ``u`` in its *frontier*, the current label of ``u`` to the owner of
``v``; owners then lower each owned vertex's label to the minimum received
value.  The frontier is the set of owned vertices whose label dropped in
the previous iteration (every vertex on the first).  A vertex outside it
already sent its current label along every edge when that label arrived,
so each neighbour holds a label no larger and the proposal could lower
nothing: skipping it changes no label, no via pointer and no iteration
count, only the words and messages.  The process converges when every
frontier is empty — after ``O(diameter)`` iterations, which on the random
graphs used in the benchmarks behaves like the ``O(log n)`` bound of the
contraction-based algorithms the paper cites [14, 25].

The algorithm also records, for every vertex whose label strictly
decreases, the neighbour the smaller label arrived from.  These "via"
pointers form a spanning forest of the graph (each strict decrease points to
a vertex that held the smaller label strictly earlier, so no cycles can
form), which is what the Section 5 preprocessing needs.

Each iteration is two supersteps expressed as module-level picklable
programs (:class:`CSRLabelProposeProgram`, :class:`LabelApplyProgram`) routed
through :meth:`Cluster.superstep`, so the per-machine work runs under
whatever execution strategy the cluster's backend provides — including the
``resident`` backend's long-lived worker processes.  The programs follow
the program contract: shared driver state (``labels``, ``via``,
``frontier``) is read through the declared ``shared_reads`` keys and
only *written* through deltas merged at the round barrier, which is exactly
what lets the per-machine code run in another process without changing a
single delivered message.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Mapping, MutableMapping

from repro.graph.graph import DynamicGraph, normalize_edge
from repro.mpc.layout import check_layout
from repro.mpc.program import MachineContext
from repro.static_mpc.common import StaticMPCSetup, VertexProgram, build_static_cluster

__all__ = [
    "StaticConnectedComponents",
    "CSRLabelProposeProgram",
    "LabelApplyProgram",
]


class CSRLabelProposeProgram(VertexProgram):
    """Ship every frontier vertex's current label along each incident edge: one message per target.

    Walks the CSR rows of the machine's frontier in row order, bucketing
    ``(neighbour, label, source)`` triples by the neighbour's owner
    (``owner_pos``) — in first-appearance target order and ascending entry
    order, the order a per-vertex loop over sorted adjacency lists
    produces, so each message is the full-graph message with the
    non-frontier triples removed.  The buckets are staged in one
    :meth:`MachineContext.send_many` call (a machine talks to nearly every
    other machine with a triple or two each, so the cost is per message,
    not per word).  Message words use the closed form ``3 + 4k`` (tag 2 +
    list framing 1 + 3 words per triple), which equals the self-sized
    charge exactly (pinned in ``tests/static_mpc/test_layout_ab.py``) and
    skips the O(k) sizing walk.
    """

    shared_reads = ("labels", "frontier")
    store_reads = ("csr",)
    #: the inbox only ever holds the previous round's stale termination
    #: flags (on the leader) — never read, so never shipped to workers
    reads_inbox = False
    #: the proposals are consumed by the next superstep's machines, never
    #: by the driver — worker-drivable inside a fused round block
    driver_reads_sends = False

    def run(self, ctx: MachineContext, inbox: list, shared: Mapping[str, Any]) -> None:
        frontier = shared["frontier"][ctx.machine_id]
        if not frontier:
            return
        lists = ctx.load("csr").entry_lists()
        verts, indptr, indices, owner_pos = lists["verts"], lists["indptr"], lists["indices"], lists["owner_pos"]
        labels = shared["labels"]
        buckets: defaultdict[int, list[tuple[int, int, int]]] = defaultdict(list)
        for row in sorted(map(lists["row_of"].__getitem__, frontier)):
            v = verts[row]
            label = labels[v]
            start, stop = indptr[row], indptr[row + 1]
            for w, pos in zip(indices[start:stop], owner_pos[start:stop]):
                buckets[pos].append((w, label, v))
        worker_ids = self.worker_ids
        ctx.send_many(
            "label-proposal", [(worker_ids[pos], items, 3 + 4 * len(items)) for pos, items in buckets.items()]
        )


class LabelApplyProgram(VertexProgram):
    """Lower owned labels to the minimum proposal; the improved vertices are the next frontier.

    The delta maps each improved owned vertex to its new ``(label, via
    edge)`` — tracked against a local running minimum
    (read-your-own-writes), so the merged result is identical to the
    historical in-place sequential application.  ``apply`` writes the
    labels, the via pointers and ``frontier[machine_id]`` (the improved
    vertices, an empty list when none improved), so ``via`` and
    ``frontier`` are declared in ``shared_writes`` — the delta-replay
    contract that lets resident worker sessions replay the merged deltas
    against their own copy of the shared state.

    The program is fully worker-drivable: the proposal inboxes it folds
    already live at the workers (slot-routed from the propose round), its
    delta is owner-scoped, and its only sends — the constant-size
    termination flags to the leader — are never read by the driver (the
    loop reads the merged frontiers instead; the leader's inbox is a
    drained audit trail).  Declaring ``driver_reads_sends=False`` lets
    resident sessions fuse ``[propose, apply]`` into one worker-driven
    block: the proposal traffic then never crosses the process boundary at
    all.
    """

    shared_reads = ("labels",)
    shared_writes = ("via", "frontier")
    #: the termination flags go to the leader *machine*; the driver reads
    #: the merged frontiers, never these messages
    driver_reads_sends = False
    #: owner scope: machine m's delta lowers labels of vertices m owns and
    #: sets m's frontier — which only m's own later runs read (propose ships
    #: owned labels along the frontier's rows, the next fold reads owned
    #: labels); via is driver-only.
    delta_scope = "owner"

    def __init__(self, owned: dict[str, list[int]], worker_ids: list[str], leader_id: str) -> None:
        super().__init__(owned, worker_ids)
        self.leader_id = leader_id

    def run(self, ctx: MachineContext, inbox: list, shared: Mapping[str, Any]) -> dict:
        labels = shared["labels"]
        improvements: dict[int, tuple[int, tuple[int, int]]] = {}
        for msg in inbox:
            if msg.tag != "label-proposal":
                continue
            for (w, proposed, sender_vertex) in msg.payload:
                current = improvements[w][0] if w in improvements else labels[w]
                if proposed < current:
                    improvements[w] = (proposed, (sender_vertex, w))
        # One more round of constant-size messages (tag + flag: 2 words) to
        # agree on termination.
        if ctx.machine_id != self.leader_id:
            ctx.send(self.leader_id, "changed", bool(improvements), words=2)
        return improvements

    def apply(self, shared: MutableMapping[str, Any], machine_id: str, delta: dict) -> None:
        labels = shared["labels"]
        via = shared["via"]
        for w, (label, via_edge) in delta.items():
            labels[w] = label
            via[w] = via_edge
        shared["frontier"][machine_id] = list(delta)


class StaticConnectedComponents:
    """Min-label propagation over vertex-partitioned adjacency lists.

    ``layout`` accepts only ``"csr"`` (:func:`~repro.mpc.layout.check_layout`).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        *,
        num_workers: int | None = None,
        backend: str | None = None,
        shard_count: int | None = None,
        resident_slots: int | None = None,
        resident_shm_ring_bytes: int | None = None,
        layout: str = "csr",
    ) -> None:
        check_layout(layout)
        self.graph = graph
        self.setup: StaticMPCSetup = build_static_cluster(
            graph,
            num_workers=num_workers,
            backend=backend,
            shard_count=shard_count,
            resident_slots=resident_slots,
            resident_shm_ring_bytes=resident_shm_ring_bytes,
            weighted=False,
        )
        self.cluster = self.setup.cluster
        self.labels: dict[int, int] = {}
        self.parent_edges: dict[int, tuple[int, int]] = {}
        self.rounds_used = 0

    # --------------------------------------------------------------------- run
    def run(self, label: str = "static-cc") -> dict[int, int]:
        """Execute the algorithm; returns the vertex → component-label map."""
        cluster = self.cluster
        setup = self.setup
        worker_ids = setup.worker_ids
        leader_id = worker_ids[0]
        # The shared driver state both programs read (and LabelApplyProgram
        # writes through its deltas): labels, via pointers, and a machine id
        # -> frontier map, every owned vertex on the first iteration.
        state: dict[str, Any] = {
            "labels": {v: v for v in self.graph.vertices},
            "via": {},
            "frontier": dict(setup.owned),
        }
        propose = CSRLabelProposeProgram(setup.owned, worker_ids)
        apply_min = LabelApplyProgram(setup.owned, worker_ids, leader_id)

        # The session scope lets resident backends ship the label map and
        # adjacency stores once and keep worker copies in sync purely from
        # the merged deltas: this loop never mutates the shared state
        # outside program.apply, so it needs no session.touch at all.
        with cluster.update(label), cluster.session(state):
            rounds = 0
            while any(state["frontier"].values()):
                rounds += 1
                # One iteration = one fused block: every owner ships its
                # frontier's labels along their incident edges, then owners
                # lower labels to the minimum proposal.  Both programs are
                # worker-drivable, so resident backends run the pair as a
                # single worker-driven block (one driver round trip); every
                # other backend runs them as two plain supersteps.  The
                # block ends here because the loop must read the merged
                # frontiers before deciding on another iteration.
                cluster.superstep_block([propose, apply_min], machines=worker_ids, shared=state)
            cluster.machine(leader_id).drain("changed")
            self.rounds_used = rounds

        self.labels = state["labels"]
        self.parent_edges = state["via"]
        return self.labels

    # ----------------------------------------------------------------- results
    def components(self) -> list[set[int]]:
        """The computed components as vertex sets (``run`` must have been called)."""
        if not self.labels and self.graph.num_vertices > 0:
            raise RuntimeError("call run() before reading the components")
        groups: dict[int, set[int]] = {}
        for v, lbl in self.labels.items():
            groups.setdefault(lbl, set()).add(v)
        return list(groups.values())

    def spanning_forest(self) -> set[tuple[int, int]]:
        """A spanning forest assembled from the label-propagation via-pointers."""
        return {normalize_edge(u, v) for (u, v) in self.parent_edges.values()}
