"""Static MPC minimum spanning forest by Borůvka contraction.

Each Borůvka phase every current component selects its minimum-weight
outgoing edge; all selected edges are added to the forest and the touched
components merge.  The number of components at least halves per phase, so
``O(log n)`` phases suffice — with all machines active and ``Theta(m)``
words of label/candidate traffic per phase, the static cost profile the
dynamic (1+eps)-MST algorithm of Section 5.1 is compared against.

Component labels are maintained exactly as in
:class:`~repro.static_mpc.connected_components.StaticConnectedComponents`;
candidate edges are aggregated at the owner machine of each component's
label vertex.

The per-machine candidate scan is a module-level picklable program
(:class:`CSRMSTCandidateProgram`) routed through :meth:`Cluster.superstep`.
The program reads the shared union-find ``component`` map through ``find``
with path compression — the sanctioned *semantically invisible* mutation of
shared state: no merges happen during the scan, so every compressed pointer
is a valid ancestor and every ``find`` returns the phase's unique root
whether the map is the live driver dict (sequential execution) or a
resident worker's copy (where the compression is simply discarded).
Merging (choosing global minima and uniting components) is a
driver-level decision between supersteps, mirroring the label-vertex
owners' role.
"""

from __future__ import annotations

from typing import Any, Mapping, MutableMapping

from repro.graph.graph import DynamicGraph, normalize_edge
from repro.mpc.program import MachineContext
from repro.static_mpc.common import StaticMPCSetup, VertexProgram, build_static_cluster

__all__ = ["StaticBoruvkaMST", "CSRMSTCandidateProgram"]


class CSRMSTCandidateProgram(VertexProgram):
    """Report, per owned component label, the cheapest outgoing owned edge.

    Walks the machine's flat ``indices``/``weights`` buffers with a per-run
    root memo in front of ``find``: no merges happen during a scan, so every
    root is stable for the whole phase and each distinct vertex pays for at
    most one union-find walk per machine (path compression is the
    sanctioned semantically-invisible mutation: roots, and therefore every
    candidate and message, do not depend on it).  The scan deliberately
    stays in python over the cached ``entry_lists`` materialization:
    per-machine rows are tens-to-hundreds of entries at Table-1 scale, where
    per-call numpy dispatch costs more than it saves, while bulk ``tolist``
    + list slicing beats per-index ``array`` access.  Candidates surface in
    ``best_local`` insertion order — first appearance of each component over
    the row-major scan.  Candidate messages are a constant 7 words (tag 2 +
    4-tuple framing 5), equal to the self-sized charge (pinned in
    ``tests/static_mpc/test_layout_ab.py``).

    The delta is the number of candidate edges reported — what the driver's
    termination check sums at the barrier; ``apply`` records it in the
    ``candidate_counts`` map, declared in ``shared_writes`` for the
    delta-replay contract.
    """

    shared_reads = ("component",)
    shared_writes = ("candidate_counts",)
    store_reads = ("csr",)
    #: driver scope: candidate counts feed the driver's termination check
    #: only — no run ever reads them, so worker replay is skipped entirely.
    delta_scope = "driver"
    #: the inbox holds the previous phase's merge broadcast, already
    #: reflected in the shared component map — never read
    reads_inbox = False

    def run(self, ctx: MachineContext, inbox: list, shared: Mapping[str, Any]) -> int:
        component = shared["component"]

        def find(v: int) -> int:
            while component[v] != v:
                component[v] = component[component[v]]
                v = component[v]
            return v

        csr = ctx.load("csr")
        if csr is None or not csr.num_rows:
            return 0
        lists = csr.entry_lists()
        indptr = lists["indptr"]
        indices = lists["indices"]
        weights = lists["weights"]
        if weights is None:
            weights = [1.0] * len(indices)
        infinity = float("inf")
        roots: dict[int, int] = {}
        roots_get = roots.get
        best_local: dict[int, tuple[float, int, int]] = {}
        best_local_get = best_local.get
        start = 0
        for row, v in enumerate(lists["verts"]):
            stop = indptr[row + 1]
            comp_v = roots_get(v)
            if comp_v is None:
                comp_v = roots[v] = find(v)
            # Scalar best-so-far instead of per-candidate tuples: the
            # (weight, v, w) lexicographic compare is unrolled with a cheap
            # ``weight > best`` early-out, so the common cross entry costs
            # one float compare and no allocation.
            best = best_local_get(comp_v)
            if best is None:
                best_weight, best_v, best_w = infinity, -1, -1
            else:
                best_weight, best_v, best_w = best
            changed = False
            for w, weight in zip(indices[start:stop], weights[start:stop]):
                comp_w = roots_get(w)
                if comp_w is None:
                    comp_w = roots[w] = find(w)
                if comp_w == comp_v or weight > best_weight:
                    continue
                if (
                    weight < best_weight
                    or v < best_v
                    or (v == best_v and w < best_w)
                ):
                    best_weight, best_v, best_w = weight, v, w
                    changed = True
            if changed:
                best_local[comp_v] = (best_weight, best_v, best_w)
            start = stop
        for comp_label, (weight, v, w) in best_local.items():
            ctx.send(self.owner(comp_label), "mst-candidate", (comp_label, weight, v, w), words=7)
        return len(best_local)

    def apply(self, shared: MutableMapping[str, Any], machine_id: str, delta: int) -> None:
        shared["candidate_counts"][machine_id] = delta


class StaticBoruvkaMST:
    """Borůvka's algorithm on the simulator (exact minimum spanning forest)."""

    def __init__(
        self,
        graph: DynamicGraph,
        *,
        num_workers: int | None = None,
        max_phases: int | None = None,
        backend: str | None = None,
        shard_count: int | None = None,
        resident_slots: int | None = None,
        resident_shm_ring_bytes: int | None = None,
    ) -> None:
        self.graph = graph
        self.setup: StaticMPCSetup = build_static_cluster(
            graph,
            num_workers=num_workers,
            backend=backend,
            shard_count=shard_count,
            resident_slots=resident_slots,
            resident_shm_ring_bytes=resident_shm_ring_bytes,
        )
        self.cluster = self.setup.cluster
        self.max_phases = max_phases if max_phases is not None else 2 * max(2, graph.num_vertices.bit_length() + 1)
        self.forest: set[tuple[int, int]] = set()
        self.phases_used = 0

    def run(self, label: str = "static-mst") -> set[tuple[int, int]]:
        """Execute Borůvka; returns the minimum spanning forest edge set."""
        cluster = self.cluster
        setup = self.setup
        worker_ids = setup.worker_ids
        # Shared driver state: the union-find component map the candidate
        # scan reads, and the per-machine candidate counts its deltas fill.
        state: dict[str, Any] = {
            "component": {v: v for v in self.graph.vertices},
            "candidate_counts": {},
        }
        component: dict[int, int] = state["component"]
        candidate_counts: dict[str, int] = state["candidate_counts"]
        forest: set[tuple[int, int]] = set()
        report_candidates = CSRMSTCandidateProgram(setup.owned, worker_ids)

        def find(v: int) -> int:
            while component[v] != v:
                component[v] = component[component[v]]
                v = component[v]
            return v

        # Session scope for resident backends: the big weights stores stay
        # resident across phases; the union-find map — mutated driver-side
        # by the merge decisions — is re-shipped only after phases that
        # actually merged (driver-side path compression alone is the
        # sanctioned semantically-invisible mutation: every compressed
        # pointer is a valid ancestor, so stale worker copies still find
        # the same roots).
        with cluster.update(label), cluster.session(state) as session:
            for phase in range(self.max_phases):
                # Phase part 1: each owner reports, per owned component label,
                # the cheapest outgoing edge among its owned vertices.
                cluster.superstep(report_candidates, machines=worker_ids, shared=state)
                if sum(candidate_counts.values()) == 0:
                    # The terminal phase's empty scan still cost one (empty)
                    # exchange — the price of detecting termination inside the
                    # superstep rather than re-scanning all edges sequentially
                    # at the driver, which would serialise exactly the work
                    # the resident workers share out.
                    break

                # Phase part 2: component-label owners pick the global minimum
                # per component and broadcast the merges.
                chosen: dict[int, tuple[float, int, int]] = {}
                for machine_id in worker_ids:
                    for msg in cluster.machine(machine_id).drain("mst-candidate"):
                        comp_label, weight, v, w = msg.payload
                        entry = (weight, v, w)
                        if comp_label not in chosen or entry < chosen[comp_label]:
                            chosen[comp_label] = entry
                merges: list[tuple[int, int]] = []
                for comp_label, (weight, v, w) in sorted(chosen.items()):
                    if find(v) != find(w):
                        forest.add(normalize_edge(v, w))
                        merges.append((find(v), find(w)))
                        component[find(v)] = find(w)
                if merges:
                    session.touch("component")
                # Broadcast the merge decisions (constant words per merge) so
                # every machine can update its local component view.  The
                # charge is pre-sized with the closed form for a list of k
                # 2-tuples — tag 2 + list framing 1 + 3k — pinned equal to
                # the sizer in test_layout_ab.py; recursively sizing the
                # same broadcast payload once per receiver dominated the
                # whole phase before.
                merge_words = 3 + 3 * len(merges)
                leader = cluster.machine(worker_ids[0])
                for machine_id in worker_ids[1:]:
                    leader.send(machine_id, "mst-merges", merges, words=merge_words)
                cluster.exchange()
                self.phases_used = phase + 1
            for machine_id in worker_ids[1:]:
                cluster.machine(machine_id).drain("mst-merges")

        self.forest = forest
        return forest

    def forest_weight(self) -> float:
        """Total weight of the computed forest."""
        return sum(self.graph.weight(u, v) for (u, v) in self.forest)
