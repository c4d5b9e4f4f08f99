"""Section 6 — fully-dynamic (2+eps)-approximate (almost-maximal) matching.

Costs per update (Table 1, third row): ``O(1)`` rounds, ``Õ(1)`` active
machines and ``Õ(1)`` communication per round.

The paper adapts the Charikar–Solomon almost-maximal matching: vertices are
partitioned across machines (no coordinator with ``Ω(sqrt N)`` messages),
matched vertices carry a *level* recording (the logarithm of) the sample
space their matched edge was drawn from, and all expensive work — settling
temporarily free vertices, propagating level changes to neighbours — is cut
into small batches executed by *schedulers*, a bounded number of operations
per update cycle.  The maintained matching is therefore *almost* maximal:
at any time a small number of vertices are still waiting in the scheduler
queues, and at most an ``eps`` fraction of the matching may be missing.

This implementation keeps the same architecture with simplified schedulers:

* every owner machine caches, for each owned vertex, the level and matching
  status of its neighbours; caches are brought up to date by *notification*
  tasks that the schedulers drain at a rate of ``Delta = O(log^2 n)``
  notifications per update cycle;
* a scheduler machine holds the queues ``Q_l`` of temporarily free vertices
  (one per level) and the active list ``A``; each update cycle it settles a
  bounded number of queued vertices via ``handle-free`` (sample a mate among
  cached-free lower-level neighbours, propose to its owner, re-enqueue on
  rejection);
* updates themselves touch only the two endpoints' owners plus the
  scheduler, so every update cycle uses ``O(1)`` rounds, ``Õ(1)`` machines
  and ``Õ(1)`` words.
"""

from __future__ import annotations

import math
import random

from repro.config import DMPCConfig
from repro.dynamic_mpc.base import DynamicMPCAlgorithm
from repro.exceptions import InvariantViolation
from repro.graph.graph import DynamicGraph, normalize_edge
from repro.graph.updates import GraphUpdate
from repro.graph.validation import is_matching, maximum_matching_size
from repro.mpc.partition import hash_partition
from repro.mpc.sizing import closed_form_words, register_closed_form

__all__ = ["DMPCTwoPlusEpsMatching"]

# Closed forms for the owner/scheduler protocol messages (all fixed-shape
# tuples, or flat lists of them); pinned equal to the recursive sizer in
# ``tests/dynamic_mpc``.
register_closed_form("edge-insert", lambda payload: 5)  # (x, y, level, matched)
register_closed_form("edge-delete", lambda payload: 3)  # (x, y)
register_closed_form("enqueue-free", lambda payload: 3)  # (v, level)
register_closed_form("notify", lambda payload: 1 + 6 * len(payload))  # [(target, (v, level, matched))]
register_closed_form("propose", lambda payload: 4)  # (v, candidate, level)
register_closed_form("propose-reply", lambda payload: 1)  # bool


class DMPCTwoPlusEpsMatching(DynamicMPCAlgorithm):
    """Fully-dynamic almost-maximal ((2+eps)-approximate) matching (Section 6)."""

    kind = "two-plus-eps-matching"

    def __init__(
        self,
        config: DMPCConfig,
        *,
        epsilon: float = 0.25,
        gamma: float = 4.0,
        seed: int = 2019,
        check_invariants: bool = False,
        coalesce: bool = False,
    ) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        super().__init__(config, check_invariants=check_invariants, coalesce=coalesce)
        self.epsilon = epsilon
        self.gamma = max(2.0, gamma)
        self.rng = random.Random(seed)
        workers = self.cluster.add_machines("w", max(2, config.num_worker_machines), role="worker")
        self.worker_ids = [m.machine_id for m in workers]
        self.scheduler_id = self.cluster.add_machine("scheduler", role="scheduler").machine_id
        # Batch sizes: Delta = O(log^2 n) scheduler operations per update cycle.
        logn = max(2, math.ceil(math.log2(max(4, config.capacity_n))))
        self.delta = max(8, logn * logn)
        self.settle_per_cycle = max(2, logn // 2)
        #: driver-side mirror of the input graph, used only for invariant checks
        self.shadow = DynamicGraph()

    # ----------------------------------------------------------------- layout
    def owner(self, v: int) -> str:
        return hash_partition(v, self.worker_ids)

    def _vertex(self, v: int, *, create: bool = False) -> dict | None:
        machine = self.cluster.machine(self.owner(v))
        state = machine.load(("mv", v))
        if state is None and create:
            state = {"level": -1, "mate": None, "nbrs": {}}
            machine.store(("mv", v), state)
        return state

    # -------------------------------------------------------------- accessors
    def matching(self) -> set[tuple[int, int]]:
        """The maintained (almost-maximal) matching."""
        edges: set[tuple[int, int]] = set()
        for machine in self.cluster.machines(role="worker"):
            for key, state in machine.items():
                if isinstance(key, tuple) and key[0] == "mv" and state["mate"] is not None:
                    edges.add(normalize_edge(key[1], state["mate"]))
        return edges

    def matching_size(self) -> int:
        return len(self.matching())

    def level(self, v: int) -> int:
        state = self._vertex(v)
        return -1 if state is None else state["level"]

    def pending_work(self) -> int:
        """Number of queued scheduler tasks (free vertices + notifications)."""
        scheduler = self.cluster.machine(self.scheduler_id)
        queues = scheduler.load("queues", {})
        notifications = scheduler.load("notifications", [])
        return sum(len(q) for q in queues.values()) + len(notifications)

    # ---------------------------------------------------------- preprocessing
    def _preprocess(self, graph: DynamicGraph) -> None:
        """Section 6 starts from the empty graph (as in the paper)."""
        if graph.num_edges > 0:
            raise ValueError(
                "DMPCTwoPlusEpsMatching starts from the empty graph; replay initial edges as insertions"
            )
        self.shadow = graph.copy()
        scheduler = self.cluster.machine(self.scheduler_id)
        scheduler.store("queues", {})
        scheduler.store("notifications", [])
        for v in graph.vertices:
            self._vertex(v, create=True)
            self.shadow.add_vertex(v)

    # ---------------------------------------------------------------- updates
    def _apply(self, update: GraphUpdate) -> None:
        if update.is_insert:
            self._insert(update.u, update.v)
        else:
            self._delete(update.u, update.v)
        self._run_schedulers()

    def idle_cycle(self) -> None:
        """Run one scheduler-only update cycle (no input update).

        Used by drivers to drain the queues, e.g. at the end of a burst of
        updates, and by the benchmarks to measure scheduler-cycle cost.
        """
        with self.cluster.update(f"{self.kind}:idle"):
            self._run_schedulers()

    def drain(self, max_cycles: int = 10_000) -> int:
        """Run idle cycles until no scheduler work is pending; returns #cycles."""
        cycles = 0
        while self.pending_work() > 0 and cycles < max_cycles:
            self.idle_cycle()
            cycles += 1
        return cycles

    # ------------------------------------------------------------------ insert
    def _insert(self, x: int, y: int) -> None:
        self.shadow.insert_edge(x, y)
        sx = self._vertex(x, create=True)
        sy = self._vertex(y, create=True)
        owner_x, owner_y = self.owner(x), self.owner(y)
        mx, my = self.cluster.machine(owner_x), self.cluster.machine(owner_y)
        # The endpoints' owners exchange levels/status (O(1) words, 1 round).
        payload_x = (x, y, sx["level"], sx["mate"] is not None)
        mx.send(owner_y, "edge-insert", payload_x, words=closed_form_words("edge-insert", payload_x))
        if owner_y != owner_x:
            payload_y = (y, x, sy["level"], sy["mate"] is not None)
            my.send(owner_x, "edge-insert", payload_y, words=closed_form_words("edge-insert", payload_y))
        self.cluster.exchange()
        mx.drain("edge-insert")
        my.drain("edge-insert")
        # Each owner records the edge and caches the other endpoint's state.
        sx["nbrs"] = dict(sx["nbrs"])
        sx["nbrs"][y] = {"level": sy["level"], "matched": sy["mate"] is not None}
        self.cluster.machine(owner_x).store(("mv", x), sx)
        sy["nbrs"] = dict(sy["nbrs"])
        sy["nbrs"][x] = {"level": sx["level"], "matched": sx["mate"] is not None}
        self.cluster.machine(owner_y).store(("mv", y), sy)
        if sx["mate"] is None and sy["mate"] is None:
            self._set_matched(x, y, level=0)

    # ------------------------------------------------------------------ delete
    def _delete(self, x: int, y: int) -> None:
        self.shadow.delete_edge(x, y)
        sx = self._vertex(x, create=True)
        sy = self._vertex(y, create=True)
        owner_x, owner_y = self.owner(x), self.owner(y)
        mx, my = self.cluster.machine(owner_x), self.cluster.machine(owner_y)
        mx.send(owner_y, "edge-delete", (x, y), words=closed_form_words("edge-delete", (x, y)))
        if owner_y != owner_x:
            my.send(owner_x, "edge-delete", (y, x), words=closed_form_words("edge-delete", (y, x)))
        self.cluster.exchange()
        mx.drain("edge-delete")
        my.drain("edge-delete")
        for v, s in ((x, sx), (y, sy)):
            nbrs = dict(s["nbrs"])
            nbrs.pop(y if v == x else x, None)
            s["nbrs"] = nbrs
            self.cluster.machine(self.owner(v)).store(("mv", v), s)
        if sx["mate"] == y:
            level = max(0, sx["level"])
            self._set_unmatched(x, y)
            self._enqueue_free(x, level)
            self._enqueue_free(y, level)

    # -------------------------------------------------------- matching changes
    def _set_matched(self, u: int, v: int, *, level: int) -> None:
        su = self._vertex(u, create=True)
        sv = self._vertex(v, create=True)
        su.update({"mate": v, "level": level})
        sv.update({"mate": u, "level": level})
        self.cluster.machine(self.owner(u)).store(("mv", u), su)
        self.cluster.machine(self.owner(v)).store(("mv", v), sv)
        self._queue_notifications(u)
        self._queue_notifications(v)

    def _set_unmatched(self, u: int, v: int) -> None:
        su = self._vertex(u, create=True)
        sv = self._vertex(v, create=True)
        su.update({"mate": None, "level": -1})
        sv.update({"mate": None, "level": -1})
        self.cluster.machine(self.owner(u)).store(("mv", u), su)
        self.cluster.machine(self.owner(v)).store(("mv", v), sv)
        self._queue_notifications(u)
        self._queue_notifications(v)

    # --------------------------------------------------------------- scheduler
    def _enqueue_free(self, v: int, level: int) -> None:
        """Send ``v`` to the level-``level`` queue on the scheduler machine (1 round)."""
        owner = self.cluster.machine(self.owner(v))
        owner.send(self.scheduler_id, "enqueue-free", (v, level), words=closed_form_words("enqueue-free", (v, level)))
        self.cluster.exchange()
        scheduler = self.cluster.machine(self.scheduler_id)
        for msg in scheduler.drain("enqueue-free"):
            vertex, lvl = msg.payload
            queues = dict(scheduler.load("queues", {}))
            queue = list(queues.get(lvl, []))
            if vertex not in queue:
                queue.append(vertex)
            queues[lvl] = queue
            scheduler.store("queues", queues)

    def _queue_notifications(self, v: int) -> None:
        """Queue level/status notifications from ``v`` towards its neighbours' owners.

        The notifications themselves are delivered later by the schedulers at
        a rate of ``Delta`` per update cycle — this is the batching that
        keeps every update cycle at ``Õ(1)`` communication even when a
        vertex with many neighbours changes level.
        """
        state = self._vertex(v)
        if state is None:
            return
        scheduler = self.cluster.machine(self.scheduler_id)
        pending = list(scheduler.load("notifications", []))
        payload = (v, state["level"], state["mate"] is not None)
        for w in state["nbrs"]:
            pending.append((w, payload))
        scheduler.store("notifications", pending)

    def _run_schedulers(self) -> None:
        """One update cycle of scheduler work: ``Delta`` notifications plus a
        bounded number of ``handle-free`` settlements (O(1) rounds, Õ(1)
        machines and words)."""
        scheduler = self.cluster.machine(self.scheduler_id)

        # Phase 1: deliver up to Delta queued notifications (batched per owner).
        pending = list(scheduler.load("notifications", []))
        batch, rest = pending[: self.delta], pending[self.delta :]
        scheduler.store("notifications", rest)
        if batch:
            by_owner: dict[str, list] = {}
            for (target, payload) in batch:
                by_owner.setdefault(self.owner(target), []).append((target, payload))
            for owner_id, items in by_owner.items():
                scheduler.send(owner_id, "notify", items, words=closed_form_words("notify", items))
            self.cluster.exchange()
            for owner_id, items in by_owner.items():
                machine = self.cluster.machine(owner_id)
                machine.drain("notify")
                for (target, (source, level, matched)) in items:
                    state = machine.load(("mv", target))
                    if state is None or source not in state["nbrs"]:
                        continue
                    nbrs = dict(state["nbrs"])
                    nbrs[source] = {"level": level, "matched": matched}
                    state["nbrs"] = nbrs
                    machine.store(("mv", target), state)

        # Phase 2: settle a bounded number of queued free vertices, highest
        # level first (the free-schedule subschedulers).
        queues = dict(scheduler.load("queues", {}))
        settled = 0
        for level in sorted(queues, reverse=True):
            queue = list(queues[level])
            while queue and settled < self.settle_per_cycle:
                vertex = queue.pop(0)
                settled += 1
                requeue = self._handle_free(vertex)
                if requeue:
                    queue.append(vertex)
                    break  # avoid spinning on the same vertex within a cycle
            queues[level] = queue
        scheduler.store("queues", {lvl: q for lvl, q in queues.items() if q})

    def _handle_free(self, v: int) -> bool:
        """Try to (re)match a temporarily free vertex.  Returns True to re-enqueue."""
        state = self._vertex(v)
        if state is None or state["mate"] is not None:
            return False
        free_nbrs = [w for w, info in state["nbrs"].items() if not info["matched"]]
        if not free_nbrs:
            return False
        # Determine the target level: the highest l with at least gamma^l
        # lower-level neighbours (the sample-space size of the new edge).
        degree = len(state["nbrs"])
        target = 0
        while self.gamma ** (target + 1) <= degree:
            target += 1
        candidate = free_nbrs[self.rng.randrange(len(free_nbrs))]
        # Propose to the candidate's owner (2 rounds, 2 machines, O(1) words).
        owner_v = self.cluster.machine(self.owner(v))
        proposal = (v, candidate, target)
        owner_v.send(self.owner(candidate), "propose", proposal, words=closed_form_words("propose", proposal))
        self.cluster.exchange()
        owner_c = self.cluster.machine(self.owner(candidate))
        accepted = False
        for msg in owner_c.drain("propose"):
            proposer, target_vertex, level = msg.payload
            cstate = owner_c.load(("mv", target_vertex))
            if cstate is not None and cstate["mate"] is None:
                accepted = True
        owner_c.send(owner_v.machine_id, "propose-reply", accepted, words=closed_form_words("propose-reply", accepted))
        self.cluster.exchange()
        owner_v.drain("propose-reply")
        if accepted:
            self._set_matched(v, candidate, level=target)
            return False
        # Rejected: update the cache (the candidate is matched) and retry later.
        nbrs = dict(state["nbrs"])
        if candidate in nbrs:
            nbrs[candidate] = {"level": nbrs[candidate]["level"], "matched": True}
        state["nbrs"] = nbrs
        self.cluster.machine(self.owner(v)).store(("mv", v), state)
        return True

    # ------------------------------------------------------------ diagnostics
    def verify_invariants(self) -> None:
        """The maintained edge set is a matching of the graph and a ``(2 + eps)``-approximate one."""
        matching = self.matching()
        if not is_matching(self.shadow, matching):
            raise InvariantViolation("maintained edge set is not a matching")
        maximum = maximum_matching_size(self.shadow)
        if maximum > (2 + self.epsilon) * len(matching):
            raise InvariantViolation(
                f"a maximum matching has {maximum} edges, more than (2 + {self.epsilon}) x the maintained {len(matching)}"
            )
