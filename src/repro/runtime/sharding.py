"""The sharded execution backend — shard-partitioned transport, same rounds.

The DMPC model is embarrassingly shard-friendly: machines only interact
through the synchronous round boundary, so the machine map can be cut into
``K`` shards that execute independently *within* a round as long as the
round boundary itself is a deterministic merge.  This module provides the
two pieces:

:class:`ShardPlan`
    a deterministic partition of the machine map into ``K`` shards — by
    registration index (round-robin, the default: consecutive machines land
    on different shards, which balances the id-range partitions the
    algorithms use) or by rendezvous hash of the machine id (stable under
    machine-set growth, the right choice for id-keyed workloads);
:class:`ShardedTransport`
    a transport keeping **per-shard staged-sender sets** and **per-shard
    word aggregates**.  Sends touch only the sender's own shard's state —
    which is what lets the parallel backend run shard handlers concurrently
    without contention — and the exchange collects the staged senders
    shard by shard, merges them back into **global registration order** and
    delivers, so the delivered round is bit-for-bit identical to the
    reference backend.

Two further execution-strategy refinements ride on the shard structure,
both invisible to the simulation:

* **backend-owned message sizing** — staged messages are charged with
  :func:`~repro.mpc.sizing.fast_word_size` (property-tested equal to the
  reference ``word_size`` on every input) instead of the recursive
  reference sizer, via the transport's ``message_sizer`` hook;
* **per-shard load accounting** — the words each machine sends fall out of
  the delivery pass every transport shares
  (:meth:`Transport.deliver <repro.runtime.base.Transport.deliver>`); this
  transport only adds them to its per-shard and per-machine totals.

The per-shard cumulative word loads are exposed via
:meth:`ShardedTransport.shard_load` so deployments can judge how balanced a
shard plan is before scaling it out; the per-machine breakdown
(:meth:`ShardedTransport.machine_load`) feeds :meth:`ShardPlan.rebalance`,
which proposes an explicitly-pinned plan that flattens observed skew.
"""

from __future__ import annotations

from collections import deque
from heapq import merge as heap_merge
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.exceptions import MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc.message import Message
from repro.mpc.metrics import RoundRecord
from repro.mpc.partition import rendezvous_shard
from repro.mpc.sizing import fast_word_size
from repro.runtime.base import ExecutionBackend, Transport, register_backend
from repro.runtime.fast import CachedStorage, _aggregate_round_record, by_registration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpc.cluster import Cluster
    from repro.mpc.machine import Machine

__all__ = ["ShardPlan", "ShardedTransport", "ShardedBackend", "DEFAULT_SHARD_COUNT"]

#: default number of shards when the config does not choose one.  A fixed
#: small constant (not ``os.cpu_count()``) so that shard diagnostics are
#: reproducible across machines; the simulation itself is identical under
#: every shard count.
DEFAULT_SHARD_COUNT = 4


class ShardPlan:
    """Deterministic partition of a cluster's machine map into ``K`` shards.

    ``strategy="index"`` (default) assigns machine ``i`` to shard
    ``i % shard_count`` — round-robin over registration order, so the
    consecutive-id machine ranges created by ``add_machines`` spread evenly.
    ``strategy="rendezvous"`` assigns by highest-random-weight hash of the
    machine id (:func:`~repro.mpc.partition.rendezvous_shard`) — stable
    under machine-set growth, for workloads keyed by machine id.

    ``assignment`` is an optional explicit ``machine id -> shard`` overlay
    consulted before the strategy rule — how a plan proposed by
    :meth:`rebalance` pins hot machines to dedicated shards; machines not
    named fall back to the strategy rule.  Like every other shard choice it
    is invisible to the simulation (delivery is merged back into global
    registration order), it only changes how execution work is grouped.
    """

    __slots__ = ("shard_count", "strategy", "assignment")

    STRATEGIES = ("index", "rendezvous")

    def __init__(
        self,
        shard_count: int,
        *,
        strategy: str = "index",
        assignment: "dict[str, int] | None" = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be positive")
        if strategy not in self.STRATEGIES:
            raise ValueError(f"unknown shard strategy {strategy!r} (choose from {self.STRATEGIES})")
        if assignment:
            bad = {mid: shard for mid, shard in assignment.items() if not 0 <= shard < shard_count}
            if bad:
                raise ValueError(f"assignment maps machines outside 0..{shard_count - 1}: {bad}")
        self.shard_count = shard_count
        self.strategy = strategy
        self.assignment = dict(assignment) if assignment else None

    def shard_of(self, machine: "Machine") -> int:
        """The shard ``machine`` belongs to (pure function of the plan)."""
        if self.assignment is not None:
            shard = self.assignment.get(machine.machine_id)
            if shard is not None:
                return shard
        if self.strategy == "index":
            return machine.index % self.shard_count
        return rendezvous_shard(machine.machine_id, self.shard_count)

    def partition(self, machines: Iterable["Machine"]) -> list[list["Machine"]]:
        """Group ``machines`` into shard buckets, preserving relative order."""
        buckets: list[list["Machine"]] = [[] for _ in range(self.shard_count)]
        for machine in machines:
            buckets[self.shard_of(machine)].append(machine)
        return buckets

    def rebalance(
        self,
        machine_loads: "Mapping[str, int]",
        *,
        shard_count: int | None = None,
    ) -> "ShardPlan":
        """Propose a better plan from observed per-machine loads.

        ``machine_loads`` is the ``machine id -> cumulative words sent``
        diagnostic the sharded transport collects
        (:meth:`ShardedTransport.machine_load`).  The proposal is the
        classic greedy LPT schedule: machines in decreasing load order (ties
        broken by id, so the proposal is deterministic), each placed on the
        currently lightest shard.  LPT guarantees a makespan within 4/3 of
        optimal, which in practice flattens exactly the skew the
        round-robin/rendezvous rules cannot see — e.g. an owner map that
        concentrates hot vertices on a few machines.

        Machines that never sent a word keep their strategy-rule shard (they
        are not named in the overlay), so the proposal stays stable as idle
        machines come and go.
        """
        count = shard_count if shard_count is not None else self.shard_count
        if count < 1:
            raise ValueError("shard_count must be positive")
        totals = [0] * count
        assignment: dict[str, int] = {}
        for machine_id, load in sorted(machine_loads.items(), key=lambda kv: (-kv[1], kv[0])):
            shard = min(range(count), key=lambda s: totals[s])
            assignment[machine_id] = shard
            totals[shard] += load
        return ShardPlan(count, strategy=self.strategy, assignment=assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pinned = f", pinned={len(self.assignment)}" if self.assignment else ""
        return f"ShardPlan(shard_count={self.shard_count}, strategy={self.strategy!r}{pinned})"


class ShardedTransport(Transport):
    """Per-shard staged senders and word aggregates; reference delivery order.

    ``note_staged`` touches only the sender's own shard's set, so shard
    handlers running concurrently (the parallel backend) never contend on
    shared staging state.  ``exchange`` collects each shard's staged senders
    (sorted by registration index), merges the shard lists back into global
    registration order — the deterministic merge barrier — and hands them
    to the shared delivery pass.
    """

    __slots__ = (
        "plan",
        "_staged",
        "_shard_cache",
        "_shard_words",
        "_machine_words",
        "inbox_router",
        "_worker_rounds",
    )

    message_sizer = staticmethod(fast_word_size)

    def __init__(self, cluster: "Cluster", plan: ShardPlan) -> None:
        super().__init__(cluster)
        self.plan = plan
        self._staged: list[set["Machine"]] = [set() for _ in range(plan.shard_count)]
        self._shard_cache: dict["Machine", int] = {}
        self._shard_words = [0] * plan.shard_count
        self._machine_words: dict[str, int] = {}
        #: slot-routing hook (see :attr:`Transport.inbox_router`); shadowed
        #: into a slot because resident sessions flip it per session.
        self.inbox_router = None
        #: pre-aggregated rounds deposited by slot-routed worker supersteps,
        #: consumed FIFO by subsequent :meth:`exchange` calls (see
        #: :meth:`deposit_worker_round`).  A plain routed round deposits
        #: one entry and exchanges immediately; a fused round block
        #: deposits one entry per worker-driven round, then the driver
        #: replays one exchange per round to rebuild the identical records.
        self._worker_rounds: "deque[dict]" = deque()

    def shard_of(self, machine: "Machine") -> int:
        """Memoised :meth:`ShardPlan.shard_of` (plans are pure; machines are hot)."""
        shard = self._shard_cache.get(machine)
        if shard is None:
            shard = self.plan.shard_of(machine)
            self._shard_cache[machine] = shard
        return shard

    def note_staged(self, machine: "Machine") -> None:
        self._staged[self.shard_of(machine)].add(machine)

    def has_staged(self) -> bool:
        """Whether any machine staged a driver-side message since the last round."""
        return any(self._staged)

    def shard_load(self) -> tuple[int, ...]:
        """Words sent per shard since the last re-plan — the balance diagnostic.

        Reset when :meth:`replan` adopts a new plan (shard identities
        change); :meth:`machine_load` stays cumulative across re-plans.
        """
        return tuple(self._shard_words)

    def replan(self, plan: ShardPlan) -> None:
        """Adopt ``plan`` for all future staging/delivery grouping.

        Legal only behind the merge barrier: staged-but-undelivered
        messages are grouped under the old plan, so re-planning with any
        staged sender raises :class:`ProtocolError` instead of silently
        mixing groupings.  The per-shard word aggregates restart at zero
        (shard identities changed); the per-machine loads — what
        :meth:`ShardPlan.rebalance` consumes — keep accumulating.
        """
        if any(self._staged):
            raise ProtocolError("cannot replan with staged undelivered messages")
        self.plan = plan
        self._staged = [set() for _ in range(plan.shard_count)]
        self._shard_cache.clear()
        self._shard_words = [0] * plan.shard_count

    def machine_load(self) -> dict[str, int]:
        """Cumulative words sent per machine — what :meth:`ShardPlan.rebalance` eats.

        The per-shard totals say *that* a plan is skewed; the per-machine
        breakdown says *how to fix it*.  Only machines that actually sent
        are present.
        """
        return dict(self._machine_words)

    def deposit_worker_round(self, stats: dict) -> None:
        """Hand the next :meth:`exchange` a slot-routed round's aggregates.

        A resident session that routed all of a superstep's messages at the
        workers cannot funnel them through the driver's staged-sender path —
        the whole point is that most never reached the driver.  Instead the
        workers return, per send, the same quantities the delivery pass
        would have accumulated: per-(sender, receiver) word totals /
        counts / maxima (sized once by the reference-equal ``fast_word_size``
        at staging time), plus the few frames that must be driver-delivered
        (receivers outside the worker map).  ``stats`` keys:

        ``"pairs"``
            ``{(sender, receiver): (words, count, max_words)}`` over every
            message of the round, whichever physical path it took;
        ``"fallback"``
            frames to deliver into driver inboxes, already in reference
            delivery order;
        ``"traffic"``
            the wire-path counters for :meth:`MetricsLedger.record_traffic`.

        Deposits queue FIFO: a fused round block deposits every
        worker-driven round at once and the driver then calls
        :meth:`exchange` once per round, oldest first, so the record
        stream is indistinguishable from per-round deposits.
        """
        self._worker_rounds.append(stats)

    def exchange(self) -> RoundRecord:
        if self._worker_rounds:
            return self._deliver_deposit(self._worker_rounds.popleft())
        router = self.inbox_router
        if router is not None and any(self._staged):
            # Driver code staged real messages while workers may still hold
            # routed ones for the same receivers: pull every worker-held
            # message into the driver inboxes first, so this exchange
            # appends behind them in arrival order (worker-held messages
            # are always from strictly earlier rounds).
            router.flush_for_exchange()
        per_shard = [sorted(staged, key=by_registration) for staged in self._staged if staged]
        if len(per_shard) == 1:
            senders: Iterable["Machine"] = per_shard[0]
        else:
            # Deterministic merge barrier: each shard list is sorted by
            # registration index, so a K-way merge restores the exact global
            # registration order the reference backend delivers in.
            senders = heap_merge(*per_shard, key=by_registration)
        record = self.deliver(senders, self._note_loads)
        # A refused round raised above and left every staged set as it was.
        for staged in self._staged:
            staged.clear()
        return record

    def _note_loads(self, loads: "list[tuple[Machine, int]]") -> None:
        """Add a delivered round's per-sender words to the load diagnostics."""
        shard_words = self._shard_words
        machine_words = self._machine_words
        for machine, words in loads:
            shard_words[self.shard_of(machine)] += words
            machine_words[machine.machine_id] = machine_words.get(machine.machine_id, 0) + words

    def _deliver_deposit(self, deposit: dict) -> RoundRecord:
        """Record a slot-routed round from worker aggregates; deliver fallbacks.

        Not a delivery of staged messages — the bodies of worker-held pairs
        never crossed into the driver — but the same round as
        :meth:`Transport.deliver` would have made of them: identical record
        (words were sized by the same ``fast_word_size`` at staging),
        identical shard/machine load bookkeeping, identical validation and
        cap semantics.
        """
        cluster = self.cluster
        machines = cluster.machines_by_id
        ledger = cluster.ledger
        if any(self._staged):
            raise ProtocolError(
                "slot-routed round deposited while driver-side messages are staged"
            )
        if ledger.record_policy is None:
            raise ProtocolError(
                "slot-routed rounds require the backend accounting policy; "
                "a hand-customised round_record_factory must take the driver path"
            )
        round_index = ledger.next_round_index
        sample_every = self.pair_detail_every
        sampled = sample_every > 0 and round_index % sample_every == 0
        enforce = cluster.enforce_io_cap
        shard_words = self._shard_words
        per_machine = self._machine_words

        active: set[str] = set()
        total = 0
        count = 0
        largest = 0
        pair_words: dict[tuple[str, str], int] = {}
        sent_words: dict[str, int] = {}
        received_words: dict[str, int] = {}
        for (sender, receiver), (words, messages, max_words) in deposit["pairs"].items():
            if receiver not in machines:
                raise UnknownMachineError(
                    f"message from {sender!r} addressed to unknown machine {receiver!r}"
                )
            active.add(sender)
            active.add(receiver)
            total += words
            count += messages
            if max_words > largest:
                largest = max_words
            if sampled:
                pair_words[(sender, receiver)] = pair_words.get((sender, receiver), 0) + words
            sent_words[sender] = sent_words.get(sender, 0) + words
            received_words[receiver] = received_words.get(receiver, 0) + words

        for sender, words in sent_words.items():
            shard_words[self.shard_of(machines[sender])] += words
            per_machine[sender] = per_machine.get(sender, 0) + words

        if enforce:
            cap = cluster.config.machine_memory
            for machine_id in sorted(sent_words, key=lambda m: machines[m].index):
                words = sent_words[machine_id]
                if words > cap:
                    raise MessageSizeExceeded(machine_id, "send", words, cap)
            for machine_id in sorted(received_words, key=lambda m: machines[m].index):
                words = received_words[machine_id]
                if words > cap:
                    raise MessageSizeExceeded(machine_id, "receive", words, cap)

        for frame in deposit["fallback"]:
            machines[frame[4]].inbox.append(
                Message(sender=frame[3], receiver=frame[4], tag=frame[5], payload=frame[6], words=frame[7])
            )

        record = ledger.append_round(RoundRecord(round_index, len(active), total, count, largest, pair_words))
        ledger.record_traffic(**deposit["traffic"])
        return record

    def discard_undelivered(self) -> None:
        super().discard_undelivered()
        self._worker_rounds.clear()
        for staged in self._staged:
            staged.clear()


@register_backend
class ShardedBackend(ExecutionBackend):
    """Cached sizing + shard-partitioned transport + aggregate accounting."""

    name = "sharded"

    def __init__(self, config, *, plan: ShardPlan | None = None) -> None:
        super().__init__(config)
        self._plan = plan

    @property
    def plan(self) -> ShardPlan:
        """The shard plan clusters on this backend execute under."""
        if self._plan is None:
            count = getattr(self.config, "shard_count", None) or DEFAULT_SHARD_COUNT
            strategy = getattr(self.config, "shard_strategy", "index")
            self._plan = ShardPlan(count, strategy=strategy)
        return self._plan

    def create_storage(self, machine_id: str, capacity: int, *, strict: bool) -> CachedStorage:
        return CachedStorage(machine_id, capacity, strict=strict)

    def create_transport(self, cluster: "Cluster") -> ShardedTransport:
        transport = ShardedTransport(cluster, self.plan)
        transport.pair_detail_every = self._sampling
        return transport

    def replan(self, cluster: "Cluster", plan: ShardPlan) -> bool:
        """Adopt ``plan`` live: backend plan + the cluster's transport grouping.

        The new plan governs future shard partitioning (superstep job
        grouping and staging) from the next round on; like every shard
        choice it is invisible to the simulation.  Returns ``True`` — the
        sharded family always applies a re-plan.
        """
        if not isinstance(plan, ShardPlan):
            raise TypeError(f"replan expects a ShardPlan, got {type(plan).__name__}")
        cluster._transport.replan(plan)
        self._plan = plan
        return True

    @property
    def _sampling(self) -> int:
        return getattr(self.config, "metrics_sampling", 0)

    def round_record_factory(self) -> Callable[[int, Iterable["Message"]], "RoundRecord"]:
        return _aggregate_round_record(self._sampling)

    @property
    def accounting_policy_name(self) -> str:
        # Identical policy to the fast backend at the same sampling stride,
        # so fast/sharded/parallel clusters may share one ledger.
        return f"scalar-aggregate/k={self._sampling}"

    @property
    def guarantees(self) -> dict[str, bool]:
        return {
            "strict_memory": True,
            "io_cap": True,
            "exact_accounting": True,
            "full_metrics": False,
        }
