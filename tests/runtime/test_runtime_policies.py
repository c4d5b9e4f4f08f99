"""Unit tests for the runtime layer's individual policies.

Storage accounting, cap enforcement, transport delivery order, metrics
sampling and backend resolution — each policy tested in isolation, plus the
pinned guarantee that the fast backend still *enforces* the model caps when
they are explicitly enabled (it only relaxes metrics retention, never
enforcement).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DMPCConfig
from repro.exceptions import MachineMemoryExceeded, MessageSizeExceeded, ProtocolError, UnknownMachineError
from repro.mpc import Cluster, Machine, MetricsLedger, RoundRecord, SuperstepProgram, rendezvous_shard
from repro.runtime import (
    BACKENDS,
    CachedStorage,
    FastBackend,
    ParallelBackend,
    ProcessBackend,
    ReferenceBackend,
    ReferenceStorage,
    ShardedBackend,
    ShardPlan,
    resolve_backend,
)


class TokenProbeProgram(SuperstepProgram):
    """Module-level (hence picklable) probe: store + shared in, delta + message out.

    Each machine reads its stored token, adds the shared offset, reports
    the sum to ``m0`` as a message and returns ``(pid, sum)`` as its delta —
    enough to observe *where* the run executed and that every data path
    (store slice, shared slice, sends, deltas) round-trips.
    """

    shared_reads = ("offset",)
    shared_writes = ("results",)
    store_reads = ("token",)

    def run(self, ctx, inbox, shared):
        value = ctx.load(("token", ctx.machine_id), 0) + shared["offset"]
        if ctx.machine_id != "m0":
            ctx.send("m0", "probe", value)
        return (os.getpid(), value)

    def apply(self, shared, machine_id, delta):
        shared["results"][machine_id] = delta


class UndeclaredReadProgram(SuperstepProgram):
    shared_reads = ("missing-key",)

    def run(self, ctx, inbox, shared):  # pragma: no cover - never reached
        return None


def make_cluster(backend: str, **kwargs) -> Cluster:
    config = kwargs.pop("config", None) or DMPCConfig(capacity_n=32, capacity_m=64, backend=backend)
    return Cluster(config, **kwargs)


# ---------------------------------------------------------------------- sizing
class TestFastWordSize:
    """fast_word_size must agree with word_size on every input."""

    payloads = st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.floats(allow_nan=False),
            st.text(max_size=30),
            st.binary(max_size=30),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=6),
            st.lists(children, max_size=6).map(tuple),
            st.dictionaries(st.one_of(st.integers(), st.text(max_size=8)), children, max_size=6),
            st.lists(st.integers(), max_size=6).map(frozenset),
        ),
        max_leaves=25,
    )

    @settings(max_examples=200, deadline=None)
    @given(payload=payloads)
    def test_matches_reference_on_arbitrary_payloads(self, payload):
        from repro.mpc.sizing import fast_word_size, word_size

        assert fast_word_size(payload) == word_size(payload)

    def test_matches_reference_on_package_objects(self):
        from repro.dynamic_mpc.state import VertexStats
        from repro.mpc.coordinator import HistoryEntry
        from repro.mpc.sizing import fast_word_size, word_size

        class IntSubclass(int):
            pass

        class DictWithWords(dict):
            def dmpc_words(self) -> int:
                return 42

        for payload in (
            VertexStats(degree=3, mate=1, suspended_machines=["edge1", "edge2"]),
            HistoryEntry(seq=1, kind="insert", u=0, v=1),
            [VertexStats(), {"k": (HistoryEntry(seq=2, kind="delete", u=2, v=3), None)}],
            IntSubclass(7),
            DictWithWords(a=1),
            "",
            b"",
        ):
            assert fast_word_size(payload) == word_size(payload)


# --------------------------------------------------------------------- storage
class TestStorageEquivalence:
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("store"), st.integers(0, 7), st.integers(0, 5)),
            st.tuples(st.just("delete"), st.integers(0, 7), st.just(0)),
            st.tuples(st.just("read"), st.just(0), st.just(0)),
        ),
        min_size=1,
        max_size=60,
    )

    @settings(max_examples=60, deadline=None)
    @given(ops=ops)
    def test_cached_matches_reference_accounting(self, ops):
        """used_words agrees at every read point, for interleaved store/delete/read."""
        reference = ReferenceStorage("m", 10**9, strict=False)
        cached = CachedStorage("m", 10**9, strict=False)
        for op, key, size in ops:
            if op == "store":
                value = {("k", i): [i, i + 1] for i in range(size)}
                reference.store(("slot", key), value)
                cached.store(("slot", key), value)
            elif op == "delete":
                reference.delete(("slot", key))
                cached.delete(("slot", key))
            else:
                assert cached.used_words == reference.used_words
        assert cached.used_words == reference.used_words
        assert sorted(map(repr, cached.keys())) == sorted(map(repr, reference.keys()))

    def test_cached_strict_raises_at_same_store(self):
        reference = ReferenceStorage("m", 16, strict=True)
        cached = CachedStorage("m", 16, strict=True)
        for storage in (reference, cached):
            storage.store("a", [1, 2, 3])
        with pytest.raises(MachineMemoryExceeded) as ref_err:
            reference.store("b", list(range(16)))
        with pytest.raises(MachineMemoryExceeded) as fast_err:
            cached.store("b", list(range(16)))
        assert ref_err.value.used == fast_err.value.used
        assert ref_err.value.requested == fast_err.value.requested
        # the failed store must not corrupt the accounting
        assert reference.used_words == cached.used_words

    def test_cached_overwrite_and_delete_release_words(self):
        cached = CachedStorage("m", 10**9, strict=False)
        cached.store("k", list(range(50)))
        assert cached.used_words > 50
        cached.store("k", 1)
        reference = ReferenceStorage("m", 10**9, strict=False)
        reference.store("k", 1)
        assert cached.used_words == reference.used_words
        cached.delete("k")
        assert cached.used_words == 0

    def test_machine_standalone_defaults_to_reference_storage(self):
        machine = Machine("solo", 64)
        assert isinstance(machine.storage, ReferenceStorage)
        machine.store("x", [1, 2, 3])
        assert machine.used_words == machine.storage.used_words


# ------------------------------------------------------------- cap enforcement
class TestFastBackendEnforcesCaps:
    """Pinned guarantee: `fast` relaxes metrics retention, never enforcement."""

    def test_fast_backend_raises_machine_memory_exceeded(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, strict_memory=True, backend="fast")
        cluster = Cluster(config)
        machine = cluster.add_machine("a", capacity=16)
        with pytest.raises(MachineMemoryExceeded):
            machine.store("big", list(range(64)))

    def test_fast_backend_raises_message_size_exceeded(self):
        cluster = make_cluster("fast", enforce_io_cap=True)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        with pytest.raises(MessageSizeExceeded):
            cluster.exchange()

    def test_fast_backend_receive_cap_enforced(self):
        cluster = make_cluster("fast", enforce_io_cap=True)
        cluster.add_machines("s", 3)
        cluster.add_machine("sink")
        over = cluster.config.machine_memory // 2 + 1
        for sender in cluster.machines(role="worker"):
            if sender.machine_id != "sink":
                sender.send("sink", "blob", None, words=over)
        with pytest.raises(MessageSizeExceeded) as err:
            cluster.exchange()
        assert err.value.direction == "receive"

    def test_fast_backend_unknown_receiver_raises(self):
        cluster = make_cluster("fast")
        a = cluster.add_machine("a")
        a.send("ghost", "ping", 1)
        with pytest.raises(UnknownMachineError):
            cluster.exchange()

    def test_fast_backend_caps_off_by_default(self):
        cluster = make_cluster("fast")
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        record = cluster.exchange()
        assert record.total_words > cluster.config.machine_memory


# ------------------------------------------------------------------- transport
class TestTransportParity:
    @pytest.mark.parametrize("backend", ["fast", "sharded", "parallel"])
    def test_delivery_order_matches_reference(self, backend):
        """Staging order must not leak into delivery order: registration order rules."""
        inboxes = {}
        for name in ("reference", backend):
            config = DMPCConfig(capacity_n=32, capacity_m=64, backend=name, shard_count=3)
            cluster = Cluster(config)
            machines = cluster.add_machines("m", 7)
            cluster.add_machine("sink")
            # Stage in an order different from registration order.
            for machine in reversed(machines):
                machine.send("sink", "probe", machine.machine_id)
            cluster.exchange()
            inboxes[name] = [msg.payload for msg in cluster.machine("sink").inbox]
        assert inboxes[backend] == inboxes["reference"] == [f"m{i}" for i in range(7)]

    @pytest.mark.parametrize("backend", ["fast", "sharded", "parallel"])
    def test_discard_undelivered_clears_staged_state(self, backend):
        cluster = make_cluster(backend)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "x", 1)
        cluster.discard_undelivered()
        record = cluster.exchange()
        assert record.message_count == 0
        assert cluster.machine("b").inbox == []

    @pytest.mark.parametrize("backend", ["reference", "fast", "sharded"])
    @pytest.mark.parametrize("fault", ["unknown-receiver", "over-cap"])
    def test_refused_round_keeps_every_staged_message(self, backend, fault):
        """A round the transport refuses is all-or-nothing: the *last* sender (in
        registration order) carries the fault, so every earlier sender has already been
        walked when the error is raised — none of them may have lost its outbox, and a
        corrected retry must deliver exactly the round the reference delivers."""

        def stage(name):
            config = DMPCConfig(capacity_n=32, capacity_m=64, backend=name, shard_count=3)
            cluster = Cluster(config, enforce_io_cap=True)
            machines = cluster.add_machines("m", 5)
            cluster.add_machine("sink")
            for machine in machines:
                machine.send("sink", "probe", machine.machine_id)
                machine.send(machines[0].machine_id, "echo", None, words=2)
            return cluster, machines

        expected, machines = stage("reference")
        expected.exchange()

        cluster, machines = stage(backend)
        last = machines[-1]
        if fault == "unknown-receiver":
            bad, error = last.send("ghost", "ping", 1), UnknownMachineError
        else:
            bad, error = last.send("sink", "big", None, words=cluster.config.machine_memory + 1), MessageSizeExceeded
        staged = {machine.machine_id: list(machine.outbox) for machine in cluster.machines()}
        rounds_before = cluster.ledger.total_rounds()
        with pytest.raises(error):
            cluster.exchange()
        assert {machine.machine_id: machine.outbox for machine in cluster.machines()} == staged
        assert all(machine.inbox == [] for machine in cluster.machines())
        assert cluster.ledger.total_rounds() == rounds_before
        transport = last.transport
        if backend == "sharded":
            assert sum(transport.shard_load()) == 0 and transport.machine_load() == {}

        last.outbox.remove(bad)
        record = cluster.exchange()
        assert record.message_count == 10
        if backend == "sharded":
            assert sum(transport.shard_load()) == sum(transport.machine_load().values()) == record.total_words
        for machine_id in ("sink", "m0"):
            assert cluster.machine(machine_id).inbox == expected.machine(machine_id).inbox
        assert all(machine.outbox == [] for machine in cluster.machines())
        assert cluster.exchange().message_count == 0

    @pytest.mark.parametrize("backend", ["sharded", "parallel"])
    def test_message_words_match_reference_sizer(self, backend):
        """The transport message sizer must charge exactly the reference words."""
        payloads = [None, 7, "tagged-payload", [1, 2, (3, 4)], {"k": [5, 6]}, {("a", 1): {2, 3}}]
        words = {}
        for name in ("reference", backend):
            cluster = make_cluster(name)
            a = cluster.add_machine("a")
            cluster.add_machine("b")
            staged = [a.send("b", "t", payload) for payload in payloads]
            words[name] = [msg.words for msg in staged]
        assert words[backend] == words["reference"]

    def test_sharded_io_caps_still_enforced(self):
        cluster = make_cluster("sharded", enforce_io_cap=True)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "big", None, words=cluster.config.machine_memory + 1)
        with pytest.raises(MessageSizeExceeded):
            cluster.exchange()

    def test_sharded_unknown_receiver_raises(self):
        cluster = make_cluster("sharded")
        a = cluster.add_machine("a")
        a.send("ghost", "ping", 1)
        with pytest.raises(UnknownMachineError):
            cluster.exchange()


# ------------------------------------------------------------------ accounting
class TestAccountingPolicies:
    def run_rounds(self, backend: str, *, metrics_sampling: int = 0):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend=backend, metrics_sampling=metrics_sampling)
        cluster = Cluster(config)
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        records = []
        for i in range(4):
            a.send("b", "t", [i, i + 1])
            records.append(cluster.exchange())
            cluster.machine("b").drain()
        return cluster, records

    def test_fast_scalar_aggregates_match_reference(self):
        _, ref_records = self.run_rounds("reference")
        _, fast_records = self.run_rounds("fast")
        for ref, fast in zip(ref_records, fast_records):
            assert (ref.round_index, ref.active_machines, ref.total_words, ref.message_count, ref.max_message_words) == (
                fast.round_index,
                fast.active_machines,
                fast.total_words,
                fast.message_count,
                fast.max_message_words,
            )

    def test_fast_drops_pair_detail_by_default(self):
        cluster, records = self.run_rounds("fast")
        assert all(record.pair_words == {} for record in records)
        assert cluster.ledger.communication_entropy() == 0.0

    def test_fast_metrics_sampling_retains_pair_detail(self):
        cluster, records = self.run_rounds("fast", metrics_sampling=2)
        sampled = [record for record in records if record.pair_words]
        assert sampled and len(sampled) < len(records)
        assert all(record.pair_words == {("a", "b"): record.total_words} for record in sampled)

    def test_reference_always_retains_pair_detail(self):
        _, records = self.run_rounds("reference")
        assert all(record.pair_words for record in records)

    def test_replay_update_public_api(self):
        _, records = self.run_rounds("reference")
        scratch = MetricsLedger()
        scratch.replay_update("copy", records)
        assert scratch.updates[0].label == "copy"
        assert scratch.updates[0].num_rounds == len(records)
        assert scratch.summary().total_words == sum(record.total_words for record in records)


# -------------------------------------------------------------------- sharding
class TestShardPlan:
    def test_index_strategy_round_robins_registration_order(self):
        cluster = make_cluster("reference")
        machines = cluster.add_machines("m", 7)
        plan = ShardPlan(3)
        assert [plan.shard_of(m) for m in machines] == [0, 1, 2, 0, 1, 2, 0]
        buckets = plan.partition(machines)
        assert [len(b) for b in buckets] == [3, 2, 2]
        # relative (registration) order preserved inside every bucket
        for bucket in buckets:
            assert [m.index for m in bucket] == sorted(m.index for m in bucket)

    def test_rendezvous_strategy_uses_machine_ids(self):
        cluster = make_cluster("reference")
        machines = cluster.add_machines("m", 16)
        plan = ShardPlan(4, strategy="rendezvous")
        shards = [plan.shard_of(m) for m in machines]
        assert shards == [rendezvous_shard(m.machine_id, 4) for m in machines]
        assert len(set(shards)) > 1

    def test_rendezvous_shard_is_stable_and_minimally_disruptive(self):
        keys = [f"m{i}" for i in range(200)]
        before = {k: rendezvous_shard(k, 4) for k in keys}
        assert before == {k: rendezvous_shard(k, 4) for k in keys}  # deterministic
        assert set(before.values()) == {0, 1, 2, 3}
        after = {k: rendezvous_shard(k, 5) for k in keys}
        moved = sum(1 for k in keys if before[k] != after[k])
        # HRW property: growing K by one moves only ~1/(K+1) of the keys.
        assert moved < len(keys) // 2

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan(0)
        with pytest.raises(ValueError):
            ShardPlan(2, strategy="mystery")
        with pytest.raises(ValueError):
            rendezvous_shard("m0", 0)

    def test_config_shard_count_and_strategy_reach_the_plan(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="sharded", shard_count=5)
        cluster = Cluster(config)
        assert cluster.backend.plan.shard_count == 5
        assert cluster.backend.plan.strategy == "index"
        hrw = DMPCConfig(
            capacity_n=32, capacity_m=64, backend="parallel", shard_count=4, shard_strategy="rendezvous"
        )
        assert Cluster(hrw).backend.plan.strategy == "rendezvous"
        with pytest.raises(ValueError, match="shard_strategy"):
            DMPCConfig(capacity_n=32, capacity_m=64, shard_strategy="mystery")

    def test_shard_load_diagnostic_sums_round_words(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="sharded", shard_count=2)
        cluster = Cluster(config)
        machines = cluster.add_machines("m", 4)
        cluster.add_machine("sink")
        for machine in machines:
            machine.send("sink", "t", [1, 2, 3])
        record = cluster.exchange()
        load = cluster._transport.shard_load()
        assert len(load) == 2
        assert sum(load) == record.total_words
        assert all(words > 0 for words in load)  # m0/m2 -> shard 0, m1/m3 -> shard 1


class TestFusedAccountingParity:
    """The sharded fused-delivery records must equal the factory-built ones."""

    def run_rounds(self, backend: str, *, metrics_sampling: int = 0):
        config = DMPCConfig(
            capacity_n=32, capacity_m=64, backend=backend, metrics_sampling=metrics_sampling, shard_count=3
        )
        cluster = Cluster(config)
        machines = cluster.add_machines("m", 5)
        records = []
        for i in range(6):
            for machine in machines[1:]:
                machine.send("m0", "t", [i, machine.index])
            records.append(cluster.exchange())
            cluster.machine("m0").drain()
        return records

    @pytest.mark.parametrize("sampling", [0, 2])
    def test_records_identical_to_fast_factory(self, sampling):
        fast_records = self.run_rounds("fast", metrics_sampling=sampling)
        sharded_records = self.run_rounds("sharded", metrics_sampling=sampling)
        assert sharded_records == fast_records
        for fast_record, sharded_record in zip(fast_records, sharded_records):
            assert sharded_record.pair_words == fast_record.pair_words

    def test_sampling_retains_pair_detail_on_sampled_rounds(self):
        records = self.run_rounds("sharded", metrics_sampling=2)
        sampled = [r for r in records if r.pair_words]
        assert sampled and len(sampled) < len(records)
        for record in sampled:
            assert sum(record.pair_words.values()) == record.total_words

    def test_append_round_guards_the_counter(self):
        ledger = MetricsLedger()
        record = RoundRecord(round_index=5, active_machines=0, total_words=0, message_count=0, max_message_words=0)
        with pytest.raises(ProtocolError):
            ledger.append_round(record)
        assert ledger.next_round_index == 1
        ok = RoundRecord(round_index=1, active_machines=0, total_words=0, message_count=0, max_message_words=0)
        ledger.append_round(ok)
        assert ledger.next_round_index == 2


# ------------------------------------------------------------- shared ledgers
class TestSharedLedgerPolicy:
    """Regression: Cluster must not clobber an externally supplied ledger's policy."""

    def make_config(self, backend: str) -> DMPCConfig:
        return DMPCConfig(capacity_n=32, capacity_m=64, backend=backend)

    def test_conflicting_backend_policies_raise(self):
        ledger = MetricsLedger()
        Cluster(self.make_config("reference"), ledger=ledger)
        with pytest.raises(ProtocolError, match="accounting policy"):
            Cluster(self.make_config("fast"), ledger=ledger)

    def test_same_policy_may_share_a_ledger(self):
        ledger = MetricsLedger()
        first = Cluster(self.make_config("fast"), ledger=ledger)
        second = Cluster(self.make_config("fast"), ledger=ledger)
        assert first.ledger is second.ledger
        a = first.add_machine("a")
        first.add_machine("b")
        a.send("b", "t", 1)
        first.exchange()
        b = second.add_machine("b")
        second.add_machine("c")
        b.send("c", "t", 2)
        second.exchange()
        assert ledger.next_round_index == 3  # one shared round stream

    def test_aggregate_backends_share_one_policy_name(self):
        """fast/sharded/parallel/process condense rounds identically, so they may mix."""
        ledger = MetricsLedger()
        Cluster(self.make_config("fast"), ledger=ledger)
        Cluster(self.make_config("sharded"), ledger=ledger)
        Cluster(self.make_config("parallel"), ledger=ledger)
        Cluster(self.make_config("process"), ledger=ledger)

    @pytest.mark.parametrize("backend", ["fast", "sharded", "parallel", "process"])
    def test_custom_factory_never_clobbered(self, backend):
        def custom_factory(round_index, messages):
            return RoundRecord(
                round_index=round_index, active_machines=-1, total_words=0, message_count=0, max_message_words=0
            )

        ledger = MetricsLedger(round_record_factory=custom_factory)
        cluster = Cluster(self.make_config(backend), ledger=ledger)
        assert ledger.round_record_factory is custom_factory
        assert ledger.record_policy is None
        # ... and every delivery path must actually invoke it, including the
        # sharded fused path (which falls back to the factory path here).
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "t", [1, 2, 3])
        record = cluster.exchange()
        assert record.active_machines == -1  # unmistakably the custom factory's record
        assert cluster.machine("b").drain()[0].payload == [1, 2, 3]

    def test_factory_reassigned_after_construction_is_honoured(self):
        """The historical pattern: assign ledger.round_record_factory post-construction."""

        def custom_factory(round_index, messages):
            return RoundRecord(
                round_index=round_index, active_machines=-7, total_words=0, message_count=0, max_message_words=0
            )

        cluster = Cluster(self.make_config("sharded"))
        cluster.ledger.round_record_factory = custom_factory
        assert cluster.ledger.record_policy is None  # adoption no longer governs
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "t", [4, 5])
        record = cluster.exchange()
        assert record.active_machines == -7
        # ... and the shard-load diagnostic stays accurate on the fallback path.
        load = cluster._transport.shard_load()
        assert sum(load) == sum(msg.words for msg in cluster.machine("b").inbox)

    def test_fresh_ledger_adopts_backend_policy(self):
        cluster = Cluster(self.make_config("fast"))
        a = cluster.add_machine("a")
        cluster.add_machine("b")
        a.send("b", "t", [1, 2])
        record = cluster.exchange()
        assert record.pair_words == {}  # aggregate policy, not the stock full-detail one


# -------------------------------------------------------------- superstep pool
class TestParallelSuperstep:
    def make_parallel_cluster(self, *, machines: int = 9, shard_count: int = 4, max_workers: int = 2) -> Cluster:
        config = DMPCConfig(
            capacity_n=64, capacity_m=128, backend="parallel", shard_count=shard_count, max_workers=max_workers
        )
        cluster = Cluster(config)
        cluster.add_machines("m", machines)
        return cluster

    def test_pooled_superstep_matches_sequential(self):
        outcomes = {}
        for backend in ("reference", "parallel"):
            config = DMPCConfig(
                capacity_n=64, capacity_m=128, backend=backend, shard_count=4, max_workers=2
            )
            cluster = Cluster(config)
            cluster.add_machines("m", 9)

            def handler(machine, inbox):
                machine.store("round", len(inbox))
                if machine.machine_id != "m0":
                    machine.send("m0", "report", machine.index)

            record = cluster.superstep(handler)
            outcomes[backend] = (
                record.message_count,
                record.total_words,
                [m.load("round") for m in cluster.machines()],
            )
        assert outcomes["parallel"] == outcomes["reference"]

    def test_pooled_superstep_inbox_delivery_order(self):
        cluster = self.make_parallel_cluster()
        seen: dict[str, list[int]] = {}

        def stage(machine, inbox):
            if machine.machine_id != "m0":
                machine.send("m0", "probe", machine.index)

        cluster.superstep(stage)

        def collect(machine, inbox):
            seen[machine.machine_id] = [msg.payload for msg in inbox]

        cluster.superstep(collect)
        assert seen["m0"] == list(range(1, 9))  # registration order despite pooled staging

    def test_handler_errors_propagate_deterministically(self):
        cluster = self.make_parallel_cluster()

        def exploding(machine, inbox):
            if machine.index % 2 == 1:
                raise RuntimeError(f"boom-{machine.machine_id}")

        with pytest.raises(RuntimeError, match="boom-m1"):
            cluster.superstep(exploding)

    def test_single_worker_falls_back_to_sequential(self):
        cluster = self.make_parallel_cluster(max_workers=1)
        order: list[str] = []

        def handler(machine, inbox):
            order.append(machine.machine_id)

        cluster.superstep(handler)
        assert order == [f"m{i}" for i in range(9)]  # strictly sequential registration order

    def test_default_workers_bounded_by_plan_and_cpu(self):
        import os

        config = DMPCConfig(capacity_n=32, capacity_m=64, shard_count=3)
        backend = ParallelBackend(config)
        assert 1 <= backend.max_workers <= max(1, min(3, os.cpu_count() or 1))
        explicit = ParallelBackend(DMPCConfig(capacity_n=32, capacity_m=64, max_workers=7))
        assert explicit.max_workers == 7


# ------------------------------------------------------------ process backend
class TestProcessSuperstep:
    """The spawn-pool execution path: serialization round trip, fallbacks."""

    def make_process_cluster(
        self, *, machines: int = 9, shard_count: int = 4, max_workers: int = 2, **extra
    ) -> Cluster:
        config = DMPCConfig(
            capacity_n=64,
            capacity_m=128,
            backend="process",
            shard_count=shard_count,
            max_workers=max_workers,
            **extra,
        )
        cluster = Cluster(config)
        for i, machine in enumerate(cluster.add_machines("m", machines)):
            machine.store(("token", machine.machine_id), 10 * i)
        return cluster

    def run_probe(self, cluster: Cluster) -> dict:
        shared = {"offset": 7, "results": {}}
        cluster.superstep(TokenProbeProgram(), shared=shared)
        return shared["results"]

    def assert_probe_observable(self, cluster: Cluster, results: dict) -> None:
        machines = cluster.machines()
        assert [results[m.machine_id][1] for m in machines] == [10 * i + 7 for i in range(len(machines))]
        inbox = cluster.machine("m0").drain("probe")
        # registration delivery order, identical to every in-process backend
        assert [msg.payload for msg in inbox] == [10 * i + 7 for i in range(1, len(machines))]

    def test_pool_round_trip_crosses_process_boundary(self):
        cluster = self.make_process_cluster()
        results = self.run_probe(cluster)
        assert cluster.backend.last_superstep_mode == "pool"
        self.assert_probe_observable(cluster, results)
        worker_pids = {pid for pid, _ in results.values()}
        assert os.getpid() not in worker_pids  # every run happened elsewhere

    def test_single_worker_falls_back_to_sequential(self):
        cluster = self.make_process_cluster(max_workers=1)
        results = self.run_probe(cluster)
        assert cluster.backend.last_superstep_mode == "sequential"
        self.assert_probe_observable(cluster, results)
        assert {pid for pid, _ in results.values()} == {os.getpid()}  # never left the driver

    def test_single_shard_falls_back_to_sequential(self):
        cluster = self.make_process_cluster(shard_count=1)
        results = self.run_probe(cluster)
        assert cluster.backend.last_superstep_mode == "sequential"
        assert {pid for pid, _ in results.values()} == {os.getpid()}

    def test_env_var_selection_round_trip(self, monkeypatch):
        """REPRO_BACKEND=process: resolution, construction and a pooled run."""
        monkeypatch.setenv("REPRO_BACKEND", "process")
        config = DMPCConfig(capacity_n=64, capacity_m=128, shard_count=4, max_workers=2)
        assert resolve_backend(None, config).name == "process"
        cluster = Cluster(config)
        assert isinstance(cluster.backend, ProcessBackend)
        for i, machine in enumerate(cluster.add_machines("m", 9)):
            machine.store(("token", machine.machine_id), 10 * i)
        results = self.run_probe(cluster)
        assert cluster.backend.last_superstep_mode == "pool"
        self.assert_probe_observable(cluster, results)

    def test_closure_handlers_stay_in_process(self):
        """Closures cannot be pickled; they take the inherited thread path."""
        cluster = self.make_process_cluster()
        seen: list[str] = []

        def handler(machine, inbox):
            seen.append(machine.machine_id)

        cluster.superstep(handler)
        assert cluster.backend.last_superstep_mode == "threads"
        assert sorted(seen) == sorted(m.machine_id for m in cluster.machines())

    def test_chunking_knob_regroups_jobs(self):
        cluster = self.make_process_cluster(process_chunk_machines=4)
        buckets = cluster.backend.job_buckets(cluster.machines())
        assert [len(b) for b in buckets] == [4, 4, 1]
        # contiguous registration-order chunks, not shard-plan buckets
        assert [m.machine_id for m in buckets[0]] == ["m0", "m1", "m2", "m3"]
        results = self.run_probe(cluster)
        assert cluster.backend.last_superstep_mode == "pool"
        self.assert_probe_observable(cluster, results)

    def test_undeclared_shared_read_is_a_loud_error(self):
        cluster = self.make_process_cluster()
        with pytest.raises(KeyError, match="missing-key"):
            cluster.superstep(UndeclaredReadProgram(), shared={"offset": 1})

    def test_store_blobs_memoised_until_version_bump(self):
        cluster = self.make_process_cluster()
        backend = cluster.backend
        machine = cluster.machine("m0")
        blob = backend._store_blob(machine, ("token",))
        assert backend._store_blob(machine, ("token",)) is blob  # cached bytes reused
        machine.store(("token", "m0"), 999)
        fresh = backend._store_blob(machine, ("token",))
        assert fresh is not blob

    def test_matches_reference_backend_observables(self):
        outcomes = {}
        for backend in ("reference", "process"):
            config = DMPCConfig(
                capacity_n=64, capacity_m=128, backend=backend, shard_count=4, max_workers=2
            )
            cluster = Cluster(config)
            for i, machine in enumerate(cluster.add_machines("m", 9)):
                machine.store(("token", machine.machine_id), 10 * i)
            shared = {"offset": 3, "results": {}}
            record = cluster.superstep(TokenProbeProgram(), shared=shared)
            outcomes[backend] = (
                record.message_count,
                record.total_words,
                record.active_machines,
                {mid: value for mid, (_, value) in shared["results"].items()},
            )
        assert outcomes["process"] == outcomes["reference"]


# ------------------------------------------------------------------ resolution
class TestBackendResolution:
    def test_registry_names(self):
        assert {"reference", "fast", "sharded", "parallel", "process"} <= set(BACKENDS)

    def test_config_selects_backend(self):
        assert make_cluster("fast").backend.name == "fast"
        assert make_cluster("reference").backend.name == "reference"

    def test_explicit_argument_beats_config(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="reference")
        assert Cluster(config, backend="fast").backend.name == "fast"

    def test_backend_instance_passthrough(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64)
        backend = FastBackend(config)
        assert Cluster(config, backend=backend).backend is backend

    def test_env_var_fallback(self, monkeypatch):
        config = DMPCConfig(capacity_n=32, capacity_m=64)
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert resolve_backend(None, config).name == "fast"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend(None, config).name == "reference"

    def test_config_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="reference")
        assert resolve_backend(None, config).name == "reference"

    def test_unknown_backend_rejected(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64, backend="warp")
        with pytest.raises(ValueError, match="unknown execution backend"):
            Cluster(config)

    def test_guarantees_surface(self):
        config = DMPCConfig(capacity_n=32, capacity_m=64)
        assert ReferenceBackend(config).guarantees["full_metrics"]
        for backend_cls in (FastBackend, ShardedBackend, ParallelBackend, ProcessBackend):
            guarantees = backend_cls(config).guarantees
            assert guarantees["strict_memory"] and guarantees["io_cap"] and guarantees["exact_accounting"]
            assert not guarantees["full_metrics"]
