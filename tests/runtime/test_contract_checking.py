"""Regression tests for the ``REPRO_CHECK_CONTRACTS`` shadow oracle.

Three guarantees are pinned here:

1. **Worker parity** — with checking on, the in-process strategy raises on
   an undeclared ``shared[key]`` read exactly like a ``resident`` worker
   holding only the declared slice would, and silently hands back defaults
   for undeclared ``shared.get`` / ``ctx.load`` exactly like a worker would.
   Without the env var, the permissive behavior is untouched.
2. **Loud divergence** — ``apply`` writing an undeclared shared key and a
   ``reads_inbox = False`` program reading its inbox raise
   :class:`ContractViolationError` (a worker would silently diverge there).
3. **Declarations match reality** — running every shipped static-MPC
   algorithm under the oracle observes exactly the declared reads, loads
   and writes; a ``delta_scope = "driver"`` program's ``apply`` touches
   nothing any ``run`` reads; and no program declares worker-drivable sends
   (``driver_reads_sends = False``) with driver-scoped deltas.  Each
   declaration check fails on a seeded broken program below.
"""

from __future__ import annotations

import pytest

from repro.config import DMPCConfig
from repro.exceptions import ContractViolationError
from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.mpc import Cluster, SuperstepProgram
from repro.mpc.contract import (
    CHECK_ENV_VAR,
    contract_checking_enabled,
    observation_for,
    observations,
    reset_observations,
)
from repro.static_mpc import StaticBoruvkaMST, StaticConnectedComponents, StaticMaximalMatching
from repro.static_mpc.connected_components import CSRLabelProposeProgram, LabelApplyProgram
from repro.static_mpc.maximal_matching import CSRMatchingAnnounceProgram, CSRMatchingProposeProgram
from repro.static_mpc.mst import CSRMSTCandidateProgram

SHIPPED_PROGRAMS = (
    CSRLabelProposeProgram,
    LabelApplyProgram,
    CSRMatchingProposeProgram,
    CSRMatchingAnnounceProgram,
    CSRMSTCandidateProgram,
)


def driver_scope_leaks(programs, observed) -> dict[str, set]:
    """Keys a ``delta_scope = "driver"`` program's ``apply`` touched that some ``run`` reads.

    Workers never replay driver-scoped deltas, so such a key goes stale there.  Accesses, not
    ``apply_writes``: the oracle observes a nested ``shared[k][m] = v`` as a read of ``k``.
    """
    run_reads = set().union(*(observed[cls.__name__].run_shared_reads for cls in programs))
    leaks = {cls.__name__: observed[cls.__name__].apply_accesses & run_reads for cls in programs if cls.delta_scope == "driver"}
    return {name: keys for name, keys in leaks.items() if keys}


def fusion_contradiction(program: type) -> bool:
    """Worker-drivable sends cannot come with deltas only the driver sees."""
    return not program.driver_reads_sends and program.delta_scope == "driver"


class UndeclaredSharedReadProgram(SuperstepProgram):
    """``run`` reads ``shared['labels']`` but declares nothing."""

    shared_reads = ()

    def run(self, ctx, inbox, shared):
        return shared["labels"].get(0)


class UndeclaredApplyWriteProgram(SuperstepProgram):
    """``apply`` writes ``shared['totals']`` outside the declarations."""

    shared_reads = ("counts",)

    def run(self, ctx, inbox, shared):
        return len(shared["counts"])

    def apply(self, shared, machine_id, delta):
        shared["totals"][machine_id] = delta


class InboxLiarProgram(SuperstepProgram):
    """Declares ``reads_inbox = False`` and reads the inbox anyway."""

    shared_reads = ()
    reads_inbox = False

    def run(self, ctx, inbox, shared):
        return [msg.payload for msg in inbox]


class StaleDriverScopeProgram(SuperstepProgram):
    """``delta_scope = "driver"`` while ``apply`` writes what ``run`` reads."""

    shared_reads = ("labels",)
    delta_scope = "driver"

    def run(self, ctx, inbox, shared):
        return dict(shared["labels"])

    def apply(self, shared, machine_id, delta):
        shared["labels"] = delta


class FusionDriverScopeLiarProgram(CSRMSTCandidateProgram):
    """The driver-scoped MST scan, declaring its sends worker-drivable."""

    driver_reads_sends = False


class GetProbeProgram(SuperstepProgram):
    """Reads an undeclared key via ``shared.get`` and reports what it saw."""

    shared_reads = ("declared",)
    shared_writes = ("results",)

    def run(self, ctx, inbox, shared):
        return shared.get("ghost", -1) + shared["declared"]

    def apply(self, shared, machine_id, delta):
        shared["results"][machine_id] = delta


class DirectApplyWriteProgram(SuperstepProgram):
    """``apply`` assigns an undeclared top-level shared key directly."""

    shared_reads = ("counts",)

    def run(self, ctx, inbox, shared):
        return len(shared["counts"])

    def apply(self, shared, machine_id, delta):
        shared["totals"] = {machine_id: delta}


class StoreProbeProgram(SuperstepProgram):
    """Loads a declared and an undeclared store prefix and reports both."""

    shared_reads = ()
    shared_writes = ("results",)
    store_reads = ("token",)

    def run(self, ctx, inbox, shared):
        return (ctx.load(("token", ctx.machine_id), 0), ctx.load(("secret", ctx.machine_id), -1))

    def apply(self, shared, machine_id, delta):
        shared["results"][machine_id] = delta


def make_cluster(backend: str = "reference", *, machines: int = 3, **config_kwargs) -> Cluster:
    config = DMPCConfig(capacity_n=64, capacity_m=128, backend=backend, **config_kwargs)
    cluster = Cluster(config)
    cluster.add_machines("m", machines)
    return cluster


@pytest.fixture()
def checking(monkeypatch):
    monkeypatch.setenv(CHECK_ENV_VAR, "1")
    reset_observations()
    yield
    reset_observations()


@pytest.fixture()
def unchecked(monkeypatch):
    monkeypatch.delenv(CHECK_ENV_VAR, raising=False)


class TestSwitch:
    def test_disabled_by_default(self, unchecked):
        assert not contract_checking_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(CHECK_ENV_VAR, value)
        assert contract_checking_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "off"])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv(CHECK_ENV_VAR, value)
        assert not contract_checking_enabled()


class TestWorkerParity:
    """Satellite: the in-process strategy behaves exactly like a worker under checking."""

    @pytest.mark.parametrize("make", [make_cluster], ids=["sequential"])
    def test_undeclared_subscript_read_raises_like_a_worker(self, checking, make):
        cluster = make()
        shared = {"labels": {0: 0}}  # present in shared — a worker slice still would not ship it
        with pytest.raises(KeyError, match=r"shared\['labels'\].*worker"):
            cluster.superstep(UndeclaredSharedReadProgram(), shared=shared)

    @pytest.mark.parametrize("make", [make_cluster], ids=["sequential"])
    def test_same_program_passes_without_checking(self, unchecked, make):
        cluster = make()
        record = cluster.superstep(UndeclaredSharedReadProgram(), shared={"labels": {0: 0}})
        assert record is not None  # the historical in-process permissiveness, unchanged

    def test_undeclared_get_returns_default_and_is_recorded(self, checking):
        cluster = make_cluster()
        shared = {"declared": 10, "ghost": 42, "results": {}}
        cluster.superstep(GetProbeProgram(), shared=shared)
        # every machine saw the get default (worker parity), not the live value 42
        assert set(shared["results"].values()) == {9}
        obs = observation_for(GetProbeProgram)
        assert obs.undeclared_shared_reads == {"ghost"}
        assert obs.run_shared_reads == {"declared", "ghost"}

    def test_undeclared_store_load_returns_default_and_is_recorded(self, checking):
        cluster = make_cluster()
        for machine in cluster.machines():
            machine.store(("token", machine.machine_id), 7)
            machine.store(("secret", machine.machine_id), 99)
        shared = {"results": {}}
        cluster.superstep(StoreProbeProgram(), shared=shared)
        # declared prefix served from the store, undeclared one from the default
        assert set(shared["results"].values()) == {(7, -1)}
        obs = observation_for(StoreProbeProgram)
        assert obs.store_prefixes == {"token", "secret"}
        assert obs.undeclared_store_prefixes == {"secret"}

    @pytest.mark.parametrize("make", [make_cluster], ids=["sequential"])
    def test_undeclared_nested_apply_write_raises_like_a_worker(self, checking, make):
        # shared["totals"][mid] = delta *reads* the undeclared top-level key
        # first — a resident worker's replay copy raises exactly this KeyError
        cluster = make()
        shared = {"counts": {0: 1}, "totals": {}}
        with pytest.raises(KeyError, match=r"shared\['totals'\].*resident worker"):
            cluster.superstep(UndeclaredApplyWriteProgram(), shared=shared)

    @pytest.mark.parametrize("make", [make_cluster], ids=["sequential"])
    def test_undeclared_direct_apply_write_raises(self, checking, make):
        # a direct shared["totals"] = ... would be silently absorbed by a
        # worker's copy, so the oracle raises the loud contract error instead
        cluster = make()
        shared = {"counts": {0: 1}}
        with pytest.raises(ContractViolationError, match=r"shared\['totals'\].*shared_writes"):
            cluster.superstep(DirectApplyWriteProgram(), shared=shared)

    def test_inbox_liar_raises(self, checking):
        cluster = make_cluster()
        with pytest.raises(ContractViolationError, match="reads_inbox = False"):
            cluster.superstep(InboxLiarProgram(), shared={})

    def test_violations_pass_silently_without_checking(self, unchecked):
        cluster = make_cluster()
        shared = {"counts": {0: 1}, "totals": {}}
        cluster.superstep(UndeclaredApplyWriteProgram(), shared=shared)
        assert set(shared["totals"]) == {m.machine_id for m in cluster.machines()}
        cluster.superstep(InboxLiarProgram(), shared={})


class TestObservationBookkeeping:
    def test_observation_identity_and_reset(self, checking):
        first = observation_for(GetProbeProgram)
        assert observation_for(GetProbeProgram()) is first
        assert "GetProbeProgram" in observations()
        reset_observations()
        assert observations() == {}
        assert observation_for(GetProbeProgram) is not first


class TestStaticDynamicAgreement:
    """Every shipped program's static declarations agree with what the oracle observes."""

    PROGRAMS = {cls.__name__: cls for cls in SHIPPED_PROGRAMS}

    @pytest.fixture(scope="class")
    def observed(self):
        """Run every static algorithm under the oracle."""
        import os

        old = os.environ.get(CHECK_ENV_VAR)
        os.environ[CHECK_ENV_VAR] = "1"
        reset_observations()
        try:
            StaticConnectedComponents(gnm_random_graph(40, 60, seed=7), backend="reference").run()
            # dense enough that matching needs several proposal rounds, so
            # the conditional prune path in the propose apply executes
            StaticMaximalMatching(gnm_random_graph(60, 150, seed=3), backend="reference").run()
            StaticBoruvkaMST(random_weighted_graph(30, 60, seed=7), backend="reference").run()
            return observations()
        finally:
            if old is None:
                os.environ.pop(CHECK_ENV_VAR, None)
            else:
                os.environ[CHECK_ENV_VAR] = old
            reset_observations()

    def test_every_shipped_program_was_observed(self, observed):
        assert set(self.PROGRAMS) <= set(observed)

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_runtime_observation_is_clean(self, observed, name):
        obs = observed[name]
        assert obs.clean, (
            f"{name} touched undeclared state at runtime: "
            f"reads={sorted(map(str, obs.undeclared_shared_reads))} "
            f"store={sorted(map(str, obs.undeclared_store_prefixes))} "
            f"apply={sorted(map(str, obs.undeclared_apply_accesses))}"
        )

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_declarations_are_fully_exercised(self, observed, name):
        """Everything declared is actually used."""
        cls, obs = self.PROGRAMS[name], observed[name]
        assert obs.run_shared_reads == set(cls.shared_reads)
        assert obs.store_prefixes == set(cls.store_reads or ())
        assert set(cls.shared_writes or ()) <= obs.apply_accesses

    def test_driver_scoped_deltas_feed_no_run(self, observed):
        scopes = {cls.delta_scope for cls in SHIPPED_PROGRAMS}
        assert "driver" in scopes and scopes <= {"global", "owner", "driver"}
        assert driver_scope_leaks(SHIPPED_PROGRAMS, observed) == {}

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_no_worker_drivable_sends_with_driver_scope(self, name):
        assert not fusion_contradiction(self.PROGRAMS[name])


class TestSeededDeclarationBugs:
    def test_driver_scoped_apply_of_a_run_read_key_is_caught(self, checking):
        make_cluster().superstep(StaleDriverScopeProgram(), shared={"labels": {0: 0}})
        leaks = driver_scope_leaks([StaleDriverScopeProgram], observations())
        assert leaks == {"StaleDriverScopeProgram": {"labels"}}

    def test_worker_drivable_sends_with_driver_scope_are_caught(self):
        assert fusion_contradiction(FusionDriverScopeLiarProgram)
