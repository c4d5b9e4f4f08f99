"""Deliberately-broken superstep programs: one per ``repro.lint`` rule.

Every class here violates exactly the facet of the program contract its
name advertises, so the rule tests can assert each ``RP1xx`` code fires at
the expected program with the expected anchors.  This module is *never*
linted as part of the shipped tree (``python -m repro.lint src/`` stays
clean); it is analyzed explicitly by ``tests/lint/test_lint_rules.py``.

The classes are also importable and runnable (the contract violations are
semantic, not syntactic), so the shadow-oracle regression tests reuse
them to prove the runtime checker and the static analyzer flag the same
defects.
"""

from __future__ import annotations

import os
import random
import time

from repro.mpc.program import SuperstepProgram


class UndeclaredSharedReadProgram(SuperstepProgram):
    """RP101: ``run`` reads ``shared['labels']`` but declares nothing."""

    shared_reads = ()

    def run(self, ctx, inbox, shared):
        return shared["labels"].get(0)


class UndeclaredSharedGetProgram(SuperstepProgram):
    """RP101 via ``shared.get``: silently returns the default in a worker."""

    shared_reads = ("declared",)

    def run(self, ctx, inbox, shared):
        return shared.get("undeclared", 0) + shared["declared"]


class UndeclaredStoreLoadProgram(SuperstepProgram):
    """RP102: loads the ``("adj", v)`` prefix without declaring it."""

    shared_reads = ()
    store_reads = ("weights",)

    def run(self, ctx, inbox, shared):
        total = 0
        for v in (0, 1, 2):
            total += len(ctx.load(("adj", v), ()))
            total += len(ctx.load(("weights", v), ()))
        return total


class UndeclaredApplyWriteProgram(SuperstepProgram):
    """RP103: ``apply`` writes ``shared['totals']`` outside the declarations."""

    shared_reads = ("counts",)

    def run(self, ctx, inbox, shared):
        return len(shared["counts"])

    def apply(self, shared, machine_id, delta):
        shared["totals"][machine_id] = delta


class UndeclaredApplyAliasProgram(SuperstepProgram):
    """RP103 through an alias: ``totals = shared['totals']; totals[...] = ...``."""

    shared_reads = ()

    def run(self, ctx, inbox, shared):
        return 1

    def apply(self, shared, machine_id, delta):
        totals = shared["totals"]
        totals[machine_id] = delta


class StaleDriverScopeProgram(SuperstepProgram):
    """RP104: ``delta_scope='driver'`` while ``apply`` writes what ``run`` reads."""

    shared_reads = ("labels",)
    shared_writes = ()
    delta_scope = "driver"

    def run(self, ctx, inbox, shared):
        return dict(shared["labels"])

    def apply(self, shared, machine_id, delta):
        shared["labels"] = delta


class InvalidScopeProgram(SuperstepProgram):
    """RP104: an unknown ``delta_scope`` literal."""

    shared_reads = ("flags",)
    delta_scope = "everywhere"

    def run(self, ctx, inbox, shared):
        return shared["flags"]


class NondeterministicProgram(SuperstepProgram):
    """RP105: every hazard class in one program."""

    shared_reads = ("peers",)

    def run(self, ctx, inbox, shared):
        noise = random.random() + time.time()
        token = id(ctx) ^ hash(ctx.machine_id)
        region = os.environ.get("REGION", "")
        for peer in {p for p in shared["peers"]}:
            ctx.send(peer, "noise", (noise, token, region))
        return None


class UnorderedFanOutProgram(SuperstepProgram):
    """RP105: ``send_many`` stages in iteration order — a set has none."""

    shared_reads = ("peers",)

    def run(self, ctx, inbox, shared):
        sends = {(peer, None, 1) for peer in sorted(shared["peers"])}
        ctx.send_many("noise", sends)
        return None


class UnpicklableInitProgram(SuperstepProgram):
    """RP106: ``__init__`` stores a live cluster reference and a lambda."""

    shared_reads = ()

    def __init__(self, cluster, seed):
        self.cluster = cluster
        self.seed = seed
        self.picker = lambda items: items[0]

    def run(self, ctx, inbox, shared):
        return self.seed


def make_nested_program():
    """RP106: the returned class is not importable by a worker process."""

    class NestedProgram(SuperstepProgram):
        shared_reads = ()

        def run(self, ctx, inbox, shared):
            return None

    return NestedProgram


class OverDeclaredProgram(SuperstepProgram):
    """RP107: declares keys and prefixes nothing ever touches."""

    shared_reads = ("used", "never_read")
    shared_writes = ("never_written",)
    store_reads = ("adj", "ghost")

    def run(self, ctx, inbox, shared):
        return shared["used"] + len(ctx.load(("adj", 0), ()))


class InboxLiarProgram(SuperstepProgram):
    """RP108: declares ``reads_inbox = False`` and reads the inbox anyway."""

    shared_reads = ()
    reads_inbox = False

    def run(self, ctx, inbox, shared):
        return [msg.payload for msg in inbox]


class FusionWorkerDrivableProgram(SuperstepProgram):
    """Not RP110: worker-drivable sends with the default ``global`` scope and no-op apply."""

    shared_reads = ("totals",)
    driver_reads_sends = False

    def run(self, ctx, inbox, shared):
        return len(shared["totals"])


class FusionDriverScopeLiarProgram(SuperstepProgram):
    """RP110: worker-drivable sends declaration with driver-scoped deltas."""

    shared_reads = ()
    shared_writes = ("audit",)
    delta_scope = "driver"
    driver_reads_sends = False

    def run(self, ctx, inbox, shared):
        return 1

    def apply(self, shared, machine_id, delta):
        shared["audit"][machine_id] = delta


def unsized_closed_form_send(machine, offers):
    """RP109: ``fixture-offer`` has a registered closed form, send omits ``words=``.

    The registration is in this file on purpose: the RP109 scan merges
    statically-discovered ``register_closed_form`` calls with the live
    registry, so the fixture stays self-contained.
    """
    from repro.mpc.sizing import register_closed_form

    register_closed_form("fixture-offer", lambda payload: 1 + 3 * len(payload))
    machine.send("aggregator", "fixture-offer", offers)
