"""A single simulated DMPC machine.

A machine owns

* a **local store** — a key/value dictionary whose total word size is
  bounded by the machine memory ``S`` (enforced when the owning cluster is
  configured with ``strict_memory=True``),
* an **outbox** of messages staged for the next synchronous round, and
* an **inbox** of messages delivered by the previous round.

Machines never touch each other's stores directly; every cross-machine data
movement goes through messages so that the metrics ledger sees all
communication.  (The *drivers* implementing algorithms are allowed to read a
machine's local store directly — they model the code running *on* that
machine — but any information that must flow to code running on a different
machine has to be sent.)

How the local store sizes and charges its contents is an execution-backend
policy (:mod:`repro.runtime`): the machine delegates to the
:class:`~repro.runtime.base.MachineStorage` it was constructed with.  A
machine created standalone (outside a cluster) uses the reference storage,
which preserves the historical eager-sizing behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.mpc.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import MachineStorage, Transport

__all__ = ["Machine"]


class Machine:
    """A memory-bounded machine participating in a :class:`Cluster`."""

    __slots__ = ("machine_id", "capacity", "strict", "role", "index", "storage", "transport", "inbox", "outbox")

    def __init__(
        self,
        machine_id: str,
        capacity: int,
        *,
        strict: bool = True,
        role: str = "worker",
        storage: "MachineStorage | None" = None,
        index: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError("machine capacity must be at least one word")
        self.machine_id = machine_id
        self.capacity = capacity
        self.strict = strict
        self.role = role
        #: registration order within the owning cluster; transports use it to
        #: reproduce the reference message-delivery order.
        self.index = index
        if storage is None:
            from repro.runtime.reference import ReferenceStorage

            storage = ReferenceStorage(machine_id, capacity, strict=strict)
        self.storage = storage
        #: transport notified when a message is staged (set by the cluster).
        self.transport: "Transport | None" = None
        self.inbox: list[Message] = []
        self.outbox: list[Message] = []

    # ------------------------------------------------------------------ store
    def store(self, key: Any, value: Any) -> None:
        """Store ``value`` under ``key``, charging its word size to local memory."""
        self.storage.store(key, value)

    def load(self, key: Any, default: Any = None) -> Any:
        """Return the value stored under ``key`` (or ``default``)."""
        return self.storage.load(key, default)

    def __contains__(self, key: Any) -> bool:
        return key in self.storage

    def delete(self, key: Any) -> None:
        """Remove ``key`` from the local store (no-op if absent)."""
        self.storage.delete(key)

    def keys(self) -> Iterator[Any]:
        """Iterate over the keys currently stored on this machine."""
        return self.storage.keys()

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Iterate over ``(key, value)`` pairs currently stored on this machine."""
        return self.storage.items()

    @property
    def used_words(self) -> int:
        """Number of words currently charged against this machine's memory."""
        return self.storage.used_words

    @property
    def free_words(self) -> int:
        """Remaining memory in words."""
        free = self.capacity - self.storage.used_words
        return free if free > 0 else 0

    def clear(self) -> None:
        """Empty the local store and both mailboxes."""
        self.storage.clear()
        self.inbox.clear()
        self.outbox.clear()

    # -------------------------------------------------------------- messaging
    def send(self, receiver: str, tag: str, payload: Any = None, *, words: int | None = None) -> Message:
        """Stage a message for delivery in the next round and return it.

        The transport is notified once per sender and round: when the
        message is the first in the outbox.

        The charged size in words is, in precedence order: the explicit
        ``words`` argument, the owning transport's ``message_sizer`` (an
        execution-backend policy charging the exact same number of words as
        the reference sizer, only cheaper to compute), or the message sizing
        itself eagerly at construction.
        """
        transport = self.transport
        if words is None:
            sizer = None if transport is None else transport.message_sizer
            words = -1 if sizer is None else sizer(tag) + sizer(payload)
        message = Message(self.machine_id, receiver, tag, payload, words)
        outbox = self.outbox
        if not outbox and transport is not None:
            # a non-empty outbox was noted when its first message was staged
            transport.note_staged(self)
        outbox.append(message)
        return message

    def send_many(self, tag: str, sends: "Iterable[tuple[str, Any, int]]") -> None:
        """Stage one ``tag`` message per pre-sized ``(receiver, payload, words)`` triple.

        The fan-out form of :meth:`send`: exactly the messages a loop of
        ``send(receiver, tag, payload, words=words)`` would stage, in the
        same order, with one outbox ``extend`` and one staging notification.
        Every triple carries its charged size — there is no unsized batch
        form, so the transport's sizer is never consulted.  A refused triple
        (``words < 1``) raises ``ValueError`` before anything is staged.
        Its callers are superstep kernels whose receivers read the messages;
        a driver's broadcast that no receiver reads is one
        :meth:`~repro.mpc.cluster.Cluster.broadcast` charge instead.
        """
        sender = self.machine_id
        messages = [Message(sender, receiver, tag, payload, words) for receiver, payload, words in sends]
        if messages:
            if not self.outbox and self.transport is not None:
                self.transport.note_staged(self)
            self.outbox.extend(messages)

    def receive(self, tag: str | None = None) -> list[Message]:
        """Return (without consuming) inbox messages, optionally filtered by tag."""
        transport = self.transport
        if transport is not None and transport.inbox_router is not None:
            transport.inbox_router.ensure_local(self)
        if tag is None:
            return list(self.inbox)
        return [m for m in self.inbox if m.tag == tag]

    def drain(self, tag: str | None = None) -> list[Message]:
        """Consume and return inbox messages, optionally filtered by tag.

        When the transport has an :attr:`~repro.runtime.base.Transport.inbox_router`
        (a resident session routing messages worker-locally), the router first
        pulls any worker-held messages for this machine back to the driver so
        driver code observes a complete inbox — the routing stays invisible.
        """
        transport = self.transport
        if transport is not None and transport.inbox_router is not None:
            transport.inbox_router.ensure_local(self)
        inbox = self.inbox
        if not inbox:
            return []
        if tag is not None:
            for message in inbox:
                if message.tag != tag:
                    break
            else:
                tag = None  # every message carries the tag: hand the inbox over whole
        if tag is None:
            self.inbox = []
            return inbox
        drained: list[Message] = []
        kept: list[Message] = []
        for message in inbox:
            (drained if message.tag == tag else kept).append(message)
        if drained:
            self.inbox = kept
        return drained

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.machine_id!r}, role={self.role!r}, "
            f"used={self.storage.used_words}/{self.capacity})"
        )
