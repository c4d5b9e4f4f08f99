"""Message envelopes exchanged between simulated machines."""

from __future__ import annotations

from typing import Any

from repro.mpc.sizing import word_size

__all__ = ["Message"]


class Message:
    """A single message sent from one machine to another in one round.

    A plain ``__slots__`` class with value equality: a round stages
    thousands of these, so a message costs one object — no ``__dict__``, no
    frozen-dataclass ``object.__setattr__`` per field.  Treat instances as
    immutable (they are hashed by value).

    Attributes
    ----------
    sender:
        Identifier of the sending machine.
    receiver:
        Identifier of the receiving machine.
    tag:
        A short string describing the purpose of the message (e.g.
        ``"update-history"``, ``"etour-shift"``).  Tags make metrics
        breakdowns and debugging traces readable; they are charged to the
        message size like any other payload component.
    payload:
        Arbitrary (word-size-accountable) content.
    words:
        The charged size of the message in machine words.  Computed at
        construction from ``tag`` and ``payload`` unless given explicitly
        (every closed-form send passes its precomputed size, see
        :func:`repro.mpc.sizing.closed_form_words`, so the payload is not
        walked).
    """

    __slots__ = ("sender", "receiver", "tag", "payload", "words")

    def __init__(self, sender: str, receiver: str, tag: str, payload: Any = None, words: int = -1) -> None:
        if words < 1:
            if words < 0:
                words = word_size(tag) + word_size(payload)
            if words < 1:
                raise ValueError("a message always costs at least one word")
        self.sender = sender
        self.receiver = receiver
        self.tag = tag
        self.payload = payload
        self.words = words

    def as_fields(self) -> tuple[str, str, str, Any, int]:
        """Flatten to a ``(sender, receiver, tag, payload, words)`` tuple.

        The wire form used by the worker backends (:mod:`repro.runtime.wire`):
        a class instance pickles as a class reference plus per-instance
        state, while a flat tuple of builtins marshals in a fraction of the
        bytes.  ``words`` travels with the fields so the far side never
        re-sizes the message.
        """
        return (self.sender, self.receiver, self.tag, self.payload, self.words)

    @classmethod
    def from_fields(cls, fields: tuple[str, str, str, Any, int]) -> "Message":
        """Rebuild a message from :meth:`as_fields` output (words preserved)."""
        return cls(*fields)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_fields() == other.as_fields()

    def __hash__(self) -> int:
        return hash(self.as_fields())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.sender!r} -> {self.receiver!r}, tag={self.tag!r}, "
            f"words={self.words})"
        )
