"""Word-size accounting for messages and machine-local storage.

The DMPC cost model counts communication in *words* (machine-word-sized
units: a vertex identifier, an edge endpoint, an index in an Euler tour, a
counter...).  The simulator therefore needs a deterministic way to charge a
Python payload a number of words.  :func:`word_size` implements the charging
scheme used throughout the package:

* ``None`` and booleans cost 1 word,
* integers and floats cost 1 word (identifiers and weights are word-sized),
* strings cost ``ceil(len/8)`` words but at least 1 (strings are only used
  for short tags),
* tuples/lists/sets/frozensets cost the sum of their elements plus 1 word of
  framing,
* dictionaries cost the sum of key and value costs plus 1 word of framing,
* dataclass-like objects may opt in by exposing a ``dmpc_words()`` method.

The scheme deliberately over-counts slightly (framing words) — the paper's
bounds are asymptotic, and over-counting keeps the enforcement of the
``O(sqrt(N))`` per-round I/O cap honest.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Callable

__all__ = [
    "word_size",
    "fast_word_size",
    "string_words",
    "register_closed_form",
    "has_closed_form",
    "closed_form_words",
    "registered_closed_forms",
]


def word_size(payload: Any) -> int:
    """Return the number of machine words charged for ``payload``.

    The function is total: every payload gets *some* positive cost, so a
    forgotten case can never make communication look free.
    """
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 1
    if isinstance(payload, str):
        return max(1, math.ceil(len(payload) / 8))
    if isinstance(payload, (bytes, bytearray)):
        return max(1, math.ceil(len(payload) / 8))
    if isinstance(payload, array):
        # Flat buffers (the CSR layouts) are charged by their raw byte
        # length, same rule as bytes: a word per 8 bytes, at least 1.
        return max(1, math.ceil(len(payload) * payload.itemsize / 8))
    if hasattr(payload, "dmpc_words"):
        words = payload.dmpc_words()
        if not isinstance(words, int) or words < 1:
            raise ValueError(f"dmpc_words() must return a positive int, got {words!r}")
        return words
    if isinstance(payload, dict):
        return 1 + sum(word_size(k) + word_size(v) for k, v in payload.items())
    if isinstance(payload, (tuple, list, set, frozenset)):
        return 1 + sum(word_size(item) for item in payload)
    # Fall back to the object's repr length; this path is not used by the
    # algorithms in the package but keeps accounting total.
    return max(1, math.ceil(len(repr(payload)) / 8))


def fast_word_size(payload: Any) -> int:
    """:func:`word_size` with identical output, optimised for hot paths.

    An iterative re-implementation used by the fast execution backend's
    storage accounting: exact-type dispatch and an explicit stack replace
    the ``isinstance`` chains, generator expressions and recursion of the
    readable reference implementation.  Exotic payloads — subclasses of the
    builtin containers, objects exposing ``dmpc_words()``, repr fallbacks —
    are handed to :func:`word_size` itself, so the two functions agree on
    *every* input (property-tested in ``tests/runtime``).
    """
    total = 0
    stack = [payload]
    pop = stack.pop
    extend = stack.extend
    while stack:
        item = pop()
        kind = type(item)
        if kind is int or kind is float or kind is bool or item is None:
            total += 1
        elif kind is str or kind is bytes or kind is bytearray:
            total += (len(item) + 7) // 8 or 1
        elif kind is array:
            total += (len(item) * item.itemsize + 7) // 8 or 1
        elif kind is dict:
            total += 1
            for key, value in item.items():
                stack.append(key)
                stack.append(value)
        elif kind is tuple or kind is list or kind is set or kind is frozenset:
            total += 1
            extend(item)
        else:
            total += word_size(item)
    return total


def string_words(text: str) -> int:
    """Word cost of a string under the charging scheme (``ceil(len/8)``, min 1)."""
    return (len(text) + 7) // 8 or 1


# --------------------------------------------------------------- closed forms
#
# Recursive sizing is exact but shows up in profiles once a driver sends the
# same payload *shape* thousands of times per update stream: the PR 8 static
# recut found the Boruvka merge broadcast spending more time in word_size than
# in the algorithm.  Protocol modules may therefore register a *closed form*
# for a message tag — shape-specialised arithmetic that computes
# ``word_size(payload)`` without walking the payload.  Every registered form
# is pinned equal to the recursive sizer on randomized payloads in
# ``tests/mpc``/``tests/dynamic_mpc``, so round records are bit-identical
# whichever path sized the send; ``tests/mpc/test_program_hazards.py`` flags
# sends of a registered tag that fall back to the recursive sizer.

_CLOSED_FORMS: dict[str, tuple[int, Callable[[Any], int]]] = {}


def register_closed_form(tag: str, payload_words: Callable[[Any], int]) -> None:
    """Register ``payload_words`` as the closed form for messages tagged ``tag``.

    ``payload_words(payload)`` must return exactly ``word_size(payload)`` for
    every payload the protocol ships under this tag.  The tag's own word cost
    is precomputed here so :func:`closed_form_words` is pure arithmetic.
    """
    _CLOSED_FORMS[tag] = (word_size(tag), payload_words)


def has_closed_form(tag: str) -> bool:
    """True if a closed form has been registered for ``tag``."""
    return tag in _CLOSED_FORMS


def registered_closed_forms() -> tuple[str, ...]:
    """All tags with a registered closed form (sorted, for the tests)."""
    return tuple(sorted(_CLOSED_FORMS))


def closed_form_words(tag: str, payload: Any) -> int:
    """Total words for a ``(tag, payload)`` send via the registered closed form.

    Equals ``word_size(tag) + word_size(payload)`` — the exact charge
    ``Machine.send`` computes when no explicit ``words=`` is given — without
    recursing into the payload.
    """
    tag_words, payload_words = _CLOSED_FORMS[tag]
    return tag_words + payload_words(payload)
