"""Seeded mutations: a function recompiled from its own source with one piece of text replaced.

A test installs the mutant (``monkeypatch.setattr``) and asserts that the
check it guards fails; the helper refuses a mutation whose text is gone, so
a rewrite of the mutated code cannot leave the test vacuous.
"""

from __future__ import annotations

import inspect
import textwrap


def mutated(function, old: str, new: str):
    """``function`` recompiled with ``old`` replaced by ``new`` in its source (which must contain it)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert old in source, f"{function.__qualname__} no longer contains {old!r}: re-seed the mutation"
    namespace: dict = {}
    exec(compile(source.replace(old, new), f"<mutated {function.__qualname__}>", "exec"), function.__globals__, namespace)
    return namespace[function.__name__]
