"""The recipe corpus: every file of ``tests/recipes/`` replayed with invariant checks on.

A recipe is a failure kept as data.  Its header holds ``key: value`` lines —
``algorithm`` (a dynamic algorithm's ``kind``), ``n`` and ``capacity`` (the
``DMPCConfig.for_graph`` arguments), ``fails`` (the update, counted from 1,
and the exception it raises there, as ``<update> <Type>: <message>``) and
``fixed`` (``open`` while the defect stands, else the change that fixed it)
and, optionally, ``start`` (``empty``: the run preprocesses the empty graph
``DynamicGraph()``, as a stream applied without a preprocess does; by default
it starts from ``DynamicGraph(n)``, every vertex present); ``#`` lines are
comments.  Then one ``+u v [w]`` / ``-u v`` line per update.  The run checks
invariants after every update (``check_invariants=True``).

A recipe whose defect is ``open`` is ``xfail(strict=True)`` on its failure
and nothing else: a fix flips it to a pass, which fails the suite until the
header says ``fixed``, and a failure at another update or with another
message is an error, not the expected failure.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching, DMPCThreeHalvesMatching
from repro.exceptions import InvariantViolation
from repro.graph.graph import DynamicGraph
from repro.graph.updates import GraphUpdate

RECIPES = sorted((Path(__file__).parent.parent / "recipes").glob("*.txt"))
ALGORITHMS = {cls.kind: cls for cls in (DMPCMaximalMatching, DMPCThreeHalvesMatching)}


def parse(path: Path) -> tuple[dict[str, str], list[GraphUpdate]]:
    header: dict[str, str] = {}
    updates: list[GraphUpdate] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line[0] in "+-":
            u, v, *weight = line[1:].split()
            if line[0] == "+":
                updates.append(GraphUpdate.insert(int(u), int(v), *map(float, weight)))
            else:
                updates.append(GraphUpdate.delete(int(u), int(v)))
        else:
            key, _, value = line.partition(":")
            header[key.strip()] = value.strip()
    return header, updates


def recipe_param(path: Path):
    header, _updates = parse(path)
    marks = []
    if header["fixed"] == "open":
        marks.append(pytest.mark.xfail(strict=True, raises=InvariantViolation, reason=header["fails"]))
    return pytest.param(path, id=path.stem, marks=marks)


@pytest.mark.parametrize("path", [recipe_param(path) for path in RECIPES])
def test_recipe(path):
    header, updates = parse(path)
    n, capacity = int(header["n"]), int(header["capacity"])
    alg = ALGORITHMS[header["algorithm"]](DMPCConfig.for_graph(n, capacity), check_invariants=True)
    start = header.get("start", "vertices")
    assert start in ("vertices", "empty"), f"{path.name}: unknown start {start!r}"
    alg.preprocess(DynamicGraph() if start == "empty" else DynamicGraph(n))
    for number, update in enumerate(updates, 1):
        try:
            alg.apply(update)
        except InvariantViolation as exc:
            failure = f"{number} {type(exc).__name__}: {exc}"
            assert failure == header["fails"], f"{path.name} fails at another boundary: {failure}"
            raise
