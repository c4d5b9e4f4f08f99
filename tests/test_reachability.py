"""Reachability gate: every ``src/repro`` module is code the system runs.

The system is the five dynamic algorithms (each through ``apply`` and a
coalesced ``apply_batch`` on every registered backend), the three static
baselines on ``fast`` and ``reference``, and static connected components on
``resident``.  :func:`run_system` drives all of it at small n under
``sys.setprofile``; a module counts as *entered* when one of its function
bodies runs.  Module and class bodies run at import, so they do not count,
and a module that defines no function (a re-export ``__init__``) is not
judged.

A module nothing enters is deleted, not allow-listed.  :data:`ALLOWED`
names the few that the system never enters on purpose, each with its
reason; an entry that is entered again, or names nothing, fails as stale,
so the list can only shrink.  Standard library only.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path
from typing import Callable, Mapping

import repro
from repro.config import DMPCConfig
from repro.dynamic_mpc import (
    DMPCApproxMST,
    DMPCConnectivity,
    DMPCMaximalMatching,
    DMPCThreeHalvesMatching,
    DMPCTwoPlusEpsMatching,
)
from repro.graph import DynamicGraph, GraphUpdate, batched
from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.graph.streams import mixed_stream
from repro.runtime import BACKENDS
from repro.static_mpc import StaticBoruvkaMST, StaticConnectedComponents, StaticMaximalMatching

PACKAGE = Path(repro.__file__).resolve().parent

#: Modules (or directories, ending in ``/``) the system never enters, and why.
ALLOWED: dict[str, str] = {
    "analysis/": "Table-1 formatting and shape fitting, reached only from benchmarks/ and "
    "examples/quickstart.py; it leaves when benchmarks/ is retired",
    "eulertour/reference.py": "the explicit-list oracle that tests/eulertour/test_indexed.py "
    "checks IndexedEulerTourForest against",
    "exceptions.py": "its constructors run only on failure paths",
}

#: Comprehension bodies are code objects of their own on some Pythons; at
#: module level they run at import, inside a function their caller counts.
_INLINE_BODIES = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})

N, EDGES, UPDATES, BATCH = 24, 36, 60, 8
DYNAMIC = (DMPCMaximalMatching, DMPCThreeHalvesMatching, DMPCConnectivity, DMPCApproxMST, DMPCTwoPlusEpsMatching)
#: Sections 4 and 6 start from the empty graph; the initial edges arrive as inserts.
STARTS_EMPTY = (DMPCThreeHalvesMatching, DMPCTwoPlusEpsMatching)
STATIC = (StaticConnectedComponents, StaticMaximalMatching, StaticBoruvkaMST)


def run_system() -> None:
    """Drive every algorithm the system reports on at small n; the dynamic ones check their invariants."""
    plain = gnm_random_graph(N, EDGES, seed=11)
    weighted = random_weighted_graph(N, EDGES, seed=11)
    streams = {
        False: list(mixed_stream(N, UPDATES, seed=12, initial=plain)),
        True: list(mixed_stream(N, UPDATES, seed=12, initial=weighted, weighted=True)),
    }
    for backend in sorted(BACKENDS):
        for cls in DYNAMIC:
            is_weighted = cls is DMPCApproxMST
            algorithm = cls(DMPCConfig.for_graph(N, 2 * EDGES, backend=backend), coalesce=True)
            initial = weighted if is_weighted else plain
            if cls in STARTS_EMPTY:
                algorithm.preprocess(DynamicGraph(N))
                for (u, v) in initial.edge_list():
                    algorithm.apply(GraphUpdate.insert(u, v))
            else:
                algorithm.preprocess(initial)
            stream = streams[is_weighted]
            half = len(stream) // 2
            for update in stream[:half]:
                algorithm.apply(update)
            for chunk in batched(stream[half:], BATCH):
                algorithm.apply_batch(chunk)
            algorithm.verify_invariants()
    for backend in ("fast", "reference"):
        for cls in STATIC:
            cls(weighted if cls is StaticBoruvkaMST else plain, backend=backend).run()
    # the benchmark's static-cc-resident row: the only caller of resident sessions and the wire codec
    StaticConnectedComponents(plain, backend="resident", resident_slots=1).run()


def modules_defining_functions(root: Path) -> list[str]:
    """Every module under ``root`` whose source defines a function or lambda."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if any(isinstance(node, kinds) for node in ast.walk(ast.parse(path.read_text())))
    )


def entered_modules(root: Path, run: Callable[[], None]) -> set[str]:
    """The modules under ``root`` whose function bodies ``run`` enters."""
    codes: set = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    prefix = str(root) + "/"
    return {
        Path(code.co_filename).resolve().relative_to(root).as_posix()
        for code in codes
        if code.co_filename.startswith(prefix)
        and code.co_flags & inspect.CO_NEWLOCALS
        and code.co_name not in _INLINE_BODIES
    }


def _covers(entry: str, module: str) -> bool:
    return module == entry or (entry.endswith("/") and module.startswith(entry))


def audit(report: Mapping[str, bool], allowed: Mapping[str, str]) -> list[str]:
    """One line per failure of ``report`` (module -> entered) against ``allowed``."""
    failures = [
        f"{module}: no function body entered by the system run; delete it"
        for module, entered in sorted(report.items())
        if not entered and not any(_covers(entry, module) for entry in allowed)
    ]
    for entry in sorted(allowed):
        covered = [module for module in sorted(report) if _covers(entry, module)]
        if not covered:
            failures.append(f"{entry}: stale allow-list entry, no such module defines a function")
        failures.extend(
            f"{entry}: stale allow-list entry, {module} is entered by the system run"
            for module in covered
            if report[module]
        )
    return failures


def test_every_module_is_entered_or_allow_listed():
    entered = entered_modules(PACKAGE, run_system)
    report = {module: module in entered for module in modules_defining_functions(PACKAGE)}
    failures = audit(report, ALLOWED)
    assert not failures, "\n".join(failures)


def test_every_allow_list_entry_gives_its_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


class TestAudit:
    def test_unentered_module_is_flagged_by_name(self):
        failures = audit({"mpc/cluster.py": True, "mpc/dead.py": False}, {})
        assert len(failures) == 1 and failures[0].startswith("mpc/dead.py:")

    def test_allow_listed_module_passes(self):
        assert audit({"mpc/cluster.py": True, "lint/cli.py": False, "oracle.py": False},
                     {"lint/": "checker", "oracle.py": "oracle"}) == []

    def test_entered_allow_list_entry_is_stale(self):
        failures = audit({"lint/cli.py": False, "lint/rules.py": True}, {"lint/": "checker"})
        assert failures == ["lint/: stale allow-list entry, lint/rules.py is entered by the system run"]

    def test_allow_list_entry_for_a_missing_module_is_stale(self):
        failures = audit({"mpc/cluster.py": True}, {"mpc/gone.py": "deleted"})
        assert failures == ["mpc/gone.py: stale allow-list entry, no such module defines a function"]

    def test_directory_entry_covers_only_modules_under_it(self):
        report = {"lint/cli.py": False, "linter.py": False, "mpc/lint/rules.py": False}
        failures = audit(report, {"lint/": "checker"})
        assert [line.split(":")[0] for line in failures] == ["linter.py", "mpc/lint/rules.py"]


class TestEnteredModules:
    SOURCE = (
        "VALUE = [i for i in range(3)]\n"
        "class Box:\n"
        "    size = sum(x for x in range(3))\n"
        "    def grow(self):\n"
        "        return self.size + 1\n"
        "def used():\n"
        "    return Box().grow()\n"
    )

    def write_package(self, tmp_path: Path, name: str) -> Path:
        root = tmp_path / name
        root.mkdir()
        (root / "__init__.py").write_text("")
        (root / "body.py").write_text(self.SOURCE)
        (root / "plain.py").write_text("CONSTANT = 1\n")
        return root

    def test_module_and_class_bodies_do_not_count(self, tmp_path, monkeypatch):
        root = self.write_package(tmp_path, "reach_import_only")
        monkeypatch.syspath_prepend(str(tmp_path))
        entered = entered_modules(root.resolve(), lambda: importlib.import_module("reach_import_only.body"))
        assert entered == set()
        assert modules_defining_functions(root) == ["body.py"]

    def test_a_called_function_enters_its_module(self, tmp_path, monkeypatch):
        root = self.write_package(tmp_path, "reach_called")
        monkeypatch.syspath_prepend(str(tmp_path))
        module = importlib.import_module("reach_called.body")
        assert entered_modules(root.resolve(), module.used) == {"body.py"}

    def test_a_sibling_package_sharing_the_root_prefix_is_not_counted(self, tmp_path, monkeypatch):
        root = self.write_package(tmp_path, "reach_root")
        sibling = self.write_package(tmp_path, "reach_root_extra")
        monkeypatch.syspath_prepend(str(tmp_path))
        module = importlib.import_module("reach_root_extra.body")
        assert entered_modules(root.resolve(), module.used) == set()
        assert entered_modules(sibling.resolve(), module.used) == {"body.py"}
