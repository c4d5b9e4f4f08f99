"""Source scans the runtime contract oracle cannot make; each passes on ``src/`` and fails on seeded sources.

* Determinism: ``run`` / ``apply`` of a ``SuperstepProgram`` call no ``random`` / ``time`` / ``uuid`` /
  ``secrets`` / wall-clock ``datetime`` / ``id()`` / ``hash()``, touch no ``os`` but ``os.path`` and iterate
  no unordered set (``send_many`` stages in iteration order, so a set fed to it counts).
* Sized sends: a ``.send(receiver, "tag", ...)`` of a closed-form tag passes ``words=``, or it sizes recursively.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path

import pytest

import repro
import repro.dynamic_mpc  # noqa: F401  (registers the protocol closed forms)
import repro.static_mpc  # noqa: F401  (defines the shipped programs)
from repro.mpc.program import SuperstepProgram
from repro.mpc.sizing import registered_closed_forms

SRC = Path(repro.__file__).resolve().parent
PROCESS_STATE_MODULES = frozenset({"random", "time", "uuid", "secrets"})
SET_BUILDERS = frozenset({"set", "frozenset"})


def _subclasses(cls: type) -> list[type]:
    return [sub for direct in cls.__subclasses__() for sub in (direct, *_subclasses(direct))]


#: every program class under ``repro.`` that defines ``run`` or ``apply`` itself
PROGRAMS = sorted(
    {cls for cls in _subclasses(SuperstepProgram) if cls.__module__.startswith("repro.") and {"run", "apply"} & set(vars(cls))},
    key=lambda cls: cls.__qualname__,
)


def _dotted(node: ast.AST) -> list[str]:
    """``a.b.c`` as ``["a", "b", "c"]``; empty when the chain does not start at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id, *parts] if isinstance(node, ast.Name) else []


def _method(node: ast.AST) -> str | None:
    """The attribute name a call goes through (``send`` for ``x[i].send(...)``), if any."""
    return node.func.attr if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) else None


def _is_set(node: ast.AST, set_locals: set[str]) -> bool:
    """A set display or comprehension, a ``set()`` / ``frozenset()`` call, or a local assigned from one."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in SET_BUILDERS
    return isinstance(node, (ast.Set, ast.SetComp)) or (isinstance(node, ast.Name) and node.id in set_locals)


def determinism_hazards(class_source: str) -> list[str]:
    """``line: hazard`` for every nondeterminism source in the class's ``run`` / ``apply``."""
    (klass,) = ast.parse(textwrap.dedent(class_source)).body
    found = []
    for method in (node for node in klass.body if getattr(node, "name", None) in ("run", "apply")):
        nodes = list(ast.walk(method))
        assigned = [(t, n.value) for n in nodes if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)]
        set_locals = {target.id for target, value in assigned if _is_set(value, set())}
        for node in nodes:
            iterated = [node.iter] if isinstance(node, (ast.For, ast.comprehension)) else []
            if _method(node) == "send_many":
                iterated = node.args + [kw.value for kw in node.keywords]
            found += [f"{it.lineno}: iterates an unordered set" for it in iterated if _is_set(it, set_locals)]
            name = _dotted(node.func) if isinstance(node, ast.Call) else []
            if name in (["id"], ["hash"]) or name[:1] and name[0] in PROCESS_STATE_MODULES:
                found.append(f"{node.lineno}: calls {'.'.join(name)}()")
            elif name[:1] in (["datetime"], ["date"]) and name[-1] in ("now", "utcnow", "today"):
                found.append(f"{node.lineno}: reads the wall clock")
            if isinstance(node, ast.Attribute) and _dotted(node.value) == ["os"] and node.attr != "path":
                found.append(f"{node.lineno}: touches os.{node.attr}")
    return found


def unsized_sends(module_source: str, tags: frozenset[str]) -> list[str]:
    """``line: tag`` for every ``.send(receiver, tag, ...)`` of a closed-form tag without ``words=``."""
    return [
        f"{node.lineno}: {node.args[1].value!r}"
        for node in ast.walk(ast.parse(module_source))
        if _method(node) == "send" and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant) and node.args[1].value in tags
        and not any(kw.arg == "words" for kw in node.keywords)
    ]


SEEDED_PROGRAM = "class Seeded(SuperstepProgram):\n    def run(self, ctx, inbox, shared):\n        {}\n"
SEEDED_HAZARDS = {
    "random": "return random.random()",
    "time": "return time.time()",
    "uuid": "return uuid.uuid4()",
    "secrets": "return secrets.token_hex()",
    "datetime-now": "return datetime.datetime.now()",
    "utcnow": "return datetime.utcnow()",
    "today": "return date.today()",
    "id": "return id(ctx)",
    "hash": "return hash(ctx.machine_id)",
    "os-call": "return os.getpid()",
    "os-environ": 'return os.environ.get("REGION")',
    "set-literal": 'for peer in {"m0", "m1"}: ctx.send(peer, "t", None)',
    "set-comprehension": 'return [p for p in {q for q in shared["peers"]}]',
    "set-call": 'for peer in set(shared["peers"]): ctx.send(peer, "t", None)',
    "frozenset-call": 'return [p for p in frozenset(shared["peers"])]',
    "set-local": 'peers = set(shared["peers"]); return [p for p in peers]',
    "send-many-of-a-set": 'sends = {(p, None, 1) for p in sorted(shared["peers"])}; ctx.send_many("t", sends)',
}


class TestDeterminism:
    def test_the_shipped_programs_are_scanned(self):
        names = {cls.__qualname__ for cls in PROGRAMS}
        assert {"CSRLabelProposeProgram", "LabelApplyProgram", "CSRMSTCandidateProgram"} <= names

    @pytest.mark.parametrize("program", PROGRAMS, ids=lambda cls: cls.__qualname__)
    def test_shipped_program_is_deterministic(self, program):
        assert determinism_hazards(inspect.getsource(program)) == []

    @pytest.mark.parametrize("body", SEEDED_HAZARDS.values(), ids=SEEDED_HAZARDS.keys())
    def test_seeded_hazard_is_found(self, body):
        assert len(determinism_hazards(SEEDED_PROGRAM.format(body))) == 1

    def test_ordered_iteration_and_os_path_are_clean(self):
        body = 'return [os.path.join(p) for p in sorted(set(shared["peers"]))] + list(shared["order"])'
        assert determinism_hazards(SEEDED_PROGRAM.format(body)) == []


class TestSizedSends:
    TAGS = frozenset(registered_closed_forms())

    def test_shipped_sends_of_closed_form_tags_are_sized(self):
        assert {"propose", "endpoint-ack"} <= self.TAGS
        found = {str(path.relative_to(SRC)): unsized_sends(path.read_text(encoding="utf-8"), self.TAGS) for path in SRC.rglob("*.py")}
        assert {path: lines for path, lines in found.items() if lines} == {}

    @pytest.mark.parametrize("call, found", [
        ('machine.send("coordinator", "propose", offers)', ["1: 'propose'"]),
        ('machine.send("coordinator", "propose", offers, words=closed_form_words("propose", offers))', []),
        ('machine.send("coordinator", "no-closed-form", offers)', []),
        ("machine.send(receiver, tag, offers)", []),
    ], ids=["unsized", "sized", "unregistered-tag", "dynamic-tag"])
    def test_seeded_send(self, call, found):
        assert unsized_sends(call, self.TAGS) == found
