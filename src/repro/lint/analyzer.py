"""AST-based static contract checker for :class:`SuperstepProgram` classes.

The multi-backend story rests on the program contract declared in
:mod:`repro.mpc.program`: ``shared_reads`` / ``store_reads`` /
``shared_writes`` / ``delta_scope`` / ``reads_inbox`` must match what
``run`` and ``apply`` actually touch, or ``resident`` workers silently
diverge from the in-process strategy.  This module
checks the declarations against the code **without importing it**: every
``*.py`` file is parsed, every class transitively deriving from
``SuperstepProgram`` (by base-name fixpoint over the analyzed file set,
seeded with the two contract roots) is located, its contract attributes
are resolved through the inheritance chain, and its ``run`` / ``apply`` /
``__init__`` bodies are scanned for the access patterns the contract
governs:

* ``shared[key]`` / ``shared.get(key, ...)`` reads in ``run`` (RP101);
* ``ctx.load(key)`` / ``ctx.load((prefix, v))`` store loads in ``run``,
  including the ``("adj", v)`` tuple convention (RP102);
* every ``shared`` access in ``apply`` — direct subscripts, ``.get``,
  mutator calls, and accesses through local aliases such as
  ``labels = shared["labels"]; labels[w] = ...`` (RP103);
* ``apply`` writes that a ``delta_scope = "driver"`` declaration promises
  no ``run`` will ever read (RP104, the stale-copy bug class);
* nondeterminism sources — ``random`` / ``time`` / ``id()`` / ``hash()``
  / ``os.environ`` / iteration over unordered sets, including a set handed
  to ``*.send_many`` (which stages in iteration order) — anywhere in
  ``run`` or ``apply`` (RP105);
* picklability hazards — program classes defined inside functions, or
  ``__init__`` storing cluster/machine/closure references (RP106);
* declared-but-never-touched keys, which make resident sessions over-ship
  every round (RP107);
* ``reads_inbox = False`` programs whose ``run`` body references the
  inbox anyway (RP108); and
* sends of a message tag with a registered closed form (see
  :func:`repro.mpc.sizing.register_closed_form`) that omit ``words=`` and
  so fall back to recursively sizing the payload (RP109 — the only
  whole-file scan; everything else is per-program); and
* ``driver_reads_sends = False`` (the worker-drivable fusion promise)
  declared alongside ``delta_scope = "driver"`` — contradictory
  declarations that make the program unfusable by construction (RP110).

Static analysis is necessarily approximate: only *constant* keys are
checked, and a dynamic access (``shared[name]``) is reported as its own
finding rather than silently widening the contract.  The dynamic half of
the net — :mod:`repro.mpc.contract`'s runtime shadow oracle — observes the
concrete keys real executions touch, and the test suite asserts the two
agree on every shipped program.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.lint.rules import Finding

__all__ = [
    "ProgramInfo",
    "ProgramFacts",
    "AnalysisResult",
    "collect_python_files",
    "analyze_paths",
]

#: base-class names that seed the "is a SuperstepProgram" fixpoint.  The
#: two contract roots of this tree; anything deriving from a class that
#: (transitively) derives from one of these is analyzed.
PROGRAM_ROOT_BASES = frozenset({"SuperstepProgram", "VertexProgram"})

#: contract attributes and their :class:`SuperstepProgram` defaults.
CONTRACT_DEFAULTS: dict[str, Any] = {
    "shared_reads": (),
    "store_reads": (),
    "shared_writes": (),
    "delta_scope": "global",
    "reads_inbox": True,
    "driver_reads_sends": True,
}

VALID_DELTA_SCOPES = frozenset({"global", "owner", "driver"})

#: methods that mutate their receiver in place — a call through an alias of
#: ``shared[key]`` with one of these counts as a write of ``key``.
_MUTATORS = frozenset(
    {
        "update",
        "add",
        "append",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "sort",
        "reverse",
        "__setitem__",
        "__delitem__",
    }
)

#: module roots whose every attribute/call is a determinism hazard inside
#: program code (per-process state, wall clocks, entropy).
_HAZARD_MODULES = frozenset({"random", "time", "uuid", "secrets"})

#: builtins whose results differ between processes (id: addresses;
#: hash: PYTHONHASHSEED-randomized for str/bytes).
_HAZARD_BUILTINS = frozenset({"id", "hash"})

#: ``__init__`` parameter names that smell like live runtime objects — a
#: program storing one cannot cross a process boundary (or drags a whole
#: object graph along if it technically pickles).
_UNPICKLABLE_PARAM_NAMES = frozenset(
    {
        "cluster",
        "machine",
        "machines",
        "coordinator",
        "graph",
        "transport",
        "session",
        "executor",
        "pool",
        "lock",
        "ledger",
        "backend",
    }
)

#: sentinel for a contract attribute whose declared value is not a literal
#: the analyzer can evaluate — rules depending on it are skipped.
_UNKNOWN = object()


# --------------------------------------------------------------------- model
@dataclass
class ProgramInfo:
    """One class definition found in the analyzed file set."""

    name: str
    path: str
    lineno: int
    col: int
    node: ast.ClassDef
    bases: list[str]
    in_function: bool
    decls: dict[str, tuple[Any, int]] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    is_program: bool = False


@dataclass
class ProgramFacts:
    """What the analyzer extracted for one concrete program class.

    ``*_sites`` map a key to the ``(line, col)`` anchors it was seen at;
    the plain-set views are what the shadow-oracle agreement test compares
    against :class:`repro.mpc.contract.ContractObservation`.
    """

    info: ProgramInfo
    shared_reads: Any
    store_reads: Any
    shared_writes: Any
    delta_scope: Any
    reads_inbox: Any
    run_shared_sites: dict[Any, list[tuple[int, int]]] = field(default_factory=dict)
    run_dynamic_shared: list[tuple[int, int]] = field(default_factory=list)
    store_prefix_sites: dict[Any, list[tuple[int, int]]] = field(default_factory=dict)
    store_dynamic: list[tuple[int, int]] = field(default_factory=list)
    apply_access_sites: dict[Any, list[tuple[int, int]]] = field(default_factory=dict)
    apply_write_sites: dict[Any, list[tuple[int, int]]] = field(default_factory=dict)
    apply_dynamic: list[tuple[int, int]] = field(default_factory=list)
    inbox_sites: list[tuple[int, int]] = field(default_factory=list)
    #: (line, col, description, hint, role) — role is "run" or "apply",
    #: so the finding anchors to the file the method is defined in.
    hazards: list[tuple[int, int, str, str, str]] = field(default_factory=list)

    @property
    def run_shared_reads(self) -> set:
        return set(self.run_shared_sites)

    @property
    def store_prefixes(self) -> set:
        return set(self.store_prefix_sites)

    @property
    def apply_accesses(self) -> set:
        return set(self.apply_access_sites)

    @property
    def apply_writes(self) -> set:
        return set(self.apply_write_sites)


@dataclass
class AnalysisResult:
    """Findings plus the per-program facts they were derived from."""

    findings: list[Finding]
    facts: dict[str, ProgramFacts]
    files_scanned: int
    programs_checked: int
    errors: list[str] = field(default_factory=list)


# ------------------------------------------------------------ file collection
def collect_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``*.py`` list."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(files)


# ----------------------------------------------------------- class harvesting
def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _collect_classes(tree: ast.Module, path: str) -> list[ProgramInfo]:
    found: list[ProgramInfo] = []

    def walk(body: list[ast.stmt], in_function: bool) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                info = ProgramInfo(
                    name=node.name,
                    path=path,
                    lineno=node.lineno,
                    col=node.col_offset,
                    node=node,
                    bases=[b for b in (_base_name(base) for base in node.bases) if b],
                    in_function=in_function,
                )
                for stmt in node.body:
                    _collect_decl(info, stmt)
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info.methods[stmt.name] = stmt  # type: ignore[assignment]
                found.append(info)
                walk(node.body, in_function)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(node.body, True)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, ast.stmt):
                        walk([sub], in_function)

    walk(tree.body, False)
    return found


def _collect_decl(info: ProgramInfo, stmt: ast.stmt) -> None:
    target: ast.expr | None = None
    value: ast.expr | None = None
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target, value = stmt.target, stmt.value
    if not (isinstance(target, ast.Name) and target.id in CONTRACT_DEFAULTS and value is not None):
        return
    try:
        literal = ast.literal_eval(value)
    except (ValueError, SyntaxError):
        literal = _UNKNOWN
    info.decls[target.id] = (literal, stmt.lineno)


def _is_abstract(func: ast.FunctionDef) -> bool:
    for deco in func.decorator_list:
        name = _base_name(deco)
        if name in {"abstractmethod", "abstractproperty"}:
            return True
    return False


class _Registry:
    """All classes in the file set, with program detection and MRO walking."""

    def __init__(self, infos: list[ProgramInfo]) -> None:
        self.by_name: dict[str, ProgramInfo] = {}
        for info in infos:
            # Last definition wins on (rare) name collisions; the contract
            # vocabulary of this tree is collision-free in practice.
            self.by_name[info.name] = info
        program_names = set(PROGRAM_ROOT_BASES)
        changed = True
        while changed:
            changed = False
            for info in infos:
                if not info.is_program and any(base in program_names for base in info.bases):
                    info.is_program = True
                    if info.name not in program_names:
                        program_names.add(info.name)
                        changed = True
        self.programs = [info for info in infos if info.is_program]

    def chain(self, info: ProgramInfo) -> "list[ProgramInfo]":
        """The resolvable single-inheritance chain, most-derived first."""
        out = [info]
        seen = {info.name}
        current = info
        while True:
            parent = None
            for base in current.bases:
                candidate = self.by_name.get(base)
                if candidate is not None and candidate.name not in seen:
                    parent = candidate
                    break
            if parent is None:
                return out
            out.append(parent)
            seen.add(parent.name)
            current = parent

    def resolve_decl(self, info: ProgramInfo, attr: str) -> tuple[Any, ProgramInfo | None, int]:
        for cls in self.chain(info):
            if attr in cls.decls:
                value, lineno = cls.decls[attr]
                return value, cls, lineno
        return CONTRACT_DEFAULTS[attr], None, info.lineno

    def resolve_method(self, info: ProgramInfo, name: str) -> "tuple[ast.FunctionDef, ProgramInfo] | None":
        for cls in self.chain(info):
            method = cls.methods.get(name)
            if method is not None:
                if _is_abstract(method):
                    return None
                return method, cls
        return None


# ----------------------------------------------------------- method scanning
def _dotted_root(node: ast.expr) -> tuple[str, list[str]]:
    """``a.b.c`` -> ("a", ["b", "c"]); non-name roots return ("", [])."""
    attrs: list[str] = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return node.id, list(reversed(attrs))
    return "", []


def _site(node: ast.AST) -> tuple[int, int]:
    return (node.lineno, node.col_offset)


def _add_site(sites: dict[Any, list[tuple[int, int]]], key: Any, node: ast.AST) -> None:
    sites.setdefault(key, []).append(_site(node))


def _const_key(node: ast.expr) -> tuple[bool, Any]:
    """A hashable constant key, if the expression is one."""
    if isinstance(node, ast.Constant):
        return True, node.value
    return False, None


class _MethodScanner(ast.NodeVisitor):
    """Scan one program method for contract-relevant accesses.

    ``role`` is ``"run"`` or ``"apply"``; the scanner records into the
    facts object and keeps two pieces of local flow state: aliases of
    ``shared[key]`` subscripts (for apply-write detection) and names bound
    to unordered sets (for the RP105 iteration hazard).
    """

    def __init__(self, facts: ProgramFacts, role: str, func: ast.FunctionDef) -> None:
        self.facts = facts
        self.role = role
        args = [a.arg for a in func.args.posonlyargs + func.args.args]
        if args and args[0] in {"self", "cls"}:
            args = args[1:]
        if role == "run":
            # run(self, ctx, inbox, shared)
            self.ctx_name = args[0] if len(args) > 0 else "ctx"
            self.inbox_name = args[1] if len(args) > 1 else "inbox"
            self.shared_name = args[2] if len(args) > 2 else "shared"
        else:
            # apply(self, shared, machine_id, delta)
            self.ctx_name = ""
            self.inbox_name = ""
            self.shared_name = args[0] if len(args) > 0 else "shared"
        #: local name -> shared key it aliases (``labels = shared["labels"]``)
        self.aliases: dict[str, Any] = {}
        #: local names currently bound to unordered sets
        self.set_vars: set[str] = set()

    # ------------------------------------------------------------- recording
    def _record_shared_access(self, key_node: ast.expr, node: ast.AST, *, write: bool) -> Any:
        constant, key = _const_key(key_node)
        if self.role == "run":
            if constant:
                _add_site(self.facts.run_shared_sites, key, node)
            else:
                self.facts.run_dynamic_shared.append(_site(node))
        else:
            if constant:
                _add_site(self.facts.apply_access_sites, key, node)
                if write:
                    _add_site(self.facts.apply_write_sites, key, node)
            else:
                self.facts.apply_dynamic.append(_site(node))
        return key if constant else None

    def _record_apply_write(self, key: Any, node: ast.AST) -> None:
        if self.role == "apply" and key is not None:
            _add_site(self.facts.apply_write_sites, key, node)

    def _record_hazard(self, node: ast.AST, what: str, hint: str) -> None:
        self.facts.hazards.append((*_site(node), what, hint, self.role))

    # ----------------------------------------------------------- set tracking
    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"}
        ):
            return True
        if isinstance(node, ast.Name) and node.id in self.set_vars:
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            # set algebra (a - b, a | b) keeps set-ness when a side is a set
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if self._is_set_expr(iter_node):
            self._record_hazard(
                iter_node,
                "iterates an unordered set — iteration order differs between runs and feeds "
                "sends/deltas nondeterministically",
                "wrap the iterable in sorted(...)",
            )

    # --------------------------------------------------------------- visitors
    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            value = node.value
            if (
                isinstance(value, ast.Subscript)
                and isinstance(value.value, ast.Name)
                and value.value.id == self.shared_name
            ):
                constant, key = _const_key(value.slice)
                if constant:
                    self.aliases[name] = key
                self.set_vars.discard(name)
            elif self._is_set_expr(value):
                self.set_vars.add(name)
                self.aliases.pop(name, None)
            else:
                self.set_vars.discard(name)
                self.aliases.pop(name, None)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        value = node.value
        is_write = isinstance(node.ctx, (ast.Store, ast.Del))
        if isinstance(value, ast.Name):
            if value.id == self.shared_name:
                self._record_shared_access(node.slice, node, write=is_write)
            elif is_write and value.id in self.aliases:
                # labels[w] = ... where labels = shared["labels"]
                self._record_apply_write(self.aliases[value.id], node)
        elif (
            isinstance(value, ast.Subscript)
            and isinstance(value.value, ast.Name)
            and value.value.id == self.shared_name
            and is_write
        ):
            # shared["frontier"][machine_id] = ... — the inner
            # subscript is a Load; the write lands on the outer one.
            constant, key = _const_key(value.slice)
            if constant:
                self._record_apply_write(key, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            # shared.get(key[, default]) / shared.keys() / shared.items()
            if isinstance(owner, ast.Name) and owner.id == self.shared_name:
                if func.attr == "get" and node.args:
                    self._record_shared_access(node.args[0], node, write=False)
                elif func.attr in {"keys", "items", "values"}:
                    target = self.facts.run_dynamic_shared if self.role == "run" else self.facts.apply_dynamic
                    target.append(_site(node))
            # ctx.load(key[, default]) — the ("adj", v) tuple convention
            elif isinstance(owner, ast.Name) and owner.id == self.ctx_name and func.attr == "load":
                if node.args:
                    self._scan_store_load(node.args[0], node)
            # *.send_many(tag, sends) stages one message per element *in
            # iteration order*: a set handed over directly is as much an
            # unordered iteration as a ``for`` loop of sends over it.
            elif func.attr == "send_many":
                sends = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "sends"), None
                )
                if sends is not None:
                    self._check_iteration(sends)
            # mutator through an alias: labels.update(...), or directly on a
            # subscript: shared["free_adj"].update(...)
            elif func.attr in _MUTATORS:
                if isinstance(owner, ast.Name) and owner.id in self.aliases:
                    self._record_apply_write(self.aliases[owner.id], node)
                elif (
                    isinstance(owner, ast.Subscript)
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id == self.shared_name
                ):
                    constant, key = _const_key(owner.slice)
                    if constant:
                        self._record_apply_write(key, node)
        self._scan_hazard_call(node)
        self.generic_visit(node)

    def _scan_store_load(self, key_node: ast.expr, node: ast.AST) -> None:
        if isinstance(key_node, ast.Tuple) and key_node.elts:
            constant, prefix = _const_key(key_node.elts[0])
        else:
            constant, prefix = _const_key(key_node)
        if constant:
            _add_site(self.facts.store_prefix_sites, prefix, node)
        else:
            self.facts.store_dynamic.append(_site(node))

    def _scan_hazard_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _HAZARD_BUILTINS:
            self._record_hazard(
                node,
                f"calls {func.id}() — {'object addresses differ per process' if func.id == 'id' else 'str/bytes hashes are PYTHONHASHSEED-randomized per process'}",
                "derive the value from stable program/shared state instead",
            )
            return
        root, attrs = _dotted_root(func)
        if root in _HAZARD_MODULES:
            self._record_hazard(
                node,
                f"calls {'.'.join([root, *attrs])}() — per-process/wall-clock state",
                "thread a seed or round number through shared state (see the matching mixer)",
            )
        elif root == "os" and attrs[:1] != ["path"]:
            self._record_hazard(
                node,
                f"calls os.{'.'.join(attrs)}() — environment/process state differs per worker",
                "pass the value in as program state instead",
            )
        elif root == "datetime" and attrs and attrs[-1] in {"now", "utcnow", "today"}:
            self._record_hazard(
                node,
                f"calls {'.'.join([root, *attrs])}() — wall-clock reads diverge across backends",
                "stamp times driver-side, outside program code",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        root, attrs = _dotted_root(node)
        if root == "os" and attrs and attrs[0] == "environ":
            self._record_hazard(
                node,
                "reads os.environ — worker processes see their own environment",
                "resolve environment configuration driver-side and pass it as program state",
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self.role == "run" and node.id == self.inbox_name and isinstance(node.ctx, ast.Load):
            self.facts.inbox_sites.append(_site(node))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)


# ---------------------------------------------------------------- init checks
def _scan_init(info: ProgramInfo, init: ast.FunctionDef, init_owner: ProgramInfo) -> list[Finding]:
    findings: list[Finding] = []
    params = {a.arg for a in init.args.posonlyargs + init.args.args} - {"self"}
    suspicious = params & _UNPICKLABLE_PARAM_NAMES
    for stmt in ast.walk(init):
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = stmt.value
            if isinstance(value, ast.Lambda):
                findings.append(
                    Finding(
                        "RP106",
                        init_owner.path,
                        stmt.lineno,
                        stmt.col_offset,
                        info.name,
                        f"{info.name}.__init__ stores a lambda on self.{target.attr} — "
                        "lambdas cannot be pickled, so the program cannot reach a worker process",
                        hint="hoist the function to module level and store a reference to it",
                    )
                )
                continue
            root, _ = _dotted_root(value)
            if root in suspicious:
                findings.append(
                    Finding(
                        "RP106",
                        init_owner.path,
                        stmt.lineno,
                        stmt.col_offset,
                        info.name,
                        f"{info.name}.__init__ stores the runtime object parameter {root!r} on "
                        f"self.{target.attr} — programs must hold only plain picklable constants "
                        "(owner maps, worker ids, seeds), never cluster/machine/graph references",
                        hint="extract the picklable facts you need in the driver and pass those instead",
                    )
                )
    return findings


# ----------------------------------------------------------------- rule logic
def _format_key(key: Any) -> str:
    return repr(key)


def _format_keys(keys: Iterable[Any]) -> str:
    return "[" + ", ".join(sorted(map(repr, keys))) + "]"


def _check_program(registry: _Registry, info: ProgramInfo) -> "tuple[ProgramFacts | None, list[Finding]]":
    findings: list[Finding] = []

    if info.in_function:
        findings.append(
            Finding(
                "RP106",
                info.path,
                info.lineno,
                info.col,
                info.name,
                f"program class {info.name} is defined inside a function — the class is not "
                "importable by worker processes, so the program cannot be pickled",
                hint="move the class to module level",
            )
        )

    resolved_run = registry.resolve_method(info, "run")
    if resolved_run is None:
        # Abstract/base scaffolding (SuperstepProgram, VertexProgram): no
        # concrete run anywhere in the chain, nothing to check against.
        return None, findings
    run_func, run_owner = resolved_run

    shared_reads, _, _ = registry.resolve_decl(info, "shared_reads")
    store_reads, _, _ = registry.resolve_decl(info, "store_reads")
    shared_writes, _, _ = registry.resolve_decl(info, "shared_writes")
    delta_scope, scope_owner, scope_line = registry.resolve_decl(info, "delta_scope")
    reads_inbox, _, _ = registry.resolve_decl(info, "reads_inbox")

    facts = ProgramFacts(
        info=info,
        shared_reads=shared_reads,
        store_reads=store_reads,
        shared_writes=shared_writes,
        delta_scope=delta_scope,
        reads_inbox=reads_inbox,
    )

    scanner = _MethodScanner(facts, "run", run_func)
    for stmt in run_func.body:
        scanner.visit(stmt)

    driver_reads_sends, drs_owner, drs_line = registry.resolve_decl(info, "driver_reads_sends")

    resolved_apply = registry.resolve_method(info, "apply")
    apply_owner = None
    if resolved_apply is not None:
        apply_func, apply_owner = resolved_apply
        apply_scanner = _MethodScanner(facts, "apply", apply_func)
        for stmt in apply_func.body:
            apply_scanner.visit(stmt)

    resolved_init = registry.resolve_method(info, "__init__")
    if resolved_init is not None:
        findings.extend(_scan_init(info, *resolved_init))

    run_path, apply_path = run_owner.path, apply_owner.path if apply_owner else info.path

    # RP101 — undeclared shared reads in run.
    if shared_reads is not _UNKNOWN:
        declared_reads = set(shared_reads or ())
        for key, sites in sorted(facts.run_shared_sites.items(), key=lambda kv: repr(kv[0])):
            if key not in declared_reads:
                line, col = sites[0]
                findings.append(
                    Finding(
                        "RP101",
                        run_path,
                        line,
                        col,
                        info.name,
                        f"{info.name}.run reads shared[{_format_key(key)}] but shared_reads "
                        f"declares only {_format_keys(declared_reads)} — the read works "
                        "in-process and raises KeyError inside a worker",
                        hint=f"add {_format_key(key)} to {info.name}.shared_reads",
                    )
                )
        for line, col in facts.run_dynamic_shared:
            findings.append(
                Finding(
                    "RP101",
                    run_path,
                    line,
                    col,
                    info.name,
                    f"{info.name}.run accesses shared with a non-constant key — the analyzer "
                    "cannot prove the key is declared, and workers only receive the declared slice",
                    hint="read shared through constant keys so the contract stays checkable",
                )
            )

    # RP102 — undeclared store loads in run (store_reads=None ships everything).
    if store_reads is not _UNKNOWN and store_reads is not None:
        declared_prefixes = set(store_reads)
        for prefix, sites in sorted(facts.store_prefix_sites.items(), key=lambda kv: repr(kv[0])):
            if prefix not in declared_prefixes:
                line, col = sites[0]
                findings.append(
                    Finding(
                        "RP102",
                        run_path,
                        line,
                        col,
                        info.name,
                        f"{info.name}.run loads store keys with prefix {_format_key(prefix)} but "
                        f"store_reads declares only {_format_keys(declared_prefixes)} — a "
                        "worker's shipped store slice silently returns the default",
                        hint=f"add {_format_key(prefix)} to {info.name}.store_reads",
                    )
                )
        for line, col in facts.store_dynamic:
            findings.append(
                Finding(
                    "RP102",
                    run_path,
                    line,
                    col,
                    info.name,
                    f"{info.name}.run calls ctx.load with a key whose prefix is not a constant — "
                    "the analyzer cannot check it against store_reads",
                    hint='use the ("prefix", id) tuple convention with a literal prefix',
                )
            )

    # RP103 — apply touching keys outside shared_reads + shared_writes.
    if shared_reads is not _UNKNOWN and shared_writes is not _UNKNOWN:
        session_keys = set(shared_reads or ()) | set(shared_writes or ())
        for key, sites in sorted(facts.apply_access_sites.items(), key=lambda kv: repr(kv[0])):
            if key not in session_keys:
                line, col = sites[0]
                findings.append(
                    Finding(
                        "RP103",
                        apply_path,
                        line,
                        col,
                        info.name,
                        f"{info.name}.apply touches shared[{_format_key(key)}] but "
                        f"shared_reads + shared_writes declare only {_format_keys(session_keys)} "
                        "— resident sessions will not ship the key before replaying the delta",
                        hint=f"add {_format_key(key)} to {info.name}.shared_writes",
                    )
                )
        for line, col in facts.apply_dynamic:
            findings.append(
                Finding(
                    "RP103",
                    apply_path,
                    line,
                    col,
                    info.name,
                    f"{info.name}.apply accesses shared with a non-constant key — the analyzer "
                    "cannot prove it stays inside shared_reads + shared_writes",
                    hint="touch shared through constant keys so the contract stays checkable",
                )
            )

    # RP104 — delta scope narrower than the writes warrant (stale-copy bug).
    if delta_scope is not _UNKNOWN:
        scope_path = scope_owner.path if scope_owner else info.path
        if delta_scope not in VALID_DELTA_SCOPES:
            findings.append(
                Finding(
                    "RP104",
                    scope_path,
                    scope_line,
                    info.col,
                    info.name,
                    f"{info.name}.delta_scope is {delta_scope!r} — not one of "
                    f"{sorted(VALID_DELTA_SCOPES)}",
                    hint='use "global" (always safe), "owner" or "driver"',
                )
            )
        elif delta_scope == "driver":
            stale = facts.apply_writes & facts.run_shared_reads
            for key in sorted(stale, key=repr):
                line, col = facts.apply_write_sites[key][0]
                findings.append(
                    Finding(
                        "RP104",
                        apply_path,
                        line,
                        col,
                        info.name,
                        f"{info.name} declares delta_scope='driver' (apply's writes feed driver "
                        f"decisions only) but apply writes shared[{_format_key(key)}], which "
                        f"{info.name}.run reads — resident workers would read a stale copy",
                        hint='widen delta_scope to "owner" or "global"',
                    )
                )

    # RP105 — determinism hazards.
    seen_hazards: set[tuple[int, int, str]] = set()
    for line, col, what, hint, role in facts.hazards:
        if (line, col, what) in seen_hazards:
            continue
        seen_hazards.add((line, col, what))
        findings.append(
            Finding(
                "RP105",
                run_path if role == "run" else apply_path,
                line,
                col,
                info.name,
                f"{info.name}.{role} {what}",
                hint=hint,
            )
        )

    # RP107 — declared-but-never-touched keys (over-shipping).
    if (
        shared_reads is not _UNKNOWN
        and shared_writes is not _UNKNOWN
        and not facts.run_dynamic_shared
        and not facts.apply_dynamic
    ):
        for key in shared_reads or ():
            if key not in facts.run_shared_reads and key not in facts.apply_accesses:
                findings.append(
                    Finding(
                        "RP107",
                        info.path,
                        info.lineno,
                        info.col,
                        info.name,
                        f"{info.name} declares shared_reads key {_format_key(key)} but neither "
                        "run nor apply ever reads it — resident sessions ship it every round for nothing",
                        hint=f"drop {_format_key(key)} from shared_reads",
                    )
                )
        for key in shared_writes or ():
            if key not in facts.apply_accesses and key not in facts.apply_writes:
                findings.append(
                    Finding(
                        "RP107",
                        info.path,
                        info.lineno,
                        info.col,
                        info.name,
                        f"{info.name} declares shared_writes key {_format_key(key)} but apply "
                        "never touches it — resident sessions ship it every round for nothing",
                        hint=f"drop {_format_key(key)} from shared_writes",
                    )
                )
    if store_reads not in (_UNKNOWN, None) and not facts.store_dynamic:
        for prefix in store_reads:
            if prefix not in facts.store_prefixes:
                findings.append(
                    Finding(
                        "RP107",
                        info.path,
                        info.lineno,
                        info.col,
                        info.name,
                        f"{info.name} declares store_reads prefix {_format_key(prefix)} but run "
                        "never loads it — workers receive (and cache) store slices for nothing",
                        hint=f"drop {_format_key(prefix)} from store_reads",
                    )
                )

    # RP110 — worker-drivable sends declaration contradicting the delta
    # scope.  driver_reads_sends = False promises the driver never reads the
    # program's sends (the fusion precondition), but a delta_scope = "driver"
    # program's writes feed driver decisions only, so it cannot join a
    # worker-driven fused block; the contradiction means one of the
    # declarations is wrong.
    if driver_reads_sends is False and delta_scope == "driver":
        findings.append(
            Finding(
                "RP110",
                drs_owner.path if drs_owner else info.path,
                drs_line,
                info.col,
                info.name,
                f"{info.name} declares driver_reads_sends = False (worker-drivable, "
                "fusable into a worker-driven block) but delta_scope = 'driver' — "
                "driver-scoped deltas feed driver decisions only, so the program "
                "cannot self-apply at the workers inside a fused block",
                hint='widen delta_scope to "owner" or "global", or declare '
                "driver_reads_sends = True / remove the declaration",
            )
        )

    # RP108 — inbox declared unread but referenced.
    if reads_inbox is not _UNKNOWN and reads_inbox is False and facts.inbox_sites:
        line, col = facts.inbox_sites[0]
        findings.append(
            Finding(
                "RP108",
                run_path,
                line,
                col,
                info.name,
                f"{info.name} declares reads_inbox = False but run references its inbox argument — "
                "resident sessions drain such inboxes driver-side and hand workers empty ones",
                hint="set reads_inbox = True, or stop reading the inbox",
            )
        )

    return facts, findings


# ----------------------------------------------------- closed-form send scan
def _closed_form_tags(trees: list[tuple[str, ast.Module]]) -> frozenset[str]:
    """Message tags with a registered closed form, for the RP109 scan.

    Two sources are merged: the live registry (importing
    :mod:`repro.dynamic_mpc` runs every protocol module's registrations),
    and ``register_closed_form("tag", ...)`` calls found statically in the
    analyzed files themselves — so lint test fixtures and out-of-tree
    protocol modules are covered without being importable.
    """
    tags: set[str] = set()
    try:
        import repro.dynamic_mpc  # noqa: F401  — registers the protocol closed forms
        from repro.mpc.sizing import registered_closed_forms

        tags.update(registered_closed_forms())
    except Exception:  # pragma: no cover — lint must degrade, not crash
        pass
    for _path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (func.attr if isinstance(func, ast.Attribute) else None)
            if name != "register_closed_form" or not node.args:
                continue
            tag = node.args[0]
            if isinstance(tag, ast.Constant) and isinstance(tag.value, str):
                tags.add(tag.value)
    return frozenset(tags)


def _scan_unsized_sends(path: str, tree: ast.Module, tags: frozenset[str]) -> list[Finding]:
    """RP109 — ``*.send(_, "tag", payload)`` without ``words=`` for a registered tag.

    The fan-out form ``*.send_many(tag, sends)`` has nothing to flag: every
    triple carries its words, there is no unsized batch form.
    """
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "send") or len(node.args) < 2:
            continue
        tag = node.args[1]
        if not (isinstance(tag, ast.Constant) and isinstance(tag.value, str)) or tag.value not in tags:
            continue
        if any(kw.arg == "words" for kw in node.keywords):
            continue
        findings.append(
            Finding(
                "RP109",
                path,
                node.lineno,
                node.col_offset,
                "<module>",
                f"send of {tag.value!r} has a registered closed form but no words= — "
                "the recursive sizer walks the payload on every send",
                hint=f'size the send with words=closed_form_words("{tag.value}", payload)',
            )
        )
    return findings


# ------------------------------------------------------------------ frontend
def analyze_paths(paths: Iterable[str | Path]) -> AnalysisResult:
    """Lint every ``SuperstepProgram`` subclass reachable under ``paths``."""
    files = collect_python_files(paths)
    infos: list[ProgramInfo] = []
    trees: list[tuple[str, ast.Module]] = []
    errors: list[str] = []
    for path in files:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            errors.append(f"{path}: {exc}")
            continue
        trees.append((str(path), tree))
        infos.extend(_collect_classes(tree, str(path)))

    registry = _Registry(infos)
    findings: list[Finding] = []
    facts: dict[str, ProgramFacts] = {}
    checked = 0
    for info in registry.programs:
        program_facts, program_findings = _check_program(registry, info)
        findings.extend(program_findings)
        if program_facts is not None:
            checked += 1
            facts[info.name] = program_facts

    # RP109 is a whole-file scan, not a program-contract check: any send of a
    # tag with a registered closed form should be sized by it.
    tags = _closed_form_tags(trees)
    if tags:
        for path, tree in trees:
            findings.extend(_scan_unsized_sends(path, tree, tags))

    findings.sort(key=Finding.sort_key)
    return AnalysisResult(
        findings=findings,
        facts=facts,
        files_scanned=len(files),
        programs_checked=checked,
        errors=errors,
    )
