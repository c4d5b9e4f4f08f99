"""Outside-in span tracer: wraps public class methods of ``src/repro`` from here.

A span carries name, start, end, parent and the op id.  A parent stack
yields self times (duration minus the part covered by child spans) that sum
*exactly* to each root span.  Aggregates are kept for every op; full span
lists only for every ``sample_every``-th op, in memory, written by
:meth:`Tracer.write_spans` when the run ends.

What cannot be wrapped from outside — free functions their callers import
by name (``fast_word_size``, ``encode_obj``) and code inside worker
processes — is covered by the direct kernel timings in ``bench/kernels.py``
and the ledger / ``/proc`` counters instead.
"""

from __future__ import annotations

import inspect
import json
import types
from time import perf_counter_ns
from typing import Any, Callable

SAMPLE_EVERY = 50
#: send payloads kept for the direct kernel timings
CAPTURE_LIMIT = 2000
#: inboxes hold live Message objects; keeping many would change the run's memory and GC behaviour
INBOX_LIMIT = 64

_ABSENT = object()


def public_methods(cls: type) -> list[str]:
    """Names of the plain public methods ``cls`` itself defines (no properties, no dunders)."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, types.FunctionType)
    ]


def _forwarding(fn: Callable) -> tuple[str, str, dict[str, Any]]:
    """Source of a parameter list and of the argument list that forwards it to ``fn`` unchanged.

    Default values travel by name (``_t_default_<parameter>``) in the third
    element.  Signatures that cannot be mirrored (``*args``, positional-only,
    builtins) fall back to the generic ``*args, **kwargs`` forwarding.
    """
    generic = ("*args, **kwargs", "*args, **kwargs", {})
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return generic
    parameters, arguments, defaults = [], [], {}
    keyword_only = False
    for parameter in signature.parameters.values():
        if parameter.kind not in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY) or parameter.name.startswith("_t_"):
            return generic
        if parameter.kind is parameter.KEYWORD_ONLY and not keyword_only:
            keyword_only = True
            parameters.append("*")
        text = parameter.name
        if parameter.default is not parameter.empty:
            defaults[f"_t_default_{parameter.name}"] = parameter.default
            text += f"=_t_default_{parameter.name}"
        parameters.append(text)
        arguments.append(f"{parameter.name}={parameter.name}" if keyword_only else parameter.name)
    return ", ".join(parameters), ", ".join(arguments), defaults


#: span kinds: a NESTED span opens a stack frame, so wrapped callees are subtracted from its self
#: time; a LEAF span promises it reaches no wrapped callee and opens none; a COUNTED boundary is
#: only counted, its time stays in the caller's self time (for calls cheaper than a span itself)
NESTED, LEAF, COUNTED = "nested", "leaf", "counted"

#: extra template lines of a ``check_leaves`` tracer: a span opened while a leaf is running breaks
#: the leaf's promise.  ``_t_flags[1]`` holds the running leaf's name (not restored if the leaf
#: raises: such an op has failed anyway)
_LEAF_GUARD = {
    "enter_nested": "if _t_flags[1]: _t_tracer.leaf_violations.add((_t_flags[1], _t_name))",
    "enter_leaf": "if _t_flags[1]: _t_tracer.leaf_violations.add((_t_flags[1], _t_name))\n    _t_flags[1] = _t_name",
    "leave_leaf": "_t_flags[1] = None",
}
_NO_GUARD = dict.fromkeys(_LEAF_GUARD, "pass")

_TEMPLATES = {
    COUNTED: """
def wrapper({parameters}):
    if _t_stack:
        _t_entry[0] += 1
    return _t_fn({arguments})
""",
    LEAF: """
def wrapper({parameters}):
    {enter_leaf}
    _t_start = _t_now()
    _t_result = _t_fn({arguments})
    _t_end = _t_now()
    {leave_leaf}
    if _t_stack:  # outside every root there is no op to attribute the time to
        _t_duration = _t_end - _t_start
        _t_entry[0] += 1
        _t_entry[1] += _t_duration
        _t_entry[2] += _t_duration
        _t_parent = _t_stack[-1]
        _t_parent[0] += _t_duration
        if _t_flags[0]:
            _t_spans.append((_t_tracer._next_span, _t_parent[1], _t_tracer._op_id, _t_name, _t_start, _t_end))
            _t_tracer._next_span += 1
    {observe}
    return _t_result
""",
    NESTED: """
def wrapper({parameters}):
    {enter_nested}
    _t_parent = _t_stack[-1] if _t_stack else None
    if _t_parent is None:
        _t_tracer._op_id += 1
        _t_flags[0] = _t_tracer._op_id % _t_tracer.sample_every == 0
    _t_frame = [0, -1]
    if _t_flags[0]:
        _t_frame[1] = _t_tracer._next_span
        _t_tracer._next_span += 1
    _t_stack.append(_t_frame)
    _t_start = _t_now()
    try:
        _t_result = _t_fn({arguments})
    finally:
        _t_end = _t_now()
        _t_stack.pop()
        _t_duration = _t_end - _t_start
        _t_entry[0] += 1
        _t_entry[1] += _t_duration - _t_frame[0]
        _t_entry[2] += _t_duration
        if _t_frame[1] >= 0:
            _t_spans.append((_t_frame[1], -1 if _t_parent is None else _t_parent[1], _t_tracer._op_id, _t_name, _t_start, _t_end))
        if _t_parent is None:
            _t_tracer._close_op(_t_name, _t_duration)
        else:
            _t_parent[0] += _t_duration
    {observe}
    return _t_result
""",
}


class Tracer:
    """Records spans around every patched method; one instance per traced run."""

    def __init__(self, sample_every: int = SAMPLE_EVERY, check_leaves: bool = False) -> None:
        self.sample_every = sample_every
        #: with ``check_leaves``: (leaf, span opened inside it) pairs.  The self-time identity cannot
        #: see a misdeclared leaf — the callee's time is charged to the leaf and to itself, and the
        #: shared parent's self time shrinks by as much — so the smoke run looks for them instead
        self.leaf_violations: set[tuple[str, str]] = set()
        self._guard = _LEAF_GUARD if check_leaves else _NO_GUARD
        #: root name -> layer name -> [calls, self ns, total ns], summed over every op of that root;
        #: total ns counts a span nested in one of its own name twice — read it only for names that never nest
        self.layers: dict[str, dict[str, list[int]]] = {}
        #: root name -> layer name -> self ns of each op the layer appeared in
        self.per_op: dict[str, dict[str, list[int]]] = {}
        #: root name -> duration ns of each op
        self.roots: dict[str, list[int]] = {}
        #: sampled spans: (span id, parent id or -1, op id, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        #: root name -> counter name -> value; observers bump them, the closing root files them
        self.counts: dict[str, dict[str, int]] = {}
        self.payloads: list[tuple[str, Any]] = []
        self.inboxes: list[list] = []
        self._stack: list[list[int]] = []  # open frames: [child ns, span id]
        #: span name -> [calls, self ns, total ns] of the op in progress, zeroed when its root closes
        self._entries: dict[str, list[int]] = {}
        self._op_counts: dict[str, int] = {}
        self._op_id = 0
        self._flags: list = [False, None]  # [spans of the current op are kept, name of the leaf running]
        self._next_span = 0
        self._patched: list[tuple[type, str, Any]] = []

    # ---------------------------------------------------------------- wrapping
    def wrap(self, fn: Callable, name: str, observe: "Callable | None" = None, kind: str = NESTED) -> Callable:
        """``fn`` with a span named ``name`` around each call.

        ``observe(result, *args, **kwargs)`` — the result, then the call's own
        arguments — runs after the span closed, so its cost lands in the
        caller's self time, never in this layer's; what it :meth:`bump`\\ s
        is filed under the enclosing root, so observed methods must not
        themselves be roots.

        A :data:`LEAF` that does reach a wrapped callee takes the callee's
        time from the parent's self time into its own, and the sum of self
        times still equals the root: only a ``check_leaves`` tracer notices
        (:attr:`leaf_violations`).  Only a nested span can be a root: leaves
        and counted boundaries called outside every root are passed through
        unrecorded.

        The wrapper is generated with ``fn``'s own parameter list (as
        ``dataclasses`` generates ``__init__``): forwarding through
        ``*args, **kwargs`` alone cost as much as all the bookkeeping.
        """
        parameters, arguments, defaults = _forwarding(fn)
        source = _TEMPLATES[kind].format(
            parameters=parameters,
            arguments=arguments,
            observe=f"_t_observe(_t_result, {arguments})" if observe is not None else "pass",
            **self._guard,
        )
        # every name the template uses carries the `_t_` prefix, so no parameter of `fn` can shadow it
        namespace = {
            "_t_fn": fn,
            "_t_name": name,
            "_t_observe": observe,
            "_t_tracer": self,
            "_t_stack": self._stack,
            "_t_spans": self.spans,
            "_t_flags": self._flags,
            "_t_entry": self._entries.setdefault(name, [0, 0, 0]),
            "_t_now": perf_counter_ns,
            **defaults,
        }
        exec(compile(source, f"<bench.trace {kind} span {name}>", "exec"), namespace)
        wrapper = namespace["wrapper"]
        wrapper.__wrapped__ = fn
        return wrapper

    def _close_op(self, root: str, duration: int) -> None:
        self.roots.setdefault(root, []).append(duration)
        layers = self.layers.setdefault(root, {})
        per_op = self.per_op.setdefault(root, {})
        for name, entry in self._entries.items():
            if not entry[0]:
                continue
            total = layers.get(name)
            if total is None:
                layers[name] = list(entry)
            else:
                total[0] += entry[0]
                total[1] += entry[1]
                total[2] += entry[2]
            per_op.setdefault(name, []).append(entry[1])
            entry[0] = entry[1] = entry[2] = 0
        if self._op_counts:
            counts = self.counts.setdefault(root, {})
            for key, value in self._op_counts.items():
                counts[key] = counts.get(key, 0) + value
            self._op_counts.clear()

    def run(self, name: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` inside a span — how the benchmark opens its own roots."""
        return self.wrap(fn, name)(*args)

    def patch(self, owner: type, attr: str, name: str, observe: "Callable | None" = None, kind: str = NESTED) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`uninstall`."""
        self._patched.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, observe, kind))

    def patch_public(self, owner: type, name: str, kind: str = NESTED) -> None:
        """Patch every public method of ``owner`` but the sizing hook ``dmpc_words``: whatever leaf
        sizes a stored or sent object calls it, so its time belongs to that leaf."""
        for attr in public_methods(owner):
            if attr != "dmpc_words":
                self.patch(owner, attr, name, kind=kind)

    def uninstall(self) -> None:
        """Put every patched attribute back exactly as it was."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ reading
    def calls(self, root: str, *names: str) -> int:
        layers = self.layers.get(root, {})
        return sum(layers[name][0] for name in names if name in layers)

    def self_s(self, root: str, *names: str) -> float:
        layers = self.layers.get(root, {})
        return sum(layers[name][1] for name in names if name in layers) / 1e9

    def total_s(self, root: str, name: str) -> float:
        return self.layers.get(root, {}).get(name, (0, 0, 0))[2] / 1e9

    def root_s(self, root: str) -> float:
        return sum(self.roots.get(root, ())) / 1e9

    def bump(self, key: str, amount: int = 1) -> None:
        self._op_counts[key] = self._op_counts.get(key, 0) + amount

    def count(self, root: str, key: str) -> int:
        return self.counts.get(root, {}).get(key, 0)

    def write_spans(self, path: str, summary: dict) -> None:
        """One JSON object per line: the per-op layer summary first, then the sampled spans."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "summary", **summary}) + "\n")
            for span_id, parent, op_id, name, start, end in self.spans:
                record = {"type": "span", "id": span_id, "parent": parent, "op": op_id, "name": name, "start_ns": start, "end_ns": end}
                handle.write(json.dumps(record) + "\n")


# --------------------------------------------------------------- installation
def install(tracer: Tracer, backend_names: tuple[str, ...]) -> None:
    """Patch the layer boundaries of ``src/repro``; span names are the module names."""
    from repro.config import DMPCConfig
    from repro.dynamic_mpc import DynamicMPCAlgorithm
    from repro.eulertour import IndexedEulerTourForest
    from repro.mpc import Cluster, Coordinator, Machine, MetricsLedger, UpdateHistory
    from repro.mpc.layout import MachineCSR, StatsTable, TourShard
    from repro.runtime import ExecutionSession, ResidentSession
    from repro.static_mpc import StaticConnectedComponents
    from repro.static_mpc.connected_components import CSRLabelProposeProgram, LabelApplyProgram

    def saw_send(_message: Any, _machine: Any, _receiver: str, tag: str, payload: Any, words: "int | None") -> None:
        if words is None:
            tracer.bump("unsized_sends")
        if len(tracer.payloads) < CAPTURE_LIMIT:
            tracer.payloads.append((tag, payload))

    def saw_drain(inbox: list, _machine: Any, _tag: "str | None") -> None:
        if inbox and len(tracer.inboxes) < INBOX_LIMIT:
            tracer.inboxes.append(inbox)

    # the concrete backend / transport / storage classes are whatever a cluster of that backend builds;
    # found before anything is patched, so that the probing itself leaves no spans
    backends, transports, storages = set(), set(), set()
    for backend in backend_names:
        cluster = Cluster(DMPCConfig(capacity_n=4, capacity_m=4, backend=backend))
        machine = cluster.add_machine("probe")
        backends.add(type(cluster.backend))
        transports.add(type(machine.transport))
        storages.add(type(machine.storage))  # backends share storage classes: each is patched once

    tracer.patch(DynamicMPCAlgorithm, "apply", "dynamic_mpc")
    tracer.patch(DynamicMPCAlgorithm, "apply_batch", "dynamic_mpc")
    tracer.patch(DynamicMPCAlgorithm, "preprocess", "dynamic_mpc.preprocess")
    # the coalescer and the owner grouping are free functions; this method is their only caller
    tracer.patch(DynamicMPCAlgorithm, "normalize_batch", "graph.coalesce")
    tracer.patch_public(IndexedEulerTourForest, "eulertour")

    tracer.patch(Machine, "send", "mpc.machine.send", saw_send, kind=LEAF)
    # Machine.store / load / delete only delegate to the storage policy, which is wrapped below:
    # a second span per call would double the cost of tracing the hottest path for no information
    tracer.patch(Machine, "receive", "mpc.machine.state", kind=LEAF)
    tracer.patch(Machine, "drain", "mpc.machine.state", saw_drain, kind=LEAF)
    # Cluster.exchange only delegates to the transport (wrapped below); rounds are counted there
    tracer.patch(Cluster, "superstep", "mpc.cluster.superstep")
    tracer.patch(Cluster, "superstep_block", "mpc.cluster.superstep")
    tracer.patch(Coordinator, "send_history", "mpc.coordinator")
    tracer.patch(Coordinator, "record", "mpc.coordinator")
    tracer.patch_public(UpdateHistory, "mpc.coordinator", kind=LEAF)
    # the per-round and per-update ledger calls reach nothing wrapped; the summaries call each other
    ledger_leaves = {"record_round", "append_round", "begin_update", "end_update", "begin_batch", "end_batch", "record_traffic"}
    for attr in public_methods(MetricsLedger):
        tracer.patch(MetricsLedger, attr, "mpc.metrics", kind=LEAF if attr in ledger_leaves else NESTED)
    # the tour and stats tables answer in O(1) from a dict or an array slot: cheaper than the span that would time them
    tracer.patch_public(TourShard, "mpc.layout", kind=COUNTED)
    tracer.patch_public(StatsTable, "mpc.layout", kind=COUNTED)
    tracer.patch_public(MachineCSR, "mpc.layout", kind=LEAF)

    tracer.patch(StaticConnectedComponents, "__init__", "static_mpc.load")
    tracer.patch(StaticConnectedComponents, "run", "static_mpc.run")
    tracer.patch(CSRLabelProposeProgram, "run", "static_mpc.program")
    tracer.patch(LabelApplyProgram, "run", "static_mpc.program")
    tracer.patch(LabelApplyProgram, "apply", "static_mpc.program")

    tracer.patch(ExecutionSession, "close", "runtime.session.close")
    tracer.patch(ResidentSession, "close", "runtime.session.close")
    tracer.patch(ResidentSession, "run_block", "runtime.session.block")
    tracer.patch(ResidentSession, "run_round", "runtime.session.block")
    for backend_cls in backends:
        tracer.patch(backend_cls, "open_session", "runtime.session.open")
    for transport_cls in transports:
        tracer.patch(transport_cls, "exchange", "runtime.transport.exchange")
    for storage_cls in storages:
        for attr in ("store", "delete", "keys", "items", "clear"):
            tracer.patch(storage_cls, attr, "runtime.storage", kind=LEAF)
        # a keyed read costs a fifth of a span: count it, leave its time with the caller
        tracer.patch(storage_cls, "load", "runtime.storage.load", kind=COUNTED)
