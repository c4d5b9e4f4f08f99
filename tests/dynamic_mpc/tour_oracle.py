"""The seed's per-vertex tour store, kept as the oracle the pair-table shards are checked against.

:class:`DictTourStore` is the ``_TourStore`` implementation dynamic
connectivity shipped with before its state moved into one
:class:`~repro.mpc.layout.TourShard` per machine: one ``("tour", v)`` and one
``("edges", v)`` dict per vertex, rewritten key by key.  It shares none of
the shard kernels, so a test runs it in lockstep with the shards by
installing it on a second algorithm before ``preprocess``::

    oracle = DMPCConnectivity(config)
    oracle._tours = DictTourStore(oracle)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.graph.graph import normalize_edge
from repro.mpc.machine import Machine

if TYPE_CHECKING:
    from repro.dynamic_mpc.connectivity import DMPCConnectivity

__all__ = ["DictTourStore"]


class DictTourStore:
    """The seed per-vertex-key layout: ``("tour", v)`` / ``("edges", v)`` dicts.

    The rewrites are the seed implementation, run over every worker — the
    dict layout is the bit-identity baseline the flat layout is
    property-tested against, so a replaced cut stays its two passes here and
    ``subtree_offers`` is the classification half of the cut pass.
    """

    layout = "dict"

    def __init__(self, algo: "DMPCConnectivity") -> None:
        self.algo = algo
        self._workers = algo._workers

    def _machine(self, v: int) -> Machine:
        return self.algo.cluster.machine(self.algo.owner(v))

    # ------------------------------------------------------------------ tours
    def comp_of(self, v: int) -> "int | None":
        state = self._machine(v).load(("tour", v))
        return None if state is None else state["comp"]

    def span(self, v: int) -> "tuple[int, int]":
        indexes = self._machine(v).load(("tour", v))["indexes"]
        return min(indexes, default=0), max(indexes, default=0)

    def create_vertex(self, v: int, comp: int) -> None:
        machine = self._machine(v)
        machine.store(("tour", v), {"comp": comp, "indexes": set()})
        machine.store(("edges", v), {})

    def place_vertex(self, v: int, comp: int, indexes: "set[int]", records: "dict[int, dict]") -> None:
        machine = self._machine(v)
        machine.store(("tour", v), {"comp": comp, "indexes": indexes})
        machine.store(("edges", v), records)

    # ------------------------------------------------------------------ edges
    def edges_of(self, v: int) -> dict:
        return self._machine(v).load(("edges", v), {})

    def store_edge_record(self, v: int, w: int, record: "dict[str, Any]") -> None:
        machine = self._machine(v)
        records = dict(machine.load(("edges", v), {}))
        records[w] = record
        machine.store(("edges", v), records)

    def remove_edge_record(self, v: int, w: int) -> None:
        machine = self._machine(v)
        records = dict(machine.load(("edges", v), {}))
        records.pop(w, None)
        machine.store(("edges", v), records)

    # ------------------------------------------------------------- global reads
    def components(self) -> "list[set[int]]":
        groups: dict[int, set[int]] = {}
        for machine in self._workers:
            for key, value in machine.items():
                if isinstance(key, tuple) and key[0] == "tour":
                    groups.setdefault(value["comp"], set()).add(key[1])
        return list(groups.values())

    def spanning_forest(self) -> "set[tuple[int, int]]":
        forest: set[tuple[int, int]] = set()
        for machine in self._workers:
            for key, value in machine.items():
                if isinstance(key, tuple) and key[0] == "edges":
                    v = key[1]
                    for w, record in value.items():
                        if record.get("tree"):
                            forest.add(normalize_edge(v, w))
        return forest

    def tour_groups(self) -> "dict[int, list[set[int]]]":
        groups: dict[int, list[set[int]]] = {}
        for machine in self._workers:
            for key, state in machine.items():
                if isinstance(key, tuple) and key[0] == "tour":
                    groups.setdefault(state["comp"], []).append(set(state["indexes"]))
        return groups

    def check_pair_index(self) -> None:
        """The per-vertex layout keeps no pair index: there is nothing to match."""

    # --------------------------------------------------------- broadcast sweeps
    def apply_link(self, scalars: dict) -> None:
        comp_x, comp_y = scalars["comp_x"], scalars["comp_y"]
        f_x, l_y, len_y = scalars["f_x"], scalars["l_y"], scalars["len_y"]
        reroot = scalars.get("reroot", True)
        x, y = scalars["x"], scalars["y"]

        def shift_y(i: int) -> int:
            if reroot and len_y > 0:
                i = ((i - l_y) % len_y) + 1
            return i + f_x + 2

        def shift_x(i: int) -> int:
            return i + len_y + 4 if i > f_x else i

        for machine in self._workers:
            for key, state in list(machine.items()):
                if not (isinstance(key, tuple) and key[0] == "tour"):
                    continue
                vertex = key[1]
                indexes = state["indexes"]
                if state["comp"] == comp_y:
                    new_indexes = {shift_y(i) for i in indexes}
                    if vertex == y:
                        new_indexes.update({f_x + 2, f_x + len_y + 3})
                    machine.store(key, {"comp": comp_x, "indexes": new_indexes})
                    self._shift_edge_indexes(machine, vertex, shift_y)
                elif state["comp"] == comp_x:
                    new_indexes = {shift_x(i) for i in indexes}
                    if vertex == x:
                        new_indexes.update({f_x + 1, f_x + len_y + 4})
                    machine.store(key, {"comp": comp_x, "indexes": new_indexes})
                    self._shift_edge_indexes(machine, vertex, shift_x)

    @staticmethod
    def _cut_side(vertex: int, state: dict, cut: dict) -> "tuple[bool, set[int]]":
        """Whether ``vertex`` lies in the subtree ``cut`` splits off, and its indexes without the cut edge's."""
        f_y, l_y = cut["f_y"], cut["l_y"]
        indexes = set(state["indexes"])
        if vertex == cut["x"]:
            indexes -= {f_y - 1, l_y + 1}
        if vertex == cut["y"]:
            indexes -= {f_y, l_y}
        first = min(indexes, default=0)
        last = max(indexes, default=0)
        in_subtree = vertex == cut["y"] or (bool(indexes) and f_y <= first and last <= l_y)
        return in_subtree, indexes

    def apply_cut(self, scalars: dict) -> None:
        comp, new_comp = scalars["comp"], scalars["new_comp"]
        f_y, l_y = scalars["f_y"], scalars["l_y"]
        shift = (l_y - f_y + 1) + 2

        def shift_any(i: int) -> int:
            if f_y <= i <= l_y:
                return i - f_y
            if i > l_y + 1:
                return i - shift
            return i

        for machine in self._workers:
            for key, state in list(machine.items()):
                if not (isinstance(key, tuple) and key[0] == "tour"):
                    continue
                if state["comp"] != comp:
                    continue
                vertex = key[1]
                in_subtree, indexes = self._cut_side(vertex, state, scalars)
                new_indexes = {shift_any(i) for i in indexes}
                machine.store(key, {"comp": new_comp if in_subtree else comp, "indexes": new_indexes})
                self._shift_edge_indexes(machine, vertex, shift_any)

    def apply_cut_link(self, cut: dict, link: dict) -> None:
        """The oracle applies a replaced cut as the two passes the flat layout composes."""
        self.apply_cut(cut)
        self.apply_link(link)

    @staticmethod
    def _shift_edge_indexes(machine: Machine, vertex: int, shift) -> None:
        """Apply an index transformation to the tour pairs cached on ``vertex``'s edge records."""
        records = machine.load(("edges", vertex))
        if not records:
            return
        changed = False
        new_records = {}
        for w, record in records.items():
            indexes = record.get("indexes")
            if record.get("tree") and indexes is not None:
                record = dict(record)
                a, b = shift(indexes[0]), shift(indexes[1])
                record["indexes"] = (a, b) if a <= b else (b, a)
                changed = True
            new_records[w] = record
        if changed:
            machine.store(("edges", vertex), new_records)

    # ------------------------------------------------------------------ scans
    def subtree_offers(self, cuts: "list[dict]") -> "Iterator[tuple[Machine, list[list[tuple[int, int, float]]]]]":
        for machine in self._workers:
            per_cut: "list[list[tuple[int, int, float]]]" = [[] for _ in cuts]
            for key, state in machine.items():
                if not (isinstance(key, tuple) and key[0] == "tour"):
                    continue
                v = key[1]
                for cut, offers in zip(cuts, per_cut):
                    if state["comp"] != cut["comp"] or not self._cut_side(v, state, cut)[0]:
                        continue
                    for w, record in machine.load(("edges", v), {}).items():
                        if not record.get("tree"):
                            offers.append((v, w, float(record.get("weight", 1.0))))
            yield machine, per_cut

    def path_scan_items(self, machine: Machine, comp: int) -> "Iterator[tuple[int, tuple[int, int], dict]]":
        for key, state in machine.items():
            if not (isinstance(key, tuple) and key[0] == "tour"):
                continue
            if state["comp"] != comp:
                continue
            v = key[1]
            yield v, self.span(v), machine.load(("edges", v), {})
