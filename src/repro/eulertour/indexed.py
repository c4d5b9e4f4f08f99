"""Index-arithmetic Euler-tour forest (the paper's distributed representation).

Instead of storing tours explicitly, every vertex ``v`` stores only the set
``index_v`` of positions at which it appears in the tour of its tree, plus
the identifier of its component.  ``f(v) = min(index_v)`` and
``l(v) = max(index_v)`` (0 for singletons).  The three operations of
Section 5 become *index arithmetic* parameterised by a constant number of
scalars, which is what makes the distributed algorithm possible: on an
update, the endpoints broadcast those scalars (``f(x)``, ``l(y)``, tour
lengths, component identifiers) and every machine rewrites the indexes of
the vertices it stores locally, with no further communication.

The arithmetic (with ``L_T`` the tour length of tree ``T``):

* **reroot(T, r)** — every index ``i`` of every vertex of ``T`` becomes
  ``((i - l(r)) mod L_T) + 1``.
* **link(x, y)** (``y`` made a child of ``x``; ``T_y`` already rerooted at
  ``y``) — indexes of ``T_y`` shift by ``f(x) + 2``; indexes of ``T_x``
  greater than ``f(x)`` shift by ``L_{T_y} + 4``; ``x`` gains
  ``{f(x)+1, f(x)+L_{T_y}+4}`` and ``y`` gains ``{f(x)+2, f(x)+L_{T_y}+3}``.
  (The paper's Section 5 text has a typo here — it says the suffix shifts by
  ``4·L_{T_y}`` — the worked example of Figure 1 uses ``L_{T_y} + 4``,
  which is what we implement.)
* **cut(x, y)** (``x`` the ancestor) — ``x`` loses indexes ``f(y)-1`` and
  ``l(y)+1``; ``y`` loses ``f(y)`` and ``l(y)``; every index ``i`` of a
  descendant of ``y`` becomes ``i - f(y)``; every index ``i > l(y)+1`` of a
  remaining vertex of ``T_x`` becomes ``i - (l(y) - f(y) + 3)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.graph.graph import normalize_edge

__all__ = ["VertexTourState", "IndexedEulerTourForest"]


@dataclass
class VertexTourState:
    """Per-vertex tour state — exactly what one machine stores for one vertex."""

    vertex: int
    component: int
    indexes: set[int] = field(default_factory=set)

    @property
    def first(self) -> int:
        """``f(v)``: 1-indexed first appearance, 0 for a singleton."""
        return min(self.indexes) if self.indexes else 0

    @property
    def last(self) -> int:
        """``l(v)``: 1-indexed last appearance, 0 for a singleton."""
        return max(self.indexes) if self.indexes else 0

    def dmpc_words(self) -> int:
        return 3 + len(self.indexes)


class IndexedEulerTourForest:
    """Forest maintained purely through per-vertex index sets.

    The class keeps a vertex → :class:`VertexTourState` map plus per-component
    membership and tour length.  The distributed algorithm shards the vertex
    map across machines; membership/length bookkeeping is derivable from the
    broadcast scalars so it needs no extra communication.
    """

    def __init__(self, vertices: Iterable[int] = ()) -> None:
        self._state: dict[int, VertexTourState] = {}
        self._members: dict[int, set[int]] = {}
        self._length: dict[int, int] = {}
        self._tree_edges: set[tuple[int, int]] = set()
        self._next_comp = 0
        for v in vertices:
            self.add_vertex(v)

    # ---------------------------------------------------------------- vertices
    def add_vertex(self, v: int) -> None:
        if v in self._state:
            return
        comp = self._next_comp
        self._next_comp += 1
        self._state[v] = VertexTourState(vertex=v, component=comp)
        self._members[comp] = {v}
        self._length[comp] = 0

    def __contains__(self, v: int) -> bool:
        return v in self._state

    @property
    def vertices(self) -> list[int]:
        return sorted(self._state)

    def state(self, v: int) -> VertexTourState:
        """The tour state of vertex ``v`` (what its machine stores)."""
        return self._state[v]

    # -------------------------------------------------------------- components
    def component_of(self, v: int) -> int:
        return self._state[v].component

    def component_vertices(self, v: int) -> set[int]:
        return set(self._members[self._state[v].component])

    def components(self) -> list[set[int]]:
        return [set(m) for m in self._members.values()]

    def connected(self, u: int, v: int) -> bool:
        return self._state[u].component == self._state[v].component

    def tour_length(self, v: int) -> int:
        return self._length[self._state[v].component]

    def first_appearance(self, v: int) -> int:
        return self._state[v].first

    def last_appearance(self, v: int) -> int:
        return self._state[v].last

    def indexes(self, v: int) -> list[int]:
        return sorted(self._state[v].indexes)

    def tree_edges(self) -> set[tuple[int, int]]:
        return set(self._tree_edges)

    def has_tree_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self._tree_edges

    def root(self, v: int) -> int:
        """The vertex of ``v``'s component whose first appearance is 1."""
        comp = self._state[v].component
        members = self._members[comp]
        if len(members) == 1:
            return v
        for w in members:
            if self._state[w].first == 1:
                return w
        raise AssertionError("no root found — tour indexes are corrupted")

    def is_ancestor(self, u: int, v: int) -> bool:
        if not self.connected(u, v):
            return False
        if u == v:
            return True
        su, sv = self._state[u], self._state[v]
        if not su.indexes or not sv.indexes:
            return False
        return su.first < sv.first and su.last > sv.last

    def is_descendant_of(self, w: int, y: int) -> bool:
        """True iff ``w`` lies in the subtree rooted at ``y`` (``w == y`` counts)."""
        if w == y:
            return True
        return self.is_ancestor(y, w)

    def tour(self, v: int) -> list[int]:
        """Reconstruct the explicit tour from the index sets (for testing)."""
        comp = self._state[v].component
        length = self._length[comp]
        positions: list[int | None] = [None] * length
        for w in self._members[comp]:
            for i in self._state[w].indexes:
                if not 1 <= i <= length:
                    raise AssertionError(f"index {i} of vertex {w} out of range 1..{length}")
                if positions[i - 1] is not None:
                    raise AssertionError(f"position {i} claimed by both {positions[i-1]} and {w}")
                positions[i - 1] = w
        if any(p is None for p in positions):
            raise AssertionError("tour has unclaimed positions — index sets are inconsistent")
        return [p for p in positions if p is not None]

    # -------------------------------------------------------------- operations
    def reroot(self, r: int) -> None:
        """Make ``r`` the root of its tree via the modular index shift."""
        comp = self._state[r].component
        length = self._length[comp]
        if length == 0:
            return
        l_r = self._state[r].last
        if self._state[r].first == 1:
            return  # already the root
        for w in self._members[comp]:
            state = self._state[w]
            state.indexes = {((i - l_r) % length) + 1 for i in state.indexes}

    def link(self, x: int, y: int) -> None:
        """Insert tree edge ``(x, y)`` making ``y`` a child of ``x``."""
        if x not in self._state:
            self.add_vertex(x)
        if y not in self._state:
            self.add_vertex(y)
        if self.connected(x, y):
            raise ValueError(f"link({x}, {y}): endpoints already connected")
        self.reroot(y)
        comp_x = self._state[x].component
        comp_y = self._state[y].component
        len_y = self._length[comp_y]
        # Attachment offset: x's first appearance, rounded down to the arc
        # boundary (a root's first appearance is position 1, in which case
        # the subtree is attached at the very start of the tour).
        f_x = self._state[x].first
        if f_x % 2 == 1:
            f_x -= 1

        # Shift the suffix of T_x (indexes strictly greater than f(x)).
        for w in self._members[comp_x]:
            state = self._state[w]
            state.indexes = {i + len_y + 4 if i > f_x else i for i in state.indexes}
        # Shift the whole of T_y by f(x) + 2.
        for w in self._members[comp_y]:
            state = self._state[w]
            state.indexes = {i + f_x + 2 for i in state.indexes}
            state.component = comp_x
        # Add the four new positions contributed by edge (x, y).
        self._state[x].indexes.update({f_x + 1, f_x + len_y + 4})
        self._state[y].indexes.update({f_x + 2, f_x + len_y + 3})

        self._members[comp_x] |= self._members[comp_y]
        self._length[comp_x] += len_y + 4
        del self._members[comp_y]
        del self._length[comp_y]
        self._tree_edges.add(normalize_edge(x, y))

    def link_all(self, edges: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
        """Seed an edgeless forest from ``edges`` in one pass; returns the tree edges.

        Equivalent to ``link(u, v)`` for every pair of ``edges``, in order,
        whose endpoints are not yet connected — same tree edges, same
        component identifiers and same root per tree (``link`` hangs ``v``'s
        tree below ``u``, so a merged tree keeps the root, and with it the
        identifier, of ``u``'s side) — but each tour is laid out by one
        traversal from its root instead of one rewrite of both trees per
        link.  Only the order of a vertex's children in the tour may differ.

        The edge ``(p, c)`` whose block starts at position ``b`` gives ``p``
        the indexes ``b`` and ``b + 4·size(c) − 1`` and ``c`` the indexes
        ``b + 1`` and ``b + 4·size(c) − 2``; ``c``'s own children start at
        ``b + 2``, the next sibling at ``b + 4·size(c)``, a root's first
        block at 1.
        """
        if self._tree_edges:
            raise ValueError("link_all: the forest already has tree edges")
        # Union-find whose representative is the root of the set's tour.
        rep: dict[int, int] = {}

        def find(v: int) -> int:
            r = rep.setdefault(v, v)
            while rep[r] != r:
                rep[r] = rep[rep[r]]  # path halving
                r = rep[r]
            return r

        children: dict[int, list[int]] = {}
        tree_edges: set[tuple[int, int]] = set()
        for (u, v) in edges:
            self.add_vertex(u)
            self.add_vertex(v)
            root_u, root_v = find(u), find(v)
            if root_u == root_v:
                continue
            rep[root_v] = root_u
            children.setdefault(u, []).append(v)
            children.setdefault(v, []).append(u)
            tree_edges.add(normalize_edge(u, v))

        state = self._state
        for root in [v for v in children if rep[v] == v]:
            # Parents before children (dropping each vertex's parent from its
            # adjacency), then subtree sizes bottom-up.
            order = [root]
            for p in order:
                for c in children[p]:
                    children[c].remove(p)
                order.extend(children[p])
            size = dict.fromkeys(order, 1)
            for p in reversed(order):
                for c in children[p]:
                    size[p] += size[c]
            # Positions top-down: ``start[p]`` is where p's first child block begins.
            start = {root: 1}
            for p in order:
                b = start[p]
                p_indexes = state[p].indexes
                for c in children[p]:
                    end = b + 4 * size[c]
                    p_indexes.update((b, end - 1))
                    state[c].indexes.update((b + 1, end - 2))
                    start[c] = b + 2
                    b = end
            # The tree keeps the root's component; the other singletons dissolve into it.
            comp = state[root].component
            for c in order[1:]:
                del self._members[state[c].component], self._length[state[c].component]
                state[c].component = comp
            self._members[comp].update(order)
            self._length[comp] = 4 * (len(order) - 1)
        self._tree_edges = tree_edges
        return self.tree_edges()

    def cut(self, x: int, y: int) -> int:
        """Delete tree edge ``(x, y)``; returns the new component's identifier."""
        edge = normalize_edge(x, y)
        if edge not in self._tree_edges:
            raise ValueError(f"cut({x}, {y}): not a tree edge")
        if not self.is_ancestor(x, y):
            x, y = y, x
        comp = self._state[x].component
        f_y = self._state[y].first
        l_y = self._state[y].last
        span = l_y - f_y + 1

        # Identify the subtree of y before rewriting any indexes.
        subtree = {w for w in self._members[comp] if self.is_descendant_of(w, y)}

        new_comp = self._next_comp
        self._next_comp += 1

        # Drop the four positions of edge (x, y).
        self._state[x].indexes -= {f_y - 1, l_y + 1}
        self._state[y].indexes -= {f_y, l_y}

        # Subtree of y: shift down so the tour starts at 1.
        for w in subtree:
            state = self._state[w]
            state.indexes = {i - f_y for i in state.indexes}
            state.component = new_comp
        # Remaining vertices of T_x: close the gap.
        shift = span + 2
        for w in self._members[comp] - subtree:
            state = self._state[w]
            state.indexes = {i - shift if i > l_y + 1 else i for i in state.indexes}

        self._members[new_comp] = subtree
        self._members[comp] -= subtree
        self._length[new_comp] = span - 2
        self._length[comp] -= span + 2
        self._tree_edges.discard(edge)
        return new_comp

    # ------------------------------------------------------------- validation
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any inconsistency in the index sets."""
        for comp, members in self._members.items():
            length = self._length[comp]
            assert length == 4 * (len(members) - 1), (
                f"component {comp}: length {length} != 4*({len(members)}-1)"
            )
            total_indexes = sum(len(self._state[w].indexes) for w in members)
            assert total_indexes == length, (
                f"component {comp}: {total_indexes} indexes but tour length {length}"
            )
            # tour() performs the disjointness/coverage checks
            if members:
                self.tour(next(iter(members)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexedEulerTourForest(vertices={len(self._state)}, "
            f"components={len(self._members)})"
        )
