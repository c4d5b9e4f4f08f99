"""Holm–de Lichtenberg–Thorup fully-dynamic connectivity (sequential).

The classic ``O(log^2 n)`` amortized fully-dynamic connectivity algorithm
[Holm, de Lichtenberg, Thorup, JACM 2001] — reference [21] of the paper and
the canonical payload for the Section 7 reduction ("an amortized Õ(1)-round
fully-dynamic DMPC algorithm for connected components").

Structure
---------
Every edge carries a *level* in ``0 .. L`` (``L = ceil(log2 n)``).  For each
level ``i`` a spanning forest ``F_i`` of the edges of level ``>= i`` is
maintained (as an :class:`~repro.seq.ett.EulerTourTree`), with
``F_0 ⊇ F_1 ⊇ ...`` and the invariant that a tree of ``F_i`` has at most
``n / 2^i`` vertices.  Deleting a tree edge at level ``l`` searches levels
``l, l-1, ..., 0`` for a replacement among the non-tree edges of that level
incident to the smaller side, promoting scanned edges one level up so each
edge is scanned ``O(log n)`` times over its lifetime.
"""

from __future__ import annotations

import math

from repro.graph.graph import normalize_edge
from repro.seq.ett import EulerTourTree

__all__ = ["HDTConnectivity"]


class HDTConnectivity:
    """Fully-dynamic connectivity with polylogarithmic amortized update time."""

    def __init__(self, num_vertices: int = 0, *, seed: int = 23) -> None:
        self._seed = seed
        self._max_level = max(1, math.ceil(math.log2(max(num_vertices, 2))))
        self._forests: list[EulerTourTree] = [EulerTourTree(seed=seed + i) for i in range(self._max_level + 1)]
        self._tree_adj: list[dict[int, set[int]]] = [dict() for _ in range(self._max_level + 1)]
        self._nontree_adj: list[dict[int, set[int]]] = [dict() for _ in range(self._max_level + 1)]
        self._edge_level: dict[tuple[int, int], int] = {}
        self._tree_edges: set[tuple[int, int]] = set()
        self.operations = 0
        for v in range(num_vertices):
            self.add_vertex(v)

    # ---------------------------------------------------------------- plumbing
    def _tick(self, amount: int = 1) -> None:
        self.operations += amount

    def _ensure_level(self, level: int) -> None:
        while level >= len(self._forests):
            self._forests.append(EulerTourTree(seed=self._seed + len(self._forests)))
            self._tree_adj.append(dict())
            self._nontree_adj.append(dict())
            self._max_level += 1

    def add_vertex(self, v: int) -> None:
        """Register a vertex on every level's forest (idempotent)."""
        for forest in self._forests:
            forest.add_vertex(v)
        self._tick()

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self._edge_level

    @property
    def num_edges(self) -> int:
        return len(self._edge_level)

    def spanning_forest(self) -> set[tuple[int, int]]:
        """The maintained spanning forest (canonical edge set)."""
        return set(self._tree_edges)

    # ------------------------------------------------------------------ query
    def connected(self, u: int, v: int) -> bool:
        """True iff ``u`` and ``v`` are connected in the current graph."""
        self.add_vertex(u)
        self.add_vertex(v)
        self._tick()
        return self._forests[0].connected(u, v)

    def components(self) -> list[set[int]]:
        """All connected components of the current graph."""
        return self._forests[0].components()

    def num_components(self) -> int:
        return len(self.components())

    # ---------------------------------------------------------------- updates
    def insert(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``.  Returns ``True`` if it became a tree edge."""
        edge = normalize_edge(u, v)
        if edge in self._edge_level:
            raise ValueError(f"edge {edge} already present")
        self.add_vertex(u)
        self.add_vertex(v)
        self._edge_level[edge] = 0
        self._tick(4)
        if not self._forests[0].connected(u, v):
            self._forests[0].link(u, v)
            self._tree_edges.add(edge)
            self._tree_adj[0].setdefault(u, set()).add(v)
            self._tree_adj[0].setdefault(v, set()).add(u)
            return True
        self._nontree_adj[0].setdefault(u, set()).add(v)
        self._nontree_adj[0].setdefault(v, set()).add(u)
        return False

    def delete(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``.  Returns ``True`` if the deletion split a component."""
        edge = normalize_edge(u, v)
        if edge not in self._edge_level:
            raise ValueError(f"edge {edge} not present")
        level = self._edge_level.pop(edge)
        self._tick(4)
        if edge not in self._tree_edges:
            self._nontree_adj[level][u].discard(v)
            self._nontree_adj[level][v].discard(u)
            return False

        # Tree edge: remove from every forest it participates in.
        self._tree_edges.discard(edge)
        self._tree_adj[level][u].discard(v)
        self._tree_adj[level][v].discard(u)
        for i in range(level + 1):
            if self._forests[i].has_edge(u, v):
                self._forests[i].cut(u, v)
                self._tick(2)

        # Search for a replacement from the deleted edge's level downwards.
        for i in range(level, -1, -1):
            if self._find_replacement(u, v, i):
                return False
        return True

    # ----------------------------------------------------------- replacement
    def _find_replacement(self, u: int, v: int, level: int) -> bool:
        """Search level ``level`` for a replacement edge reconnecting u's and v's trees."""
        forest = self._forests[level]
        size_u = forest.tree_size(u)
        size_v = forest.tree_size(v)
        small = u if size_u <= size_v else v
        small_vertices = forest.tree_vertices(small)
        self._tick(len(small_vertices))
        small_set = set(small_vertices)

        # Promote the small side's level-`level` tree edges to level+1 so
        # future searches at this level skip them (the HDT charging scheme).
        self._ensure_level(level + 1)
        for x in small_vertices:
            for y in list(self._tree_adj[level].get(x, ())):
                if x < y or y not in small_set:
                    self._promote_tree_edge(x, y, level)

        # Scan the small side's level-`level` non-tree edges.
        for x in small_vertices:
            for y in list(self._nontree_adj[level].get(x, ())):
                self._tick()
                if y in small_set or forest.connected(x, y):
                    # Both endpoints on the small side: promote the edge.
                    self._promote_nontree_edge(x, y, level)
                    continue
                # Replacement found: it reconnects the two sides on every
                # forest from its level down to 0.
                self._nontree_adj[level][x].discard(y)
                self._nontree_adj[level][y].discard(x)
                edge = normalize_edge(x, y)
                self._tree_edges.add(edge)
                self._tree_adj[level].setdefault(x, set()).add(y)
                self._tree_adj[level].setdefault(y, set()).add(x)
                for i in range(level + 1):
                    if not self._forests[i].connected(x, y):
                        self._forests[i].link(x, y)
                        self._tick(2)
                return True
        return False

    def _promote_tree_edge(self, x: int, y: int, level: int) -> None:
        """Move tree edge ``(x, y)`` from ``level`` to ``level + 1``."""
        edge = normalize_edge(x, y)
        if self._edge_level.get(edge) != level:
            return
        self._edge_level[edge] = level + 1
        self._tree_adj[level][x].discard(y)
        self._tree_adj[level][y].discard(x)
        self._tree_adj[level + 1].setdefault(x, set()).add(y)
        self._tree_adj[level + 1].setdefault(y, set()).add(x)
        if not self._forests[level + 1].connected(x, y):
            self._forests[level + 1].link(x, y)
        self._tick(4)

    def _promote_nontree_edge(self, x: int, y: int, level: int) -> None:
        """Move non-tree edge ``(x, y)`` from ``level`` to ``level + 1``."""
        edge = normalize_edge(x, y)
        if self._edge_level.get(edge) != level:
            return
        self._edge_level[edge] = level + 1
        self._nontree_adj[level][x].discard(y)
        self._nontree_adj[level][y].discard(x)
        self._nontree_adj[level + 1].setdefault(x, set()).add(y)
        self._nontree_adj[level + 1].setdefault(y, set()).add(x)
        self._tick(4)
