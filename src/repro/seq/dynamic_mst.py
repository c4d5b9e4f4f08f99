"""Sequential fully-dynamic minimum spanning forest.

The Section 7 reduction row for MST cites the Holm–de Lichtenberg–Thorup
dynamic MSF with polylogarithmic amortized update time.  This module
implements a simpler exact dynamic MSF — the classical "swap" algorithm —
whose updates cost ``O(n)`` (insertion: find the maximum-weight edge on the
tree path and swap) and ``O(m)`` (deletion of a tree edge: scan non-tree
edges for the cheapest reconnecting edge).  It is exact, deterministic and
fully dynamic, which is all the reduction machinery needs; the round counts
produced through the reduction simply reflect this payload's update time.
"""

from __future__ import annotations

from collections import deque

from repro.graph.graph import normalize_edge

__all__ = ["SequentialDynamicMST"]


class SequentialDynamicMST:
    """Exact fully-dynamic minimum spanning forest (cycle/cut swap rules)."""

    def __init__(self) -> None:
        self._weights: dict[tuple[int, int], float] = {}
        self._tree_adj: dict[int, set[int]] = {}
        self._tree_edges: set[tuple[int, int]] = set()
        self.operations = 0

    # ---------------------------------------------------------------- helpers
    def _tick(self, amount: int = 1) -> None:
        self.operations += amount

    def add_vertex(self, v: int) -> None:
        self._tree_adj.setdefault(v, set())

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self._weights

    def weight(self, u: int, v: int) -> float:
        return self._weights[normalize_edge(u, v)]

    @property
    def num_edges(self) -> int:
        return len(self._weights)

    def forest_edges(self) -> set[tuple[int, int]]:
        """The current minimum spanning forest (canonical edge set)."""
        return set(self._tree_edges)

    def forest_weight(self) -> float:
        """Total weight of the maintained forest."""
        return sum(self._weights[e] for e in self._tree_edges)

    def connected(self, u: int, v: int) -> bool:
        """True iff ``u`` and ``v`` are connected by the maintained forest."""
        return self._tree_path(u, v) is not None if u != v else True

    # ------------------------------------------------------------ tree search
    def _tree_path(self, source: int, target: int) -> list[tuple[int, int]] | None:
        """Edges of the forest path from ``source`` to ``target`` (BFS), or None."""
        if source not in self._tree_adj or target not in self._tree_adj:
            return None
        if source == target:
            return []
        parent: dict[int, int] = {source: source}
        queue: deque[int] = deque([source])
        while queue:
            x = queue.popleft()
            for y in self._tree_adj[x]:
                self._tick()
                if y not in parent:
                    parent[y] = x
                    if y == target:
                        path = []
                        while y != source:
                            path.append(normalize_edge(parent[y], y))
                            y = parent[y]
                        return path
                    queue.append(y)
        return None

    def _component(self, v: int) -> set[int]:
        """Vertices reachable from ``v`` in the forest."""
        seen = {v}
        queue: deque[int] = deque([v])
        while queue:
            x = queue.popleft()
            for y in self._tree_adj[x]:
                self._tick()
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    def _add_tree_edge(self, u: int, v: int) -> None:
        self._tree_edges.add(normalize_edge(u, v))
        self._tree_adj[u].add(v)
        self._tree_adj[v].add(u)
        self._tick()

    def _remove_tree_edge(self, u: int, v: int) -> None:
        self._tree_edges.discard(normalize_edge(u, v))
        self._tree_adj[u].discard(v)
        self._tree_adj[v].discard(u)
        self._tick()

    # ----------------------------------------------------------------- updates
    def insert(self, u: int, v: int, weight: float) -> None:
        """Insert weighted edge ``(u, v)`` and restore minimality."""
        edge = normalize_edge(u, v)
        if edge in self._weights:
            raise ValueError(f"edge {edge} already present")
        self.add_vertex(u)
        self.add_vertex(v)
        self._weights[edge] = float(weight)
        path = self._tree_path(u, v)
        if path is None:
            self._add_tree_edge(u, v)
            return
        # Cycle rule: evict the heaviest edge of the created cycle if heavier.
        heaviest = max(path, key=lambda e: self._weights[e], default=None)
        if heaviest is not None and self._weights[heaviest] > float(weight):
            self._remove_tree_edge(*heaviest)
            self._add_tree_edge(u, v)

    def delete(self, u: int, v: int) -> None:
        """Delete edge ``(u, v)`` and restore minimality."""
        edge = normalize_edge(u, v)
        if edge not in self._weights:
            raise ValueError(f"edge {edge} not present")
        del self._weights[edge]
        if edge not in self._tree_edges:
            return
        self._remove_tree_edge(u, v)
        # Cut rule: reconnect with the cheapest edge crossing the cut, if any.
        side = self._component(u)
        best: tuple[int, int] | None = None
        best_weight = float("inf")
        for (a, b), w in self._weights.items():
            self._tick()
            if (a in side) != (b in side) and w < best_weight:
                best = (a, b)
                best_weight = w
        if best is not None:
            self._add_tree_edge(*best)
