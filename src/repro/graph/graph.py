"""A simple fully-dynamic undirected graph container.

This is the *reference* (centralised) view of the evolving input.  The DMPC
algorithms never read it directly — they see only the update stream — but
drivers, validators and tests use it as the ground truth the maintained
solutions are checked against.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["DynamicGraph"]


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonical (sorted) representation of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class DynamicGraph:
    """An undirected graph supporting edge insertion and deletion.

    Vertices are non-negative integers and are created implicitly by edge
    insertions (and by :meth:`add_vertex`).  Parallel edges are not allowed;
    self-loops are rejected because none of the paper's problems use them.
    Optional edge weights are kept for the MST algorithms.
    """

    def __init__(self, num_vertices: int = 0) -> None:
        self._adj: dict[int, set[int]] = {v: set() for v in range(num_vertices)}
        self._weights: dict[tuple[int, int], float] = {}
        self._num_edges = 0

    # --------------------------------------------------------------- vertices
    def add_vertex(self, v: int) -> None:
        """Ensure vertex ``v`` exists (no-op if it already does)."""
        if v < 0:
            raise ValueError("vertex identifiers must be non-negative")
        self._adj.setdefault(v, set())

    @property
    def vertices(self) -> list[int]:
        return sorted(self._adj)

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    # ------------------------------------------------------------------ edges
    def insert_edge(self, u: int, v: int, weight: float = 1.0) -> bool:
        """Insert edge ``(u, v)``.  Returns ``False`` if it already existed."""
        if u == v:
            raise ValueError("self-loops are not supported")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._weights[normalize_edge(u, v)] = float(weight)
        self._num_edges += 1
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``.  Returns ``False`` if it was not present."""
        if u not in self._adj or v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._weights.pop(normalize_edge(u, v), None)
        self._num_edges -= 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def weight(self, u: int, v: int, default: float | None = None) -> float:
        """Weight of edge ``(u, v)``; raises ``KeyError`` unless a default is given."""
        key = normalize_edge(u, v)
        if key not in self._weights:
            if default is not None:
                return default
            raise KeyError(f"edge {key} not in graph")
        return self._weights[key]

    def neighbors(self, v: int) -> set[int]:
        """The neighbour set of ``v`` (a copy-safe live set; do not mutate)."""
        return self._adj.get(v, set())

    def degree(self, v: int) -> int:
        return len(self._adj.get(v, ()))

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over canonical edges ``(u, v)`` with ``u <= v``."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u <= v:
                    yield (u, v)

    def weighted_edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(u, v, weight)`` triples."""
        for (u, v) in self.edges():
            yield (u, v, self._weights[(u, v)])

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges())

    # ------------------------------------------------------------------ misc
    def copy(self) -> "DynamicGraph":
        """Deep copy of the graph (used by validators that mutate)."""
        g = DynamicGraph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._weights = dict(self._weights)
        g._num_edges = self._num_edges
        return g

    def subgraph(self, vertices: Iterable[int]) -> "DynamicGraph":
        """Induced subgraph on ``vertices``."""
        keep = set(vertices)
        g = DynamicGraph()
        for v in keep:
            g.add_vertex(v)
        for (u, v, w) in self.weighted_edges():
            if u in keep and v in keep:
                g.insert_edge(u, v, w)
        return g

    @property
    def input_size(self) -> int:
        """The paper's ``N = n + m``."""
        return self.num_vertices + self.num_edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        return self._adj == other._adj and self._weights == other._weights

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicGraph(n={self.num_vertices}, m={self.num_edges})"
