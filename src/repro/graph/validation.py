"""Solution validators used by tests, examples and benchmarks.

These are centralised (non-MPC) reference computations: given the ground
truth graph and a maintained solution, they decide whether the solution is
valid and how good it is.  They include a full maximum-matching oracle
(blossom algorithm) so approximation factors can be measured exactly on the
benchmark sizes.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.graph.graph import DynamicGraph, normalize_edge

__all__ = [
    "is_matching",
    "is_maximal_matching",
    "matching_size",
    "has_length3_augmenting_path",
    "greedy_maximal_matching",
    "maximum_matching_size",
    "maximum_matching",
    "connected_components",
    "same_partition",
    "is_spanning_forest",
    "forest_weight",
    "minimum_spanning_forest_weight",
]


# --------------------------------------------------------------------- matching
def _normalize_matching(matching: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    return {normalize_edge(u, v) for (u, v) in matching}


def is_matching(graph: DynamicGraph, matching: Iterable[tuple[int, int]]) -> bool:
    """True iff ``matching`` is a set of disjoint edges of ``graph``."""
    edges = _normalize_matching(matching)
    seen: set[int] = set()
    for (u, v) in edges:
        if not graph.has_edge(u, v):
            return False
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def is_maximal_matching(graph: DynamicGraph, matching: Iterable[tuple[int, int]]) -> bool:
    """True iff ``matching`` is a matching and no graph edge has both endpoints free."""
    edges = _normalize_matching(matching)
    if not is_matching(graph, edges):
        return False
    matched: set[int] = set()
    for (u, v) in edges:
        matched.add(u)
        matched.add(v)
    for (u, v) in graph.edges():
        if u not in matched and v not in matched:
            return False
    return True


def matching_size(matching: Iterable[tuple[int, int]]) -> int:
    """Number of edges in the matching (after normalisation)."""
    return len(_normalize_matching(matching))


def has_length3_augmenting_path(graph: DynamicGraph, matching: Iterable[tuple[int, int]]) -> bool:
    """True iff some matched edge has *both* endpoints adjacent to free vertices.

    A matching with no augmenting path of length 3 (and no length-1 path,
    i.e. maximal) is a 3/2-approximation of the maximum matching
    (Hopcroft–Karp): this is the structural property the Section 4
    algorithm maintains.
    """
    edges = _normalize_matching(matching)
    matched: set[int] = set()
    for (u, v) in edges:
        matched.add(u)
        matched.add(v)

    def has_free_neighbor(x: int, exclude: int) -> bool:
        return any(w not in matched and w != exclude for w in graph.neighbors(x))

    for (u, v) in edges:
        if has_free_neighbor(u, v) and has_free_neighbor(v, u):
            # The two free neighbours must be distinct for a genuine
            # augmenting path; check that corner case explicitly.
            free_u = {w for w in graph.neighbors(u) if w not in matched}
            free_v = {w for w in graph.neighbors(v) if w not in matched}
            if len(free_u | free_v) >= 2:
                return True
    return False


def greedy_maximal_matching(graph: DynamicGraph, order: Iterable[tuple[int, int]] | None = None) -> set[tuple[int, int]]:
    """A maximal matching obtained by greedy edge scanning (2-approximation)."""
    matched: set[int] = set()
    matching: set[tuple[int, int]] = set()
    edges = graph.edge_list() if order is None else [normalize_edge(u, v) for (u, v) in order]
    for (u, v) in edges:
        if u not in matched and v not in matched and graph.has_edge(u, v):
            matching.add((u, v))
            matched.add(u)
            matched.add(v)
    return matching


def maximum_matching(graph: DynamicGraph) -> set[tuple[int, int]]:
    """Maximum-cardinality matching in a general graph (blossom algorithm).

    An ``O(V^3)`` implementation of Edmonds' blossom shrinking, adequate as
    an exact oracle on benchmark-size graphs (hundreds to a few thousand
    vertices).  Returns the set of matched edges in canonical form.
    """
    vertices = graph.vertices
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in graph.edges():
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])

    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    q: deque[int] = deque()
    in_queue = [False] * n
    in_blossom = [False] * n

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_path(root: int) -> int:
        nonlocal parent, base, in_queue
        parent = [-1] * n
        base = list(range(n))
        in_queue = [False] * n
        q.clear()
        q.append(root)
        in_queue[root] = True
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # blossom found
                    curbase = lca(v, to)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = curbase
                            if not in_queue[i]:
                                in_queue[i] = True
                                q.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    else:
                        in_queue[match[to]] = True
                        q.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            u = find_path(v)
            while u != -1:
                pv = parent[u]
                ppv = match[pv]
                match[u] = pv
                match[pv] = u
                u = ppv

    result: set[tuple[int, int]] = set()
    for i in range(n):
        if match[i] != -1 and i < match[i]:
            result.add(normalize_edge(vertices[i], vertices[match[i]]))
    return result


def maximum_matching_size(graph: DynamicGraph) -> int:
    """Cardinality of a maximum matching of ``graph``."""
    return len(maximum_matching(graph))


# ----------------------------------------------------------------- connectivity
def connected_components(graph: DynamicGraph) -> list[set[int]]:
    """The connected components of ``graph`` as a list of vertex sets (BFS)."""
    seen: set[int] = set()
    components: list[set[int]] = []
    for start in graph.vertices:
        if start in seen:
            continue
        component = {start}
        seen.add(start)
        frontier = deque([start])
        while frontier:
            v = frontier.popleft()
            for w in graph.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    component.add(w)
                    frontier.append(w)
        components.append(component)
    return components


def same_partition(components_a: Iterable[Iterable[int]], components_b: Iterable[Iterable[int]]) -> bool:
    """True iff the two collections of components define the same partition."""
    a = {frozenset(c) for c in components_a if c}
    b = {frozenset(c) for c in components_b if c}
    return a == b


# ----------------------------------------------------------------------- forests
def is_spanning_forest(graph: DynamicGraph, forest_edges: Iterable[tuple[int, int]]) -> bool:
    """True iff ``forest_edges`` is an acyclic subgraph of ``graph`` that spans
    every connected component of ``graph`` (i.e. connects exactly what the
    graph connects)."""
    edges = {normalize_edge(u, v) for (u, v) in forest_edges}
    for (u, v) in edges:
        if not graph.has_edge(u, v):
            return False
    # acyclicity + same connectivity via union-find over the forest edges
    parent: dict[int, int] = {v: v for v in graph.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False  # cycle
        parent[ru] = rv

    forest_components = {}
    for v in graph.vertices:
        forest_components.setdefault(find(v), set()).add(v)
    return same_partition(forest_components.values(), connected_components(graph))


def forest_weight(graph: DynamicGraph, forest_edges: Iterable[tuple[int, int]]) -> float:
    """Total weight of the given forest edges (weights looked up in ``graph``)."""
    return sum(graph.weight(u, v) for (u, v) in {normalize_edge(a, b) for (a, b) in forest_edges})


def minimum_spanning_forest_weight(graph: DynamicGraph) -> float:
    """Weight of a minimum spanning forest of ``graph`` (Kruskal reference)."""
    parent: dict[int, int] = {v: v for v in graph.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    for (u, v, w) in sorted(graph.weighted_edges(), key=lambda t: t[2]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
    return total
