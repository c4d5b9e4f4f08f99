"""Update operations and update sequences.

A *fully-dynamic* algorithm consumes an intermixed sequence of edge
insertions and deletions.  :class:`GraphUpdate` is a single operation;
:class:`UpdateSequence` is an ordered list of them with helpers to replay
the sequence onto a :class:`~repro.graph.graph.DynamicGraph` and to check
well-formedness (no duplicate insertions, no deletions of absent edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.graph.graph import DynamicGraph, normalize_edge

__all__ = [
    "GraphUpdate",
    "UpdateSequence",
    "batched",
    "coalesce_updates",
    "group_updates_by_owner",
]

INSERT = "insert"
DELETE = "delete"


@dataclass(frozen=True)
class GraphUpdate:
    """A single edge insertion or deletion (with an optional weight)."""

    op: str
    u: int
    v: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.op not in (INSERT, DELETE):
            raise ValueError(f"unknown update operation {self.op!r}")
        if self.u == self.v:
            raise ValueError("self-loop updates are not supported")

    @property
    def edge(self) -> tuple[int, int]:
        return normalize_edge(self.u, self.v)

    @property
    def is_insert(self) -> bool:
        return self.op == INSERT

    @property
    def is_delete(self) -> bool:
        return self.op == DELETE

    @staticmethod
    def insert(u: int, v: int, weight: float = 1.0) -> "GraphUpdate":
        return GraphUpdate(INSERT, u, v, weight)

    @staticmethod
    def delete(u: int, v: int) -> "GraphUpdate":
        return GraphUpdate(DELETE, u, v)

    def dmpc_words(self) -> int:
        """An update is a constant number of words on the wire."""
        return 4


def batched(seq: Iterable[GraphUpdate], size: int) -> Iterator[list[GraphUpdate]]:
    """Chunk an update stream into consecutive batches of at most ``size``.

    Works on any iterable of updates — an :class:`UpdateSequence`, a list,
    or a lazily produced adaptive stream — and preserves the update order,
    so feeding the chunks to :meth:`DynamicMPCAlgorithm.apply_batch` is
    semantically equivalent to applying the stream one update at a time.
    The final batch may be shorter than ``size``.
    """
    if size < 1:
        raise ValueError("batch size must be positive")
    chunk: list[GraphUpdate] = []
    for update in seq:
        chunk.append(update)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def coalesce_updates(updates: Iterable[GraphUpdate]) -> tuple[list[GraphUpdate], dict[str, int]]:
    """Normalize a batch: cancel insert/delete pairs and dedupe no-op updates.

    Per edge (in first-touch order) the per-edge subsequence collapses to its
    *net effect* on the graph:

    * consecutive same-op duplicates keep only the latest (an insert-over-
      -insert or delete-over-delete is a structural no-op; the last weight
      wins, matching ``DynamicGraph.insert_edge`` overwrite semantics);
    * ``insert …  delete`` cancels to nothing,
    * ``insert …  insert`` keeps only the final insert,
    * ``delete …  delete`` keeps only the first delete,
    * ``delete …  insert`` keeps the delete followed by the final insert.

    Replaying the survivors from the batch's pre-state therefore yields the
    exact same final graph as replaying the raw batch (property-tested in
    ``tests/graph``) provided the batch is *well-formed* for that pre-state —
    no insert of an already-present edge, no delete of an absent one — which
    is what every algorithm here requires of its input stream anyway.  The
    pass is idempotent.  Returns the survivor list
    plus a stats dict (``input``/``output``/``cancelled_pairs``/``deduped``/
    ``edges``) for bench provenance.
    """
    per_edge: dict[tuple[int, int], list[GraphUpdate]] = {}
    order: list[tuple[int, int]] = []
    total = 0
    deduped = 0
    for upd in updates:
        total += 1
        seq = per_edge.get(upd.edge)
        if seq is None:
            per_edge[upd.edge] = [upd]
            order.append(upd.edge)
        elif seq[-1].op == upd.op:
            seq[-1] = upd  # structural no-op: keep the later weight
            deduped += 1
        else:
            seq.append(upd)
    survivors: list[GraphUpdate] = []
    cancelled_pairs = 0
    for edge in order:
        seq = per_edge[edge]
        if seq[0].is_insert:
            net = [seq[-1]] if seq[-1].is_insert else []
        else:
            net = [seq[0]] if seq[-1].is_delete else [seq[0], seq[-1]]
        cancelled_pairs += (len(seq) - len(net)) // 2
        survivors.extend(net)
    stats = {
        "input": total,
        "output": len(survivors),
        "cancelled_pairs": cancelled_pairs,
        "deduped": deduped,
        "edges": len(order),
    }
    return survivors, stats


def group_updates_by_owner(
    updates: Iterable[GraphUpdate], owner: Callable[[int], str]
) -> list[GraphUpdate]:
    """Stable-group updates by the machines owning their endpoints.

    Survivors of :func:`coalesce_updates` touching the same machine pair are
    made adjacent so drivers can merge their communication.  The grouping is a
    *stable* partition on the unordered ``(owner(u), owner(v))`` key: both
    orientations of an edge share a key, so the relative order of any two
    updates on the same edge (at most a delete followed by an insert after
    coalescing) is preserved and the grouped stream replays to the same final
    graph as the ungrouped one.
    """
    groups: dict[tuple[str, str], list[GraphUpdate]] = {}
    order: list[tuple[str, str]] = []
    for upd in updates:
        a, b = owner(upd.u), owner(upd.v)
        key = (a, b) if a <= b else (b, a)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [upd]
            order.append(key)
        else:
            bucket.append(upd)
    return [upd for key in order for upd in groups[key]]


class UpdateSequence:
    """An ordered sequence of :class:`GraphUpdate` operations."""

    def __init__(self, updates: Iterable[GraphUpdate] = ()) -> None:
        self._updates: list[GraphUpdate] = list(updates)

    def append(self, update: GraphUpdate) -> None:
        self._updates.append(update)

    def extend(self, updates: Iterable[GraphUpdate]) -> None:
        self._updates.extend(updates)

    def __iter__(self) -> Iterator[GraphUpdate]:
        return iter(self._updates)

    def __len__(self) -> int:
        return len(self._updates)

    def __getitem__(self, index: int) -> GraphUpdate:
        return self._updates[index]

    @property
    def num_inserts(self) -> int:
        return sum(1 for u in self._updates if u.is_insert)

    @property
    def num_deletes(self) -> int:
        return sum(1 for u in self._updates if u.is_delete)

    def max_vertex(self) -> int:
        """Largest vertex id touched by the sequence (-1 if empty)."""
        largest = -1
        for upd in self._updates:
            largest = max(largest, upd.u, upd.v)
        return largest

    def max_concurrent_edges(self, initial: DynamicGraph | None = None) -> int:
        """Maximum number of edges present at any point while replaying.

        This is the quantity the paper calls ``m`` ("the maximum number of
        edges throughout the update sequence") and is what deployments are
        sized by.
        """
        graph = initial.copy() if initial is not None else DynamicGraph()
        peak = graph.num_edges
        for upd in self._updates:
            if upd.is_insert:
                graph.insert_edge(upd.u, upd.v, upd.weight)
            else:
                graph.delete_edge(upd.u, upd.v)
            peak = max(peak, graph.num_edges)
        return peak

    def is_consistent(self, initial: DynamicGraph | None = None) -> bool:
        """True if every insert adds a new edge and every delete removes an
        existing one when replayed from ``initial`` (or the empty graph)."""
        graph = initial.copy() if initial is not None else DynamicGraph()
        for upd in self._updates:
            if upd.is_insert:
                if graph.has_edge(upd.u, upd.v):
                    return False
                graph.insert_edge(upd.u, upd.v, upd.weight)
            else:
                if not graph.has_edge(upd.u, upd.v):
                    return False
                graph.delete_edge(upd.u, upd.v)
        return True

    def apply_to(self, graph: DynamicGraph) -> DynamicGraph:
        """Replay the sequence onto ``graph`` in place and return it."""
        for upd in self._updates:
            if upd.is_insert:
                graph.insert_edge(upd.u, upd.v, upd.weight)
            else:
                graph.delete_edge(upd.u, upd.v)
        return graph

    def final_graph(self, initial: DynamicGraph | None = None) -> DynamicGraph:
        """The graph obtained by replaying the sequence from ``initial``."""
        graph = initial.copy() if initial is not None else DynamicGraph()
        return self.apply_to(graph)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UpdateSequence(len={len(self)}, inserts={self.num_inserts}, deletes={self.num_deletes})"
