"""Correctness oracles and the fault-injection hook (leak accounting lives in ``run.py``).

Every check runs outside the timers.  The oracles are the sequential
validators of ``repro.graph`` applied to the final graph the update stream
replays to; the benchmark never trusts an algorithm's own
``verify_invariants``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from repro.graph import DynamicGraph, connected_components, is_maximal_matching, is_spanning_forest, same_partition


def canonical_partition(components: Iterable[Iterable[int]]) -> list[list[int]]:
    return sorted(sorted(component) for component in components)


def corrupt_partition(components: Iterable[Iterable[int]]) -> list[set[int]]:
    """A wrong partition close to ``components``: its two first parts merged (or one split)."""
    parts = [set(component) for component in components]
    if len(parts) >= 2:
        return [parts[0] | parts[1]] + parts[2:]
    vertex = min(parts[0])
    return [{vertex}, parts[0] - {vertex}]


def connectivity_checks(final: DynamicGraph, components: list, forest: Iterable[tuple[int, int]]) -> dict[str, bool]:
    return {
        "partition": same_partition(components, connected_components(final)),
        "spanning_forest": is_spanning_forest(final, forest),
    }


def matching_checks(final: DynamicGraph, matching: Iterable[tuple[int, int]]) -> dict[str, bool]:
    return {"maximal_matching": is_maximal_matching(final, matching)}


def static_checks(graphs: list[DynamicGraph], partitions: list) -> dict[str, bool]:
    """Every recomputation ran and its partition equals the oracle's."""
    return {
        "partition": len(partitions) == len(graphs)
        and all(same_partition(part, connected_components(graph)) for part, graph in zip(partitions, graphs))
    }


def digest(solution: Any) -> str:
    """Stable fingerprint of a canonical (JSON-able) solution, for cross-run identity checks."""
    return hashlib.sha256(json.dumps(solution, sort_keys=True).encode()).hexdigest()
