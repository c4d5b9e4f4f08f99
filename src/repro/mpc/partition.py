"""Vertex-to-machine placement helpers.

Section 3 of the paper stores per-vertex *statistics* on ``O(n / sqrt(N))``
machines, allocating *consecutive vertex identifiers* to each machine so
that the coordinator only needs to remember one ID range per machine.
:class:`RangePartition` implements exactly this scheme; :func:`hash_partition`
is the simpler stateless placement used by the connectivity and static
algorithms, which only need an arbitrary but fixed vertex → machine map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["RangePartition", "hash_partition"]


def hash_partition(vertex: int, machine_ids: Sequence[str]) -> str:
    """Deterministically map ``vertex`` to one of ``machine_ids``.

    Uses a multiplicative hash rather than ``vertex % len`` so that vertex
    ranges produced by generators (consecutive integers) spread evenly even
    when the machine count shares factors with the stride of the IDs.
    """
    if not machine_ids:
        raise ValueError("machine_ids must be non-empty")
    h = (vertex * 2654435761) & 0xFFFFFFFF
    return machine_ids[h % len(machine_ids)]


@dataclass(frozen=True)
class RangePartition:
    """Consecutive-ID placement of vertex statistics onto machines.

    Parameters
    ----------
    num_vertices:
        Total number of vertex identifiers (IDs are ``0 .. num_vertices-1``).
    machine_ids:
        The machines dedicated to statistics, in order.  Vertex ``v`` is
        placed on machine ``machine_ids[v // block]`` where
        ``block = ceil(num_vertices / len(machine_ids))``.

    Frozen: the block size and each machine's position are fixed at
    construction, so routing a vertex is two integer operations and a tuple
    index, and no field can change under them.
    """

    num_vertices: int
    machine_ids: tuple[str, ...]
    #: number of consecutive vertex IDs assigned to each machine
    block_size: int = field(init=False, compare=False)
    #: vertex IDs ``0 .. span-1`` route directly; every other ID wraps modulo ``span``
    _span: int = field(init=False, repr=False, compare=False)
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, num_vertices: int, machine_ids: Sequence[str]) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if not machine_ids:
            raise ValueError("machine_ids must be non-empty")
        machine_ids = tuple(machine_ids)
        fields = {
            "num_vertices": num_vertices,
            "machine_ids": machine_ids,
            "block_size": -(-num_vertices // len(machine_ids)) if num_vertices else 1,  # ceil division
            "_span": max(num_vertices, 1),
            "_positions": {machine_id: index for index, machine_id in enumerate(machine_ids)},
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def machine_for(self, vertex: int) -> str:
        """Return the machine storing statistics for ``vertex``."""
        span = self._span
        if not 0 <= vertex < span:
            # Out-of-range vertices (e.g. created after sizing) wrap around;
            # the coordinator only needs *a* fixed machine per vertex.
            vertex %= span
        # vertex < num_vertices <= len(machine_ids) * block_size: the index is in range
        return self.machine_ids[vertex // self.block_size]

    def vertices_on(self, machine_id: str) -> range:
        """Return the ID range assigned to ``machine_id`` (may be empty)."""
        index = self._positions.get(machine_id)
        if index is None:
            raise ValueError(f"{machine_id!r} is not part of this partition")
        start = index * self.block_size
        return range(start, max(start, min(self.num_vertices, start + self.block_size)))

    def directory(self) -> dict[str, tuple[int, int]]:
        """Return ``{machine_id: (first_id, last_id_exclusive)}`` — what the
        coordinator stores so it can route statistics queries in one hop."""
        return {mid: (r.start, r.stop) for mid in self.machine_ids if (r := self.vertices_on(mid)) is not None}
