"""Vertex-to-machine placement helpers.

Section 3 of the paper stores per-vertex *statistics* on ``O(n / sqrt(N))``
machines, allocating *consecutive vertex identifiers* to each machine so
that the coordinator only needs to remember one ID range per machine.
:class:`RangePartition` implements exactly this scheme; :func:`hash_partition`
is the simpler stateless placement used by the connectivity and static
algorithms, which only need an arbitrary but fixed vertex → machine map.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
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
    """

    num_vertices: int
    machine_ids: tuple[str, ...]

    def __init__(self, num_vertices: int, machine_ids: Sequence[str]) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if not machine_ids:
            raise ValueError("machine_ids must be non-empty")
        self.num_vertices = num_vertices
        self.machine_ids = tuple(machine_ids)

    @property
    def block_size(self) -> int:
        """Number of consecutive vertex IDs assigned to each machine."""
        if self.num_vertices == 0:
            return 1
        return -(-self.num_vertices // len(self.machine_ids))  # ceil division

    def machine_for(self, vertex: int) -> str:
        """Return the machine storing statistics for ``vertex``."""
        if vertex < 0 or vertex >= max(self.num_vertices, 1):
            # Out-of-range vertices (e.g. created after sizing) wrap around;
            # the coordinator only needs *a* fixed machine per vertex.
            vertex = vertex % max(self.num_vertices, 1)
        index = min(vertex // self.block_size, len(self.machine_ids) - 1)
        return self.machine_ids[index]

    def vertices_on(self, machine_id: str) -> range:
        """Return the ID range assigned to ``machine_id`` (may be empty)."""
        try:
            index = self.machine_ids.index(machine_id)
        except ValueError:
            raise ValueError(f"{machine_id!r} is not part of this partition") from None
        start = index * self.block_size
        stop = min(self.num_vertices, (index + 1) * self.block_size)
        return range(start, max(start, stop))

    def directory(self) -> dict[str, tuple[int, int]]:
        """Return ``{machine_id: (first_id, last_id_exclusive)}`` — what the
        coordinator stores so it can route statistics queries in one hop."""
        return {mid: (r.start, r.stop) for mid in self.machine_ids if (r := self.vertices_on(mid)) is not None}
