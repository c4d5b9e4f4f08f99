"""Global configuration describing a DMPC deployment.

The paper parameterises the model by the input size ``N = n + m`` and the
per-machine memory ``S``.  Throughout the paper ``S = Theta(sqrt(N))`` and
the number of machines is ``O(sqrt(N))`` (enough that the total memory is
``O(N)``).  :class:`DMPCConfig` packages these choices so that every
algorithm, generator and benchmark derives its machine count and memory
budget from a single declaration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DMPCConfig:
    """Sizing parameters of a simulated DMPC deployment.

    Parameters
    ----------
    capacity_n:
        The maximum number of vertices the deployment must be able to hold.
    capacity_m:
        The maximum number of edges throughout the update sequence.  The
        paper's Section 3 uses this quantity (it calls it ``m``) to fix the
        heavy/light degree threshold ``sqrt(2 m)``.
    memory_slack:
        Multiplicative slack applied to the per-machine memory ``S``.  The
        model only requires ``S = O(sqrt(N))``; a slack factor larger than 1
        keeps the simulator faithful to the asymptotic bound while avoiding
        spurious capacity violations caused by small constants on tiny
        inputs.
    strict_memory:
        When ``True`` the simulator raises :class:`MachineMemoryExceeded`
        whenever a machine exceeds ``machine_memory`` words.  The default is
        ``False``: all storage and communication is still *accounted* (which
        is what the benchmarks report and what the Table 1 shapes are judged
        by), while hard enforcement — which is sensitive to small constant
        factors on the tiny inputs used in tests — is opt-in and exercised
        by the dedicated model-limit tests/benchmarks (experiment E8).
    backend:
        Which execution backend (:mod:`repro.runtime`) clusters built from
        this config use: ``"reference"`` (strict, fully-eager, full metrics
        detail), ``"fast"`` (memoised sizing, staged-sender transport,
        aggregate metrics) or ``"resident"`` (``fast`` plus superstep
        programs run by long-lived worker processes during a session).
        ``None`` (the default) defers to the ``REPRO_BACKEND`` environment
        variable and finally to ``"reference"``.  Every backend produces
        identical solutions, round counts and word accounting; only
        wall-clock cost and retained metrics detail differ.
    shard_count:
        Resident-backend knob, and nothing else: the cap on the number of
        worker slots a resident session uses.  ``None`` (the default) caps
        at 4.  The name outlived the shard plans it once sized; it survives
        because the benchmark passes ``shard_count=4``.  Like every
        execution knob it never changes the simulation.
    resident_slots:
        Resident-backend knob: how many long-lived worker-slot processes a
        resident session fans execution across (clamped to the
        ``shard_count`` cap); machine ``i`` runs on slot ``i % slots``.
        ``None`` (the default) defers to ``min(cap, os.cpu_count())``.
        Slot count also governs slot-local message routing: same-slot
        traffic never leaves its worker process and cross-slot traffic
        rides shared-memory rings, but like every execution knob the
        simulation is bit-for-bit identical under any value.
    resident_shm_ring_bytes:
        Resident-backend knob: capacity in bytes of each cross-slot
        shared-memory ring.  ``None`` (the default) pre-sizes the rings
        from the per-machine word budget ``S`` (the same quantity the
        ``fast_word_size`` sizer charges messages against — a slot's round
        traffic is capped by its machines' I/O budgets).  Rings that
        overflow fall back to the driver pipe, so undersizing is a
        performance choice, never a correctness one.
    """

    capacity_n: int
    capacity_m: int
    memory_slack: float = 16.0
    strict_memory: bool = False
    backend: str | None = None
    shard_count: int | None = None
    resident_slots: int | None = None
    resident_shm_ring_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.capacity_n < 1:
            raise ValueError("capacity_n must be positive")
        if self.capacity_m < 0:
            raise ValueError("capacity_m must be non-negative")
        if self.memory_slack <= 0:
            raise ValueError("memory_slack must be positive")
        if self.shard_count is not None and self.shard_count < 1:
            raise ValueError("shard_count must be positive when given")
        if self.resident_slots is not None and self.resident_slots < 1:
            raise ValueError("resident_slots must be positive when given")
        if self.resident_shm_ring_bytes is not None and self.resident_shm_ring_bytes < 1024:
            raise ValueError("resident_shm_ring_bytes must be at least 1024 when given")

    @property
    def capacity_N(self) -> int:
        """Total input size ``N = n + m`` the deployment is sized for."""
        return self.capacity_n + self.capacity_m

    @property
    def sqrt_N(self) -> int:
        """``ceil(sqrt(N))`` — the paper's canonical machine-memory scale."""
        return max(1, math.isqrt(self.capacity_N - 1) + 1) if self.capacity_N > 1 else 1

    @property
    def machine_memory(self) -> int:
        """Per-machine memory ``S`` in words (``Theta(sqrt(N))`` with slack)."""
        return max(8, int(self.memory_slack * self.sqrt_N))

    @property
    def num_worker_machines(self) -> int:
        """Number of worker machines, ``Theta(sqrt(N))``.

        Sized at ``~2 sqrt(N)`` machines so that the aggregate memory
        ``S * mu = Theta(N)`` comfortably holds the input plus per-edge
        bookkeeping — the paper's requirement that the total memory is
        ``O(N)`` while each machine holds only ``O(sqrt(N))``.
        """
        needed = max(1, math.ceil(2 * self.capacity_N / self.sqrt_N))
        return max(min(needed, 4 * self.sqrt_N), 2)

    @property
    def heavy_threshold(self) -> int:
        """Degree threshold separating heavy from light vertices (Section 3).

        The paper sets it to ``sqrt(2 m)`` where ``m`` is the maximum number
        of edges over the update sequence; vertices of larger degree cannot
        fit their adjacency list into a single machine.
        """
        return max(2, math.isqrt(2 * max(self.capacity_m, 1)))

    @property
    def stats_machine_count(self) -> int:
        """Number of machines dedicated to per-vertex statistics.

        Section 3 dedicates ``O(n / sqrt(N))`` machines to store vertex
        statistics (degree, matched flag, mate, alive/suspended machine
        pointers), each holding a contiguous range of vertex IDs.
        """
        per_machine = max(1, self.machine_memory // 8)
        return max(1, math.ceil(self.capacity_n / per_machine))

    @staticmethod
    def for_graph(n: int, m: int, **options) -> "DMPCConfig":
        """Convenience constructor sizing a deployment for an ``(n, m)`` graph.

        ``options`` are the optional fields, passed through to the dataclass
        so each default is declared once.
        """
        return DMPCConfig(capacity_n=max(1, n), capacity_m=max(0, m), **options)
