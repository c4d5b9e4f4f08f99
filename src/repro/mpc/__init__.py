"""DMPC cluster simulator.

The simulator realises the model of Section 2 of the paper:

* a collection of machines ``M_1, ..., M_mu`` each with memory ``S`` words,
* computation proceeding in synchronous rounds,
* in each round every machine may send and receive messages of total size at
  most ``S`` words,
* the input (a graph of size ``N = n + m``) stored across machines so that
  the total memory is ``O(N)`` and ``S, mu ∈ O(N^{1-eps})`` —
  instantiated here as ``S = Theta(sqrt(N))`` and ``mu = Theta(sqrt(N))``.

The central object is :class:`~repro.mpc.cluster.Cluster`, which owns the
machines and the :class:`~repro.mpc.metrics.MetricsLedger`.  Algorithms are
written as drivers that stage messages on machines via
:meth:`Machine.send` and advance the computation with
:meth:`Cluster.exchange` (one synchronous round) — the ledger records, for
every round of every update, how many machines were active and how many
words were communicated, which is exactly the cost model the paper's Table 1
is expressed in.

The mechanics of a round — how machine stores are sized and charged, how
staged mailboxes are collected and delivered, how much per-round detail the
ledger retains — are delegated to a pluggable execution backend
(:mod:`repro.runtime`), selected via ``DMPCConfig(backend=...)``.  Backends
never change the simulation itself, only how fast it runs and how much
metrics detail survives.
"""

from __future__ import annotations

from repro.mpc.sizing import word_size
from repro.mpc.message import Message
from repro.mpc.machine import Machine
from repro.mpc.metrics import MetricsLedger, RoundRecord, UpdateRecord, UpdateSummary
from repro.mpc.cluster import Cluster
from repro.mpc.partition import RangePartition, hash_partition
from repro.mpc.program import MachineContext, SuperstepProgram
from repro.mpc.primitives import broadcast, gather, aggregate_sum, sample_sort
from repro.mpc.coordinator import Coordinator, UpdateHistory, HistoryEntry

__all__ = [
    "word_size",
    "Message",
    "Machine",
    "MetricsLedger",
    "RoundRecord",
    "UpdateRecord",
    "UpdateSummary",
    "Cluster",
    "RangePartition",
    "hash_partition",
    "MachineContext",
    "SuperstepProgram",
    "broadcast",
    "gather",
    "aggregate_sum",
    "sample_sort",
    "Coordinator",
    "UpdateHistory",
    "HistoryEntry",
]
