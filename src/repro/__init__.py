"""repro — Dynamic algorithms for the Massively Parallel Computation model.

This package reproduces the system described in *Dynamic Algorithms for the
Massively Parallel Computation Model* (Italiano, Lattanzi, Mirrokni,
Parotsidis — SPAA 2019, arXiv:1905.09175).  The paper introduces the **DMPC
model**: a memory-restricted MPC cluster that maintains the solution to a
graph problem under edge insertions and deletions, where the cost of an
update is measured by

* the number of synchronous **rounds** used per update,
* the number of **active machines** per round, and
* the total **communication** (message words) per round,

all in the worst case over updates.

Package layout
--------------

``repro.mpc``
    The DMPC cluster simulator: machines with ``O(sqrt(N))`` memory,
    synchronous message rounds, byte/word accounting, and a metrics ledger
    that records rounds, active machines and communication per update.
``repro.runtime``
    Pluggable execution backends separating simulation semantics from
    execution strategy: the strict ``reference`` backend and the optimised
    ``fast`` backend (memoised sizing, staged-sender transport, sampled
    metrics), selected via ``DMPCConfig(backend=...)`` with zero
    algorithm-layer changes.
``repro.graph``
    Dynamic graph containers, workload generators, update-stream generators
    and solution validators.
``repro.eulertour``
    The index-based Euler-tour machinery of Section 5 (reroot, link, cut via
    index arithmetic) together with an explicit-sequence reference
    implementation.
``repro.seq``
    Sequential dynamic algorithms used both as baselines and as the payload
    of the Section 7 reduction (Euler-tour trees, Holm–de Lichtenberg–Thorup
    connectivity, Neiman–Solomon maximal matching, dynamic MST).
``repro.static_mpc``
    Static MPC baselines executed on the same simulator (connected
    components by contraction, Israeli–Itai maximal matching, Borůvka MST):
    these are the "recompute from scratch" comparators.
``repro.dynamic_mpc``
    The paper's contribution: fully-dynamic DMPC algorithms for maximal
    matching (Section 3), 3/2-approximate matching (Section 4), connected
    components and (1+eps)-MST (Section 5), (2+eps)-approximate matching
    (Section 6) and the black-box reduction from sequential dynamic
    algorithms (Section 7).
``repro.analysis``
    Table-1 regeneration, complexity-shape fitting and the Section 8
    communication-entropy metric.
"""

from __future__ import annotations

from repro._version import __version__
from repro.exceptions import (
    DMPCError,
    InvariantViolation,
    MachineMemoryExceeded,
    MessageSizeExceeded,
    ProtocolError,
    UnknownMachineError,
)
from repro.config import DMPCConfig

__all__ = [
    "__version__",
    "DMPCConfig",
    "DMPCError",
    "InvariantViolation",
    "MachineMemoryExceeded",
    "MessageSizeExceeded",
    "ProtocolError",
    "UnknownMachineError",
]
