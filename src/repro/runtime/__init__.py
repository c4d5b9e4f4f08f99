"""Pluggable execution backends for the DMPC simulator.

The runtime layer separates *simulation semantics* (messages, rounds,
costs, solutions — fixed by the algorithms) from *execution strategy* (how
storage is sized, how mailboxes are delivered, whether rounds keep their
per-pair metrics detail — chosen per deployment by picking a backend).  See :mod:`repro.runtime.base` for the
protocol and the contract, :mod:`repro.runtime.reference` for the strict
baseline and :mod:`repro.runtime.fast` for the optimised strategy.

Select a backend through the config::

    config = DMPCConfig.for_graph(n, m, backend="fast")
    algorithm = DMPCConnectivity(config)   # no other change needed

or per cluster (``Cluster(config, backend="fast")``), or fleet-wide via the
``REPRO_BACKEND`` environment variable (used by the CI matrix).  Three
backends are registered:

``reference``
    strict, fully-eager, full per-pair metrics — the correctness baseline;
``fast``
    memoised sizing, staged-sender transport, aggregate metrics with no
    per-pair detail;
``resident``
    :mod:`repro.runtime.resident` — ``fast`` plus session-scoped *resident*
    worker state: long-lived worker slots keep machine-store snapshots and
    the shared slice in memory for a whole run
    (:meth:`~repro.mpc.cluster.Cluster.session`), the driver ships only
    per-round deltas, and messages route between the workers.

Further backends plug in by registering a new
:class:`~repro.runtime.base.ExecutionBackend` subclass — algorithm code
never changes.
"""

from __future__ import annotations

from repro.runtime.base import (
    BACKEND_ENV_VAR,
    BACKENDS,
    ExecutionBackend,
    ExecutionSession,
    MachineStorage,
    Transport,
    register_backend,
    resolve_backend,
)
from repro.runtime.fast import CachedStorage, FastBackend, FastTransport
from repro.runtime.reference import ReferenceBackend, ReferenceStorage, ReferenceTransport
from repro.runtime.resident import ResidentBackend, ResidentSession, ResidentTransport

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "ExecutionBackend",
    "ExecutionSession",
    "MachineStorage",
    "Transport",
    "register_backend",
    "resolve_backend",
    "ReferenceBackend",
    "ReferenceStorage",
    "ReferenceTransport",
    "FastBackend",
    "FastTransport",
    "CachedStorage",
    "ResidentBackend",
    "ResidentSession",
    "ResidentTransport",
]
