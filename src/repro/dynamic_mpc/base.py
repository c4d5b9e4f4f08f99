"""Common driver interface for the dynamic DMPC algorithms."""

from __future__ import annotations

import abc

from repro.config import DMPCConfig
from repro.exceptions import CapacityExceeded
from repro.graph.graph import DynamicGraph
from repro.graph.updates import (
    GraphUpdate,
    UpdateSequence,
    coalesce_updates,
    group_updates_by_owner,
)
from repro.mpc.cluster import Cluster
from repro.mpc.metrics import MetricsLedger, UpdateSummary

__all__ = ["DynamicMPCAlgorithm"]


class DynamicMPCAlgorithm(abc.ABC):
    """Base class shared by all the dynamic algorithms in this package.

    A concrete algorithm owns a :class:`Cluster` sized by a
    :class:`DMPCConfig` and maintains its solution on the cluster's
    machines.  Drivers interact with it through three methods:

    * :meth:`preprocess` — load an initial graph and compute the initial
      solution (the paper allows ``O(log n)`` rounds for this);
    * :meth:`apply` — process one :class:`GraphUpdate`; every round spent on
      it is recorded in the ledger under a label
      ``"{kind}:{op}:{u}-{v}"``;
    * :meth:`apply_batch` — process several pending updates as one batch;
      the ledger scopes the batch so per-batch costs can be reported, and
      algorithms that can amortise communication across compatible updates
      override :meth:`_apply_batch` (the default falls back to applying the
      updates sequentially inside the batch scope);
    * :meth:`apply_sequence` — convenience loop over an update sequence,
      optionally chunked into batches.

    Subclasses must implement ``_preprocess``, ``_apply`` and
    ``verify_invariants``, keep the current graph in ``shadow``, and may
    expose solution accessors (``matching()``, ``components()`` ...).  Every
    entry point refuses an input past the config's capacity before any round.
    """

    #: label prefix used in the metrics ledger for updates of this algorithm
    kind: str = "dmpc"

    def __init__(
        self,
        config: DMPCConfig,
        *,
        check_invariants: bool = False,
        coalesce: bool = False,
    ) -> None:
        self.config = config
        self.cluster = Cluster(config)
        self.check_invariants = check_invariants
        #: whether :meth:`apply_batch` coalesces every batch
        self.coalesce = coalesce
        self._preprocessed = False
        self._updates_seen = 0  # through apply / apply_batch: a refusal names its index
        #: running totals across all coalesced batches, for bench provenance
        self.coalesce_totals: dict[str, int] = {
            "input": 0,
            "output": 0,
            "cancelled_pairs": 0,
            "deduped": 0,
        }

    # ------------------------------------------------------------------ hooks
    @abc.abstractmethod
    def _preprocess(self, graph: DynamicGraph) -> None:
        """Algorithm-specific preprocessing (initial solution computation)."""

    @abc.abstractmethod
    def _apply(self, update: GraphUpdate) -> None:
        """Algorithm-specific handling of one update (already inside a ledger scope)."""

    # ----------------------------------------------------------------- driver
    @property
    def ledger(self) -> MetricsLedger:
        """The metrics ledger recording rounds / machines / communication."""
        return self.cluster.ledger

    def preprocess(self, graph: DynamicGraph) -> None:
        """Initialise the maintained solution from ``graph``."""
        if self._preprocessed:
            raise RuntimeError("preprocess() may only be called once")
        self._check_graph(graph)
        with self.cluster.update(f"{self.kind}:preprocess"):
            self._preprocess(graph)
        self._preprocessed = True

    def apply(self, update: GraphUpdate) -> None:
        """Process one dynamic update, recording its cost in the ledger."""
        self._check_capacity([update], self._updates_seen, {id(update): 0})
        self._updates_seen += 1
        if not self._preprocessed:
            # Algorithms that start from the empty graph are preprocessed lazily.
            self.preprocess(DynamicGraph())
        label = f"{self.kind}:{update.op}:{update.u}-{update.v}"
        with self.cluster.update(label):
            self._apply(update)
        if self.check_invariants:
            self.verify_invariants()

    def apply_batch(self, updates: UpdateSequence | list[GraphUpdate]) -> None:
        """Process a batch of pending updates, recording it as one ledger batch.

        The batch is semantically equivalent to applying the updates in
        order with :meth:`apply`; what changes is the *cost*: algorithms
        overriding :meth:`_apply_batch` merge the communication of
        compatible updates so a batch of ``k`` updates can cost far fewer
        rounds than ``k`` separate applications.

        With the constructor's ``coalesce`` on (default off) the batch is
        first normalized by :func:`~repro.graph.updates.coalesce_updates` —
        insert/delete pairs on the same edge cancel, structural no-ops dedupe
        — and the survivors are grouped by owning machine when the algorithm
        exposes ``owner()``.  The final graph is unchanged; round records may
        only shrink (asserted against sequential replay of the same
        normalized stream in ``tests/dynamic_mpc``).  Coalescing is off
        unless asked for because cancelling a pair changes which
        intermediate solutions the algorithm sees: a matching or spanning
        forest may legitimately differ from the one the raw stream reaches.
        """
        raw = list(updates)
        if not raw:
            return
        updates, stats = self.normalize_batch(raw) if self.coalesce else (raw, None)
        # counted on what is applied, each update named by its raw position
        self._check_capacity(updates, self._updates_seen, {id(update): i for i, update in enumerate(raw)})
        self._updates_seen += len(raw)
        if not self._preprocessed:
            self.preprocess(DynamicGraph())
        if stats is not None:
            for key in self.coalesce_totals:
                self.coalesce_totals[key] += stats[key]
            if not updates:
                return
        with self.cluster.batch():
            self._apply_batch(updates)
        if self.check_invariants:
            self.verify_invariants()

    def _check_graph(self, graph: DynamicGraph) -> None:
        """Refuse an initial graph with a vertex id ``>= capacity_n`` or more than ``capacity_m`` edges."""
        n, m = self.config.capacity_n, self.config.capacity_m
        vertex = max(graph.vertices, default=-1)
        if vertex >= n or graph.num_edges > m:
            raise CapacityExceeded(vertex, graph.num_edges, n, m, None)

    def _check_capacity(self, updates: list[GraphUpdate], first: int, position: dict[int, int]) -> None:
        """Refuse ``updates``, replayed on ``shadow``, if one names a vertex or holds an edge past capacity."""
        n, m = self.config.capacity_n, self.config.capacity_m
        edges, present = self.shadow.num_edges, {}
        for update in updates:
            edge, vertex = update.edge, max(update.u, update.v)
            was = present[edge] if edge in present else self.shadow.has_edge(*edge)
            present[edge] = update.is_insert
            edges += update.is_insert - was
            if vertex >= n or edges > m:
                raise CapacityExceeded(vertex, edges, n, m, first + position[id(update)])

    def normalize_batch(self, updates: UpdateSequence | list[GraphUpdate]) -> tuple[list[GraphUpdate], dict]:
        """The exact update list a ``coalesce=True`` batch applies, plus stats.

        Exposed so benchmarks and tests can replay the normalized stream
        sequentially and assert bit-identity against the batched run: the
        survivors of :func:`~repro.graph.updates.coalesce_updates`, grouped
        by owning machine when the algorithm exposes ``owner()``.  Survivors
        naming a vertex id past ``capacity_n`` stay ungrouped: no machine
        owns that id, and the batch is refused.
        """
        updates, stats = coalesce_updates(list(updates))
        owner = getattr(self, "owner", None)
        if owner is not None and updates and max(max(u.u, u.v) for u in updates) < self.config.capacity_n:
            updates = group_updates_by_owner(updates, owner)
        return updates, stats

    def _apply_batch(self, updates: list[GraphUpdate]) -> None:
        """Batch hook; the default applies the updates sequentially.

        Subclasses override this to merge communication across the batch.
        Overrides must open ledger update scopes themselves (either one per
        update, as here, or one per merged group, labelled
        ``"{kind}:batch:..."`` so :meth:`update_summary` finds them).
        """
        self._apply_batch_sequential(updates)

    def _apply_batch_sequential(self, updates: list[GraphUpdate]) -> None:
        """The sequential fallback, available to subclasses that opt out."""
        for update in updates:
            label = f"{self.kind}:{update.op}:{update.u}-{update.v}"
            with self.cluster.update(label):
                self._apply(update)

    def apply_sequence(self, updates: UpdateSequence | list[GraphUpdate], *, batch_size: int | None = None) -> None:
        """Process an entire update sequence (optionally in batches of ``batch_size``)."""
        if batch_size is not None:
            if batch_size < 1:
                raise ValueError("batch_size must be positive")
            from repro.graph.updates import batched

            for chunk in batched(updates, batch_size):
                self.apply_batch(chunk)
            return
        for update in updates:
            self.apply(update)

    # ------------------------------------------------------------ diagnostics
    @abc.abstractmethod
    def verify_invariants(self) -> None:
        """Assert the maintained solution against a reference.

        Runs after every update and batch when ``check_invariants`` is on.
        """

    def update_summary(self) -> UpdateSummary:
        """Cost summary over all *dynamic updates* (preprocessing excluded).

        Batched groups (recorded under ``"{kind}:batch:..."`` labels) count
        as updates here; per-batch aggregates come from the ledger's
        :meth:`~repro.mpc.metrics.MetricsLedger.batch_summary`.
        """
        return self.ledger.summary(self._update_prefixes())

    def update_round_total(self) -> int:
        """Total synchronous rounds spent on dynamic updates (preprocessing excluded)."""
        return self.ledger.total_rounds(self._update_prefixes())

    def _update_prefixes(self) -> tuple[str, ...]:
        return (f"{self.kind}:insert", f"{self.kind}:delete", f"{self.kind}:batch")

    def preprocessing_summary(self) -> UpdateSummary:
        """Cost summary of the preprocessing phase alone."""
        return self.ledger.summary(f"{self.kind}:preprocess")
