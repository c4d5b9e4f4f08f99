"""Layout A/B equivalence: the CSR recut must change nothing observable.

The flat-layout contract (:mod:`repro.mpc.layout`) extends the backend
contract one axis further: the *state layout* may change how a static
workload computes but never what it computes or what it charges.  These
tests pin that down — for each static baseline a dict-layout reference run
must agree bit-for-bit with CSR runs on every execution backend: solutions,
per-update round counts and total communicated words.  Storage footprint
is the one observable the layout legitimately changes (flat buffers pack
differently from per-vertex dict entries, in either direction at small
scale), so it is *not* compared across layouts here; per-machine
``used_words`` parity *across backends* for a fixed layout is pinned by
the backend-equivalence suite.

They also pin the closed-form message sizes the CSR kernels pass as
``words=`` (skipping the per-element sizing walk): the closed forms must
equal what :func:`~repro.mpc.sizing.word_size` would have charged for the
same tag and payload, for representative payload sizes — the invariant the
kernel docstrings defer to this file for.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.mpc.layout import (
    LAYOUT_ENV_VAR,
    VertexInterner,
    resolve_static_layout,
)
from repro.mpc.program import WorkerMachineContext
from repro.mpc.sizing import fast_word_size, word_size
from repro.static_mpc import StaticBoruvkaMST, StaticConnectedComponents, StaticMaximalMatching
from repro.static_mpc.common import build_static_cluster
from repro.static_mpc.connected_components import CSRLabelProposeProgram, LabelProposeProgram

BACKENDS = ("reference", "fast", "sharded", "parallel", "process", "resident", "resident-shm")

#: deliberately odd so it does not divide typical machine counts
SHARD_COUNT = 3
MAX_WORKERS = 2


def backend_kwargs(backend: str) -> dict:
    extra: dict = {}
    if backend == "resident-shm":
        extra["backend"] = "resident"
        extra["resident_slots"] = 2
    else:
        extra["backend"] = backend
    if backend in ("sharded", "parallel", "process", "resident", "resident-shm"):
        extra["shard_count"] = SHARD_COUNT
    if backend in ("parallel", "process", "resident", "resident-shm"):
        extra["max_workers"] = MAX_WORKERS
    return extra


def ledger_rows(algorithm) -> list[tuple[str, int, int]]:
    return [(u.label, u.num_rounds, u.total_words) for u in algorithm.cluster.ledger.updates]


class TestLayoutABEquivalence:
    """dict-layout reference run == CSR run, on every backend."""

    def assert_ab(self, make, solution, backend):
        baseline = make(layout="dict", backend="reference")
        baseline.run()
        candidate = make(layout="csr", **backend_kwargs(backend))
        candidate.run()
        assert solution(candidate) == solution(baseline)
        assert ledger_rows(candidate) == ledger_rows(baseline)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_connected_components_ab(self, backend):
        graph = gnm_random_graph(48, 100, seed=11)
        self.assert_ab(
            lambda **kw: StaticConnectedComponents(graph, **kw),
            lambda a: (a.labels, sorted(a.spanning_forest()), a.rounds_used),
            backend,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_maximal_matching_ab(self, backend):
        graph = gnm_random_graph(44, 110, seed=23)
        self.assert_ab(
            lambda **kw: StaticMaximalMatching(graph, seed=23, **kw),
            lambda a: (sorted(a.matching), a.rounds_used),
            backend,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_boruvka_mst_ab(self, backend):
        graph = random_weighted_graph(40, 90, seed=31)
        self.assert_ab(
            lambda **kw: StaticBoruvkaMST(graph, **kw),
            lambda a: (sorted(a.forest), a.phases_used),
            backend,
        )


class TestSendPlanEqualsDictLayoutProposals:
    """The CSR send plan stages, message for message, what the dict layout stages.

    One propose round per machine on both layouts, recorded through
    :class:`WorkerMachineContext` (so nothing else of the superstep machinery
    is in the way): same receivers in the same first-appearance order, same
    ``(neighbour, label, source)`` triples in the same order, and the CSR
    closed-form ``words`` equal to what the sizer charges the dict layout's
    unsized send.  Labels are scrambled so a label gathered from the wrong
    row cannot pass.
    """

    @pytest.mark.parametrize("num_workers", [2, 3, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_per_target_slices(self, num_workers, seed):
        n = 24 + 5 * seed
        graph = gnm_random_graph(n, 2 * n + seed, seed=100 + seed)
        rng = random.Random(seed)
        shared = {"labels": {v: rng.randrange(10 * n) for v in graph.vertices}}
        staged = {}
        for layout, program_cls in (("dict", LabelProposeProgram), ("csr", CSRLabelProposeProgram)):
            setup = build_static_cluster(graph, num_workers=num_workers, backend="reference", layout=layout, weighted=False)
            program = program_cls(setup.owned, setup.worker_ids)
            staged[layout] = {}
            for machine_id in setup.worker_ids:
                ctx = WorkerMachineContext(machine_id, dict(setup.cluster.machine(machine_id).items()))
                assert program.run(ctx, [], shared) is None
                staged[layout][machine_id] = [
                    (receiver, tag, payload, word_size(tag) + word_size(payload) if words is None else words)
                    for receiver, tag, payload, words in ctx.sent
                ]
        assert staged["csr"] == staged["dict"]
        # non-vacuous: every edge was proposed along in both directions
        assert sum(len(payload) for sends in staged["csr"].values() for _, _, payload, _ in sends) == 2 * graph.num_edges

    def test_plan_is_a_regrouping_of_the_csr_entries(self):
        graph = gnm_random_graph(40, 90, seed=5)
        setup = build_static_cluster(graph, num_workers=5, backend="reference", layout="csr", weighted=False)
        for machine_id in setup.worker_ids:
            csr = setup.machine_csr(machine_id)
            neighbours, sources, spans = csr.send_plan()
            assert sorted(zip(sources, neighbours)) == sorted(
                (v, w) for row, v in enumerate(csr.verts) for w in csr.indices[slice(*csr.row_bounds(row))]
            )
            # spans tile the plan, one per distinct target, each target's entries owned by it
            assert [start for _, start, _ in spans] == [0, *(stop for _, _, stop in spans)][:-1]
            assert (spans[-1][2] if spans else 0) == csr.num_entries
            assert len({pos for pos, _, _ in spans}) == len(spans)
            for pos, start, stop in spans:
                assert {setup.owner(w) for w in neighbours[start:stop]} == {setup.worker_ids[pos]}


class TestClosedFormWords:
    """The ``words=`` closed forms equal the sizer's charge, element for element.

    A message's charged size is ``sizer(tag) + sizer(payload)``
    (:meth:`Machine.send`); the CSR kernels pre-size their sends with the
    closed forms below, so these equalities are what keeps the A/B ledger
    comparison above exact rather than coincidental.
    """

    @pytest.mark.parametrize("sizer", [word_size, fast_word_size], ids=["reference", "fast"])
    @pytest.mark.parametrize("k", [1, 2, 7, 50])
    def test_label_proposal_is_3_plus_4k(self, sizer, k):
        payload = [(w, w + 1, w + 2) for w in range(k)]
        assert sizer("label-proposal") + sizer(payload) == 3 + 4 * k

    @pytest.mark.parametrize("sizer", [word_size, fast_word_size], ids=["reference", "fast"])
    @pytest.mark.parametrize("k", [1, 2, 7, 50])
    def test_propose_is_2_plus_3k(self, sizer, k):
        payload = [(v, v + 1) for v in range(k)]
        assert sizer("propose") + sizer(payload) == 2 + 3 * k

    @pytest.mark.parametrize("sizer", [word_size, fast_word_size], ids=["reference", "fast"])
    @pytest.mark.parametrize("k", [1, 2, 7, 50])
    def test_matched_status_is_3_plus_k(self, sizer, k):
        payload = list(range(k))
        assert sizer("matched-status") + sizer(payload) == 3 + k

    @pytest.mark.parametrize("sizer", [word_size, fast_word_size], ids=["reference", "fast"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_changed_flag_is_2(self, sizer, flag):
        assert sizer("changed") + sizer(flag) == 2

    @pytest.mark.parametrize("sizer", [word_size, fast_word_size], ids=["reference", "fast"])
    def test_mst_candidate_is_7(self, sizer):
        assert sizer("mst-candidate") + sizer((4, 0.5, 4, 9)) == 7

    @pytest.mark.parametrize("sizer", [word_size, fast_word_size], ids=["reference", "fast"])
    @pytest.mark.parametrize("k", [0, 1, 2, 7, 50])
    def test_mst_merges_is_3_plus_3k(self, sizer, k):
        # Driver-side merge broadcast (StaticBoruvkaMST.run), pre-sized for
        # both layouts: recursively sizing the same list once per receiver
        # dominated every phase.
        payload = [(v, v + 1) for v in range(k)]
        assert sizer("mst-merges") + sizer(payload) == 3 + 3 * k


class TestVertexInterner:
    def test_round_trip_preserves_order(self):
        vertices = [7, 3, 19, 0, 4]
        interner = VertexInterner(vertices)
        assert len(interner) == 5
        assert interner.vertices == vertices
        for position, v in enumerate(vertices):
            assert interner.dense(v) == position
            assert interner.vertex(position) == v

    def test_unknown_vertex_raises(self):
        interner = VertexInterner([1, 2])
        with pytest.raises(KeyError):
            interner.dense(99)

    def test_empty(self):
        assert len(VertexInterner([])) == 0


class TestResolveStaticLayout:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(LAYOUT_ENV_VAR, "csr")
        assert resolve_static_layout("dict") == "dict"

    def test_env_var_applies_when_unset(self, monkeypatch):
        monkeypatch.setenv(LAYOUT_ENV_VAR, "dict")
        assert resolve_static_layout() == "dict"

    def test_default_is_csr(self, monkeypatch):
        monkeypatch.delenv(LAYOUT_ENV_VAR, raising=False)
        assert resolve_static_layout() == "csr"

    def test_unknown_layout_raises(self):
        with pytest.raises(ValueError, match="unknown static layout"):
            resolve_static_layout("columnar")
