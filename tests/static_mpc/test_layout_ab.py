"""The one static layout: pinned ledgers and solutions, frontier proposals, closed-form message sizes.

Until the CSR recut was the only layout, every static baseline also ran on
per-vertex dict stores, and the two agreed bit for bit on every backend.
What they agreed on is pinned here as one SHA-256 digest per baseline over
the per-update ``(label, rounds, words, max words per round, max active
machines)`` rows and the solution, recorded while both layouts still ran:
the CSR kernels on every execution backend must reproduce it, so the
seed's word charges stay pinned without a second implementation.  The
connected-components digest was re-pinned once since, when its proposals
shrank to the frontier (fewer words, same solution); a second digest per
baseline pins the solution alone, so re-pinning costs can never hide a
changed solution.

The frontier propose kernel is checked against proposals built straight
from the graph's adjacency, and the closed-form message sizes the CSR
kernels pass as ``words=`` (skipping the per-element sizing walk) must
equal what :func:`~repro.mpc.sizing.word_size` would have charged for the
same tag and payload — the invariant the kernel docstrings defer to this
file for.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.mpc.program import WorkerMachineContext
from repro.mpc.sizing import fast_word_size, word_size
from repro.static_mpc import StaticBoruvkaMST, StaticConnectedComponents, StaticMaximalMatching
from repro.static_mpc.common import build_static_cluster
from repro.static_mpc.connected_components import CSRLabelProposeProgram

BACKENDS = ("reference", "fast", "resident", "resident-shm")

RESIDENT_SLOTS = 2


def backend_kwargs(backend: str) -> dict:
    if backend == "resident-shm":
        return {"backend": "resident", "resident_slots": RESIDENT_SLOTS}
    return {"backend": backend}


def ledger_digest(ledger, solution) -> str:
    """SHA-256 over the per-update cost rows and the solution (``repr`` of both)."""
    rows = [(u.label, u.num_rounds, u.total_words, u.max_words_per_round, u.max_active_machines) for u in ledger.updates]
    return hashlib.sha256(repr((rows, solution)).encode()).hexdigest()


def solution_digest(solution) -> str:
    """SHA-256 over the solution alone (``repr``)."""
    return hashlib.sha256(repr(solution).encode()).hexdigest()


class TestPinnedLedgers:
    """Every backend reproduces the pinned ledger and, separately, the pinned solution."""

    #: name -> (constructor, solution, ledger + solution digest, solution-only digest)
    CASES = {
        "connected_components": (
            lambda **kw: StaticConnectedComponents(gnm_random_graph(48, 100, seed=11), **kw),
            lambda a: (sorted(a.labels.items()), sorted(a.spanning_forest()), a.rounds_used),
            "5611402de5aa8afbfd9a5e841ada092a6247c34420e03cd794a55224e7705db6",
            "1182ea9956e8aba93450b14f6e84a68f5958f94289bfc1706b1d9bb1849c1205",
        ),
        "maximal_matching": (
            lambda **kw: StaticMaximalMatching(gnm_random_graph(44, 110, seed=23), seed=23, **kw),
            lambda a: (sorted(a.matching), a.rounds_used),
            "99be7992c40ec0367f1e6706cf16ce144ce80674791a35ae1fb02a6ea6474d68",
            "6696ad070a029b6bfe16f9dbe39aaeda50dbd870d563b03292983d2811a66ba3",
        ),
        "boruvka_mst": (
            lambda **kw: StaticBoruvkaMST(random_weighted_graph(40, 90, seed=31), **kw),
            lambda a: (sorted(a.forest), a.phases_used),
            "f4350b9c3fe114722ac511c1d2e9d67c2c3ab31fe5555e079c58895d15a12691",
            "9bc1c3482e019ddac9aa7379f09bcf08792de3d75b1fbb0c87dc350f1fceb9e0",
        ),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_ledger_matches_the_pinned_digest(self, name, backend):
        make, solution, pinned_ledger, pinned_solution = self.CASES[name]
        algorithm = make(**backend_kwargs(backend))
        algorithm.run()
        assert solution_digest(solution(algorithm)) == pinned_solution
        assert ledger_digest(algorithm.cluster.ledger, solution(algorithm)) == pinned_ledger


class TestFrontierProposals:
    """The frontier walk stages, message for message, the graph-built proposals of its frontier.

    One propose round per machine, recorded through :class:`WorkerMachineContext`
    (so nothing else of the superstep machinery is in the way), against
    expectations built inline from ``graph.neighbors``: per owned vertex in
    owned order that is in the frontier, per neighbour ascending, a
    ``(neighbour, label, source)`` triple for the neighbour's owner —
    receivers in first-appearance order, each message charged what the
    sizer charges.  With the full frontier that is the dict layout's
    per-vertex loop.  Labels are scrambled so a label gathered from the
    wrong row cannot pass, and the frontier is handed over shuffled so a
    walk in frontier order instead of row order cannot pass either.
    """

    @pytest.mark.parametrize("frontier_share", [1.0, 0.4, 0.0], ids=["full", "random", "empty"])
    @pytest.mark.parametrize("num_workers", [2, 3, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_per_target_messages(self, num_workers, seed, frontier_share):
        n = 24 + 5 * seed
        graph = gnm_random_graph(n, 2 * n + seed, seed=100 + seed)
        rng = random.Random(seed)
        labels = {v: rng.randrange(10 * n) for v in graph.vertices}
        setup = build_static_cluster(graph, num_workers=num_workers, backend="reference", weighted=False)
        program = CSRLabelProposeProgram(setup.owned, setup.worker_ids)
        frontier = {
            machine_id: rng.sample(owned, round(frontier_share * len(owned)))
            for machine_id, owned in setup.owned.items()
        }
        proposed = 0
        for machine_id in setup.worker_ids:
            expected: dict[str, list[tuple[int, int, int]]] = {}
            for v in setup.owned_vertices(machine_id):
                if v not in frontier[machine_id]:
                    continue
                for w in sorted(graph.neighbors(v)):
                    expected.setdefault(setup.owner(w), []).append((w, labels[v], v))
            ctx = WorkerMachineContext(machine_id, dict(setup.cluster.machine(machine_id).items()))
            assert program.run(ctx, [], {"labels": labels, "frontier": frontier}) is None
            assert [(receiver, tag, payload) for receiver, tag, payload, _words in ctx.sent] == [
                (target, "label-proposal", items) for target, items in expected.items()
            ]
            for _receiver, tag, payload, words in ctx.sent:
                assert words == word_size(tag) + word_size(payload)
            proposed += sum(len(items) for items in expected.values())
        # non-vacuous: the full frontier proposes along every edge in both directions
        if frontier_share == 1.0:
            assert proposed == 2 * graph.num_edges
        elif frontier_share == 0.0:
            assert proposed == 0
        else:
            assert 0 < proposed < 2 * graph.num_edges


class TestClosedFormWords:
    """The ``words=`` closed forms equal the sizer's charge, element for element.

    A message's charged size is ``sizer(tag) + sizer(payload)``
    (:meth:`Machine.send`); the CSR kernels pre-size their sends with the
    closed forms below, so these equalities are what keeps the pinned ledgers
    above the seed's charges rather than a coincidence.
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
        # Driver-side merge broadcast (StaticBoruvkaMST.run), pre-sized:
        # recursively sizing the same list once per receiver dominated every
        # phase.
        payload = [(v, v + 1) for v in range(k)]
        assert sizer("mst-merges") + sizer(payload) == 3 + 3 * k
