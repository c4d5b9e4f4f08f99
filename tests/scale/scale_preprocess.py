"""Scale check: seeding the Euler tours is linear in the input, up to n = 16 384.

Outside tier-1 — the file is named like ``benchmarks/bench_*.py`` so the bare
``pytest`` run does not collect it; run it by path (≈ 1 minute):

    PYTHONPATH=src python -m pytest -q tests/scale/scale_preprocess.py

Connectivity and (1+eps)-MST on ``gnm(n, 2n)`` at n in {1 024, 4 096, 16 384},
``fast`` backend: ``preprocess`` may grow by at most ×8 per ×4 in n (linear is
×4; the n − 1 incremental ``link`` calls it replaced grew ×17), and must stay
under 3 s at the largest size.  After it, 300 ``mixed_stream`` updates must
end in the oracle's partition and a spanning forest, with rounds per update
within ±0.3 of the n = 1 024 value (Table 1: O(1)) and never more active
machines in a round than there are workers.

This is the first test in the repository at n > 2 048.  ``bench/scale.py``
(ROADMAP item 3c) supersedes it once a ``[benchmark]`` PR adds it.
"""

from __future__ import annotations

import time

import pytest

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCApproxMST, DMPCConnectivity
from repro.graph.generators import gnm_random_graph, random_weighted_graph
from repro.graph.streams import mixed_stream
from repro.graph.validation import connected_components, is_spanning_forest, same_partition

SIZES = (1024, 4096, 16384)
NUM_UPDATES = 300
MAX_GROWTH_PER_X4 = 8.0
MAX_PREPROCESS_S = 3.0
ROUNDS_PER_OP_TOLERANCE = 0.3

CASES = {
    "connectivity": (DMPCConnectivity, gnm_random_graph, False),
    "mst": (DMPCApproxMST, random_weighted_graph, True),
}


def run_one(algorithm: str, n: int) -> dict:
    cls, generator, weighted = CASES[algorithm]
    graph = generator(n, 2 * n, seed=21)
    stream = mixed_stream(n, NUM_UPDATES, seed=22, insert_probability=0.5, initial=graph, weighted=weighted)
    # best of two: the first preprocess of a process also pays for cold caches
    preprocess_s = float("inf")
    for _ in range(2):
        alg = cls(DMPCConfig.for_graph(n, 4 * n, backend="fast"))
        started = time.perf_counter()
        alg.preprocess(graph.copy())
        preprocess_s = min(preprocess_s, time.perf_counter() - started)
    alg.verify_invariants()
    for update in stream:
        alg.apply(update)
    return {
        "alg": alg,
        "preprocess_s": preprocess_s,
        "rounds_per_op": alg.update_round_total() / NUM_UPDATES,
        "max_active_machines": alg.update_summary().max_active_machines,
    }


@pytest.mark.parametrize("algorithm", list(CASES))
def test_preprocess_is_linear_and_updates_keep_their_shape(algorithm):
    runs = {n: run_one(algorithm, n) for n in SIZES}
    print()
    for n, run in runs.items():
        print(
            f"{algorithm} n={n}: preprocess {run['preprocess_s']:.3f} s, "
            f"{run['rounds_per_op']:.2f} rounds/op, max {run['max_active_machines']} active machines "
            f"of {len(run['alg'].worker_ids)} workers"
        )

    for small, large in zip(SIZES, SIZES[1:]):
        growth = runs[large]["preprocess_s"] / runs[small]["preprocess_s"]
        assert growth <= MAX_GROWTH_PER_X4, f"preprocess grew x{growth:.1f} from n={small} to n={large}"
    assert runs[SIZES[-1]]["preprocess_s"] <= MAX_PREPROCESS_S

    base_rounds = runs[SIZES[0]]["rounds_per_op"]
    for n, run in runs.items():
        alg = run["alg"]
        assert same_partition(alg.components(), connected_components(alg.shadow))
        assert is_spanning_forest(alg.shadow, alg.spanning_forest())
        alg.verify_invariants()
        assert abs(run["rounds_per_op"] - base_rounds) <= ROUNDS_PER_OP_TOLERANCE, (n, run["rounds_per_op"], base_rounds)
        assert run["max_active_machines"] <= len(alg.worker_ids), (n, run["max_active_machines"])
