"""Scale check: the Section 3 / 4 matching algorithms under dense churn and in N.

Outside tier-1 — named like ``scale_preprocess.py`` so the bare ``pytest`` run
does not collect it; run it by path (≈ 30 s):

    PYTHONPATH=src python -m pytest -q -s tests/scale/scale_matching_churn.py

Two checks, both of which fail on the parent of PR 22:

* **Dense churn.**  ``DMPCMaximalMatching`` on ``gnm(n, 2n, seed=s)`` + 4 000
  ``mixed_stream(seed=s + 10)`` updates at n in {32, 48, 64} × 8 seeds
  (updates ≫ n, so every edge is deleted and re-inserted many times), maximal
  at *every* update boundary.  Before an empty machine was stamped current at
  allocation its first contact replayed the whole history buffer over records
  that had been placed current, and an old ``delete`` dropped the live copy of
  a re-inserted edge: 18 of these 24 runs lost maximality (46 of 72 over seeds
  1–24).  One run in those 72 still does, ``(n, s) = (64, 2)`` at update
  3 766, by the cause ROADMAP item 1 keeps: ``move_vertex_edges`` places
  current records on an *existing* light machine that is a few entries
  behind.  It is why the sweep starts at seed 3, and it is kept below as a
  strict ``xfail`` so the PR that fixes it finds its recipe here.
* **Table 1, as an assertion.**  2 000 ``mixed_stream`` updates on
  ``gnm(n, 2n)`` at n in {256, 1 024, 4 096} (S = 576 / 1 152 / 2 304): the
  largest round of any update carries at most ``1.0 × S`` words for maximal
  matching and ``1.25 × S`` for 3/2 matching (bootstrapped by insertions,
  which count), grows with a log-log slope of at most 0.6 in n (O(sqrt N) is
  0.5), and rounds per update stay within ±0.3 of the n = 1 024 value (O(1)).
  The parent shipped the whole buffer to every fresh machine: 15–17 × S.
  The 3/2 constant is that of this seed: its largest round is a fan-out to
  O(n / sqrt N) machines with one unseen suffix each, and over twelve seeds
  it is 0.94–1.67 × S at n = 256, 0.62–1.07 at 1 024, 0.72–1.01 at 4 096
  (``docs/perf/pr22/``); maximal matching stayed under 0.75 × S on every
  seed tried.

``bench/scale.py`` (ROADMAP item 3c) supersedes the second check once a
``[benchmark]`` PR adds it.
"""

from __future__ import annotations

import pytest

from repro.analysis.shapes import growth_ratio
from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching, DMPCThreeHalvesMatching
from repro.exceptions import InvariantViolation
from repro.graph.generators import gnm_random_graph
from repro.graph.streams import mixed_stream
from repro.graph.validation import has_length3_augmenting_path, is_maximal_matching

CHURN_SIZES = (32, 48, 64)
CHURN_SEEDS = range(3, 11)
#: the one run of seeds 1–24 that still loses maximality (stale existing target)
STALE_TARGET_RUN = (64, 2)
CHURN_UPDATES = 4000

SIZES = (256, 1024, 4096)
NUM_UPDATES = 2000
#: c in "max words per round <= c * S", per algorithm
WORDS_PER_ROUND_OVER_S = {"maximal": 1.0, "three-halves": 1.25}
MAX_LOGLOG_SLOPE = 0.6
ROUNDS_PER_OP_TOLERANCE = 0.3


def first_violation(n: int, seed: int) -> int | None:
    """Index of the first update after which the matching is not maximal."""
    graph = gnm_random_graph(n, 2 * n, seed=seed)
    stream = mixed_stream(n, CHURN_UPDATES, seed=seed + 10, insert_probability=0.5, initial=graph)
    alg = DMPCMaximalMatching(DMPCConfig.for_graph(n, 4 * n, backend="fast"), check_invariants=True)
    alg.preprocess(graph.copy())
    for index, update in enumerate(stream):
        try:
            alg.apply(update)
        except InvariantViolation:
            return index
    return None


def test_maximal_at_every_boundary_under_dense_churn():
    failures = {(n, seed): first_violation(n, seed) for n in CHURN_SIZES for seed in CHURN_SEEDS}
    failed = {run: index for run, index in failures.items() if index is not None}
    print(f"\ndense churn: {len(failed)} of {len(failures)} runs lost maximality {failed or ''}")
    assert not failed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: records moved onto a stale existing light machine")
def test_known_leftover_stale_existing_target():
    assert first_violation(*STALE_TARGET_RUN) is None


def run_one(algorithm: str, n: int) -> dict:
    graph = gnm_random_graph(n, 2 * n, seed=2019)
    stream = mixed_stream(n, NUM_UPDATES, seed=2020, insert_probability=0.5, initial=graph)
    config = DMPCConfig.for_graph(n, 4 * n, backend="fast")
    if algorithm == "maximal":
        alg = DMPCMaximalMatching(config)
        alg.preprocess(graph.copy())
    else:
        alg = DMPCThreeHalvesMatching(config)
        alg.bootstrap_from_graph(graph)
    rounds_before = alg.update_round_total()
    for update in stream:
        alg.apply(update)
    return {
        "alg": alg,
        "S": config.machine_memory,
        "rounds_per_op": (alg.update_round_total() - rounds_before) / NUM_UPDATES,
        "max_words_per_round": alg.update_summary().max_words_per_round,
    }


@pytest.mark.parametrize("algorithm", list(WORDS_PER_ROUND_OVER_S))
def test_words_per_round_stay_under_S_and_rounds_stay_flat(algorithm):
    runs = {n: run_one(algorithm, n) for n in SIZES}
    print()
    for n, run in runs.items():
        print(
            f"{algorithm} n={n}: max {run['max_words_per_round']} words/round "
            f"({run['max_words_per_round'] / run['S']:.2f} x S, S = {run['S']}), {run['rounds_per_op']:.2f} rounds/op"
        )

    for n, run in runs.items():
        alg = run["alg"]
        matching = alg.matching()
        assert is_maximal_matching(alg.shadow, matching), n
        if algorithm == "three-halves":
            # reported, not asserted: the length-3 failures are ROADMAP item 1's
            print(f"three-halves n={n}: length-3 augmenting path left: {has_length3_augmenting_path(alg.shadow, matching)}")
        bound = WORDS_PER_ROUND_OVER_S[algorithm] * run["S"]
        assert run["max_words_per_round"] <= bound, (n, run["max_words_per_round"], bound)
        assert abs(run["rounds_per_op"] - runs[1024]["rounds_per_op"]) <= ROUNDS_PER_OP_TOLERANCE, (n, run["rounds_per_op"])
    slope = growth_ratio(SIZES, [runs[n]["max_words_per_round"] for n in SIZES])
    print(f"{algorithm}: log-log slope of max words/round in n = {slope:.2f}")
    assert slope <= MAX_LOGLOG_SLOPE
