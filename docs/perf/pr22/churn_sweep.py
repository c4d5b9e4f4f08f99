"""Every-boundary invariants under dense churn: the sweep behind docs/perf/pr22/churn-sweep.txt.

    PYTHONPATH=src python docs/perf/pr22/churn_sweep.py maximal 4000 32,48,64 1 25
    PYTHONPATH=src python docs/perf/pr22/churn_sweep.py three-halves 3000 48,64,96 1 5

``gnm(n, 2n, seed=s)`` + ``mixed_stream(seed=s + 10)``, ``DMPCConfig.for_graph(n, 4n,
backend="fast")``, ``check_invariants=True`` (3/2 matching bootstrapped by insertions);
one line per run: n, s, then ``None`` or the index of the first update after which the
invariant failed and the end of its message.
"""

import sys

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching, DMPCThreeHalvesMatching
from repro.exceptions import InvariantViolation, ProtocolError
from repro.graph.generators import gnm_random_graph
from repro.graph.streams import mixed_stream


def first_failure(algorithm: str, n: int, seed: int, updates: int):
    graph = gnm_random_graph(n, 2 * n, seed=seed)
    stream = mixed_stream(n, updates, seed=seed + 10, insert_probability=0.5, initial=graph)
    config = DMPCConfig.for_graph(n, 4 * n, backend="fast")
    if algorithm == "maximal":
        alg = DMPCMaximalMatching(config, check_invariants=True)
        alg.preprocess(graph.copy())
    else:
        alg = DMPCThreeHalvesMatching(config, check_invariants=True)
        alg.bootstrap_from_graph(graph)
    for index, update in enumerate(stream):
        try:
            alg.apply(update)
        except (InvariantViolation, ProtocolError) as error:
            return index, str(error)[-48:]
    return None


def main(algorithm: str, updates: str, sizes: str, first_seed: str, end_seed: str) -> None:
    runs = [(int(n), seed) for n in sizes.split(",") for seed in range(int(first_seed), int(end_seed))]
    failed = 0
    for n, seed in runs:
        outcome = first_failure(algorithm, n, seed, int(updates))
        failed += outcome is not None
        print(n, seed, outcome, flush=True)
    print(f"{failed} of {len(runs)} runs failed")


if __name__ == "__main__":
    main(*sys.argv[1:])
