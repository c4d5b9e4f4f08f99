"""A digest of every ledger row, pair map and preprocessing rows included, per dynamic algorithm.

Runs connectivity, MST, maximal matching and 3/2 matching at n = 128 (600
mixed updates drawn from seed 6, over ``gnm(128, 256, seed=5)``, or over the
empty graph for 3/2) on one backend, with ``repro`` read from the given
``src/``, and prints per algorithm the row count and the first 16 hex digits
of a sha256 over the rows:

    python3 docs/perf/pr47/ledger_digests.py SRC_DIR BACKEND
"""

from __future__ import annotations

import hashlib
import json
import sys

N = 128


def main(src: str, backend: str) -> None:
    sys.path.insert(0, src)
    from repro.config import DMPCConfig
    from repro.dynamic_mpc import DMPCApproxMST, DMPCConnectivity, DMPCMaximalMatching, DMPCThreeHalvesMatching
    from repro.graph import DynamicGraph, gnm_random_graph, mixed_stream

    digests = {}
    for name, cls in (
        ("connectivity", DMPCConnectivity),
        ("mst", DMPCApproxMST),
        ("maximal", DMPCMaximalMatching),
        ("three-halves", DMPCThreeHalvesMatching),
    ):
        graph = DynamicGraph(N) if cls is DMPCThreeHalvesMatching else gnm_random_graph(N, 2 * N, seed=5)
        stream = list(mixed_stream(N, 600, seed=6, insert_probability=0.5, initial=graph))
        algorithm = cls(DMPCConfig.for_graph(N, 4 * N, backend=backend))
        algorithm.preprocess(graph.copy())
        for update in stream:
            algorithm.apply(update)
        rows = [
            (
                update.label,
                r.round_index,
                r.active_machines,
                r.total_words,
                r.message_count,
                r.max_message_words,
                sorted(r.pair_words.items()),
            )
            for update in algorithm.ledger.updates
            for r in update.rounds
        ]
        digests[name] = (len(rows), hashlib.sha256(json.dumps(rows, default=str).encode()).hexdigest()[:16])
    print(backend, json.dumps(digests))


if __name__ == "__main__":
    main(*sys.argv[1:])
