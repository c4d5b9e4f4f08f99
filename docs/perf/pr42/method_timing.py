"""Per-method wall time of the tour index passes on the ``cc-stream`` loop.

Builds the ``cc-stream`` inputs (``gnm_random_graph(n, 2n, seed)`` and
2 000 ``mixed_stream`` updates at insert probability 0.5, ``backend="fast"``,
as ``bench/workloads.py`` does), wraps ``TourPairs.inside`` / ``cut_link`` /
``link`` / ``cut`` with ``perf_counter`` accumulators, applies the stream one
update at a time and prints one JSON line: per method, calls and seconds, and
the loop's own seconds.  It reads ``repro`` from ``--src``, so one script
times any checkout:

    python3 docs/perf/pr42/method_timing.py --src src --seed 2019
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

METHODS = ("inside", "cut_link", "link", "cut")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", default="src", help="the checkout's src/ directory")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--updates", type=int, default=2000)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from repro.config import DMPCConfig
    from repro.dynamic_mpc import DMPCConnectivity
    from repro.graph import gnm_random_graph, mixed_stream
    from repro.mpc.layout import TourPairs

    spent = {name: [0, 0.0] for name in METHODS}

    def timed(name, method):
        def wrapper(*a, **k):
            started = perf_counter()
            try:
                return method(*a, **k)
            finally:
                spent[name][0] += 1
                spent[name][1] += perf_counter() - started

        return wrapper

    for name in METHODS:
        setattr(TourPairs, name, timed(name, getattr(TourPairs, name)))

    graph = gnm_random_graph(args.n, 2 * args.n, seed=args.seed)
    stream = list(mixed_stream(args.n, args.updates, seed=args.seed + 1, insert_probability=0.5, initial=graph))
    algorithm = DMPCConnectivity(DMPCConfig.for_graph(args.n, 4 * args.n, backend="fast"), layout="csr")
    algorithm.preprocess(graph.copy())
    for counts in spent.values():
        counts[:] = [0, 0.0]
    started = perf_counter()
    for update in stream:
        algorithm.apply(update)
    loop_s = perf_counter() - started
    record = {"src": args.src, "seed": args.seed, "loop_s": round(loop_s, 4)}
    record.update({name: {"calls": calls, "s": round(seconds, 4)} for name, (calls, seconds) in spent.items()})
    print(json.dumps(record))


if __name__ == "__main__":
    main()
