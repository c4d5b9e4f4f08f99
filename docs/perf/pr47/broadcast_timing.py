"""Per-call wall time of ``DMPCConnectivity._broadcast`` on the ``cc-stream`` loop.

Builds the ``cc-stream`` inputs (``gnm_random_graph(n, 2n, seed)`` and
2 000 ``mixed_stream`` updates at insert probability 0.5, ``backend="fast"``,
as ``bench/workloads.py`` does), wraps ``_broadcast`` with a ``perf_counter``
accumulator, applies the stream one update at a time and prints one JSON
line: the loop's seconds, the broadcasts that filed a round, their total
seconds and microseconds per call.  It reads ``repro`` from ``--src``, so one
script times any checkout:

    python3 docs/perf/pr47/broadcast_timing.py --src src --seed 2019
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter


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

    spent = [0, 0.0]
    broadcast = DMPCConnectivity._broadcast

    def timed(self, packets):
        started = perf_counter()
        try:
            return broadcast(self, packets)
        finally:
            if packets:
                spent[0] += 1
                spent[1] += perf_counter() - started

    DMPCConnectivity._broadcast = timed

    graph = gnm_random_graph(args.n, 2 * args.n, seed=args.seed)
    stream = list(mixed_stream(args.n, args.updates, seed=args.seed + 1, insert_probability=0.5, initial=graph))
    algorithm = DMPCConnectivity(DMPCConfig.for_graph(args.n, 4 * args.n, backend="fast"), layout="csr")
    algorithm.preprocess(graph.copy())
    spent[:] = [0, 0.0]
    started = perf_counter()
    for update in stream:
        algorithm.apply(update)
    loop_s = perf_counter() - started
    calls, seconds = spent
    print(
        json.dumps(
            {
                "src": args.src,
                "seed": args.seed,
                "loop_s": round(loop_s, 4),
                "broadcasts": calls,
                "broadcast_s": round(seconds, 4),
                "us_per_broadcast": round(1e6 * seconds / calls, 2) if calls else None,
            }
        )
    )


if __name__ == "__main__":
    main()
