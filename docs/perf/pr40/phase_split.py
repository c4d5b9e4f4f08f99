"""Loop CPU of ``cc-stream`` and where it goes, for one source tree.

    python3 docs/perf/pr40/phase_split.py TREE [REPEATS] [SEED]

Builds the ``cc-stream`` workload of ``TREE/bench`` (``TREE/src`` on the
path), runs its 2 000 ``apply`` calls ``REPEATS`` times (default 3) and
prints the least ``process_time`` of the loop, with the inclusive
``perf_counter`` seconds spent in each wrapped ``DMPCConnectivity`` phase
(and in the ``TourPairs`` passes, where the tree has them) during that
repeat.  The wrappers add their own cost to every phase, equally on both
trees; compare trees, not absolute seconds.
"""

from __future__ import annotations

import collections
import sys
import time

TREE = sys.argv[1]
REPEATS = int(sys.argv[2]) if len(sys.argv) > 2 else 3
SEED = int(sys.argv[3]) if len(sys.argv) > 3 else 2019
sys.path[:0] = [TREE, TREE + "/src"]

from bench.workloads import _prepare_dynamic  # noqa: E402
from repro.dynamic_mpc.connectivity import DMPCConnectivity  # noqa: E402

spent: "collections.Counter[str]" = collections.Counter()


def timed(owner: type, name: str) -> None:
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - started

    setattr(owner, name, wrapper)


for phase in ("_insert", "_delete", "_endpoint_query", "_broadcast", "_find_replacement", "_commit_cut_link", "_commit_cut", "_commit_link"):
    timed(DMPCConnectivity, phase)
try:
    from repro.mpc.layout import TourPairs
except ImportError:  # a tree from before the pair map
    pass
else:
    for phase in ("inside", "cut_link", "cut", "link"):
        timed(TourPairs, phase)

best = None
for _ in range(REPEATS):
    spent.clear()
    prepared = _prepare_dynamic("cc-stream", SEED, "full")
    started = time.process_time()
    for call in prepared.calls:
        prepared.call(call)
    loop = time.process_time() - started
    if best is None or loop < best[0]:
        best = (loop, dict(spent))
print(f"loop_cpu_s {best[0]:.3f}  " + "  ".join(f"{name} {seconds:.3f}" for name, seconds in best[1].items()))
