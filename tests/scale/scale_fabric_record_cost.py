"""Cost guard: what a maximal-matching update costs the edge machines' storage, counted, not clocked.

Outside tier-1 — the file is named like ``benchmarks/bench_*.py`` so the bare
``pytest`` run does not collect it; run it by path (≈ 8 s):

    PYTHONPATH=src python -m pytest -q -s tests/scale/scale_fabric_record_cost.py

Section 3's edge machines learn about updates lazily: every contact replays
the coordinator's unseen history suffix over the records the machine holds,
and every edge-copy change rewrites them.  Three deterministic counts per
update of ``DMPCMaximalMatching`` on ``fast`` over the ``mm-stream`` inputs
(``gnm(1 024, 2 048, seed=2019)`` and the 8 000-update mixed stream drawn
from seed 2 020), events of a ``sys.setprofile`` hook on the named code
objects, preprocessing excluded:

* ``CachedStorage.load`` calls;
* ``CachedStorage.store`` calls;
* ``fast_word_size`` calls, from every caller.

Each bound is the value measured with one vertex-indexed ``EdgeTable`` per
edge machine and one history-contact primitive + 20 %: 12.23 loads, 7.15
stores and 2.98 sizer calls.  ``add_edge_copy`` reads the alive table for the
row length and its ``add-edge`` contact loads the target's table again: 10.94
loads per update (10.19 when the placement reused the alive handle).  The
guard fails on the layout it replaced, one storage key per record
(``("adj", v)`` → ``{w: True}``, ``("status", w)`` → mate), which made
79.6 loads, 10.7 stores and 6.4 sizer calls per update: replay probed two
keys per entry, and every changed row was copied and re-sized.
"""

from __future__ import annotations

import sys

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching
from repro.graph import gnm_random_graph
from repro.graph.streams import mixed_stream
from repro.mpc import sizing
from repro.runtime.fast import CachedStorage

N = 1024
UPDATES = 8000
SEED = 2019
#: per update, measured with the edge table: one table load per contact, one commit per changed
#: table, a sizer walk only where a commit mints a fresh handle
MEASURED_LOADS = 10.19
MEASURED_STORES = 5.96
MEASURED_SIZER_CALLS = 2.48
SLACK = 1.2

COUNTED = {
    CachedStorage.load.__code__: "load",
    CachedStorage.store.__code__: "store",
    sizing.fast_word_size.__code__: "sizer",
}


def test_storage_calls_per_matching_update():
    graph = gnm_random_graph(N, 2 * N, seed=SEED)
    stream = mixed_stream(N, UPDATES, seed=SEED + 1, insert_probability=0.5, initial=graph)
    algorithm = DMPCMaximalMatching(DMPCConfig.for_graph(N, 4 * N, backend="fast"))
    algorithm.preprocess(graph.copy())

    counts = dict.fromkeys(COUNTED.values(), 0)

    def hook(frame, event, _arg):
        if event == "call":
            name = COUNTED.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(hook)
    try:
        for update in stream:
            algorithm.apply(update)
    finally:
        sys.setprofile(None)
    algorithm.verify_invariants()

    per_update = {name: count / len(stream) for name, count in counts.items()}
    bounds = {"load": MEASURED_LOADS * SLACK, "store": MEASURED_STORES * SLACK, "sizer": MEASURED_SIZER_CALLS * SLACK}
    print(
        f"\n{len(stream)} updates: "
        + ", ".join(f"{name} {per_update[name]:.2f} per update (bound {bounds[name]:.2f})" for name in bounds)
    )
    for name, bound in bounds.items():
        assert per_update[name] <= bound, f"{name}: {per_update[name]:.2f} per update > {bound:.2f}"
