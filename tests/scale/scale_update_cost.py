"""Cost guard: the Python calls a maximal-matching update makes on ``fast``, counted, not clocked.

Outside tier-1 — the file is named like ``benchmarks/bench_*.py`` so the bare
``pytest`` run does not collect it; run it by path (≈ 3 s):

    PYTHONPATH=src python -m pytest -q -s tests/scale/scale_update_cost.py

Section 3 routes every update through the coordinator: about ten light rounds
of one or two messages each, a history contact with each edge machine the
update touches, and a statistics query and write-back.  What ``mm-stream``
measures is therefore the simulator's fixed cost per round and per contact.
This guard counts ``call`` events of a ``sys.setprofile`` hook (Python-level
function calls, generator resumptions included; C functions are not counted)
per ``DMPCMaximalMatching.apply`` over the first 2 000 updates of the
``mm-stream`` inputs (``gnm(1 024, 2 048, seed=2019)`` and the mixed stream
drawn from seed 2 020), preprocessing excluded.

Its bound is the count measured with one history-contact primitive, the
one-pass statistics path and the lean light round + 20 %: 273.4 calls per
update on CPython 3.10 and 3.11, 273.2 on 3.12.  The fabric before them made
362.7 (358.2 on 3.12, which inlines comprehensions): six copies of the contact sequence
(``_pending_history`` → send → exchange → ``_catch_up``), a payload dict and
a closed-form walk per statistics record, ``Cluster.machine`` lookups, a
sorted single-sender round and two ledger calls per round.
"""

from __future__ import annotations

import sys

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching
from repro.graph import gnm_random_graph
from repro.graph.streams import mixed_stream

N = 1024
UPDATES = 2000
SEED = 2019
#: Python calls per matching update, measured on CPython 3.10 and 3.11 (3.12: 273.2)
MEASURED_CALLS_PER_UPDATE = 273.4
SLACK = 1.2


def test_python_calls_per_matching_update():
    graph = gnm_random_graph(N, 2 * N, seed=SEED)
    stream = list(mixed_stream(N, UPDATES, seed=SEED + 1, insert_probability=0.5, initial=graph))
    algorithm = DMPCMaximalMatching(DMPCConfig.for_graph(N, 4 * N, backend="fast"))
    algorithm.preprocess(graph.copy())

    calls = 0

    def hook(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(hook)
    try:
        for update in stream:
            algorithm.apply(update)
    finally:
        sys.setprofile(None)
    algorithm.verify_invariants()

    per_update = calls / len(stream)
    bound = MEASURED_CALLS_PER_UPDATE * SLACK
    print(f"\n{len(stream)} updates: {per_update:.1f} Python calls per update (bound {bound:.1f})")
    assert per_update <= bound
