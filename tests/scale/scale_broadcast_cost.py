"""Cost guard: a connectivity broadcast is one closed-form charge on ``fast``, counted, not clocked.

Outside tier-1 — the file is named like ``benchmarks/bench_*.py`` so the bare
``pytest`` run does not collect it; run it by path (≈ 10 s):

    PYTHONPATH=src python -m pytest -q -s tests/scale/scale_broadcast_cost.py

Every link or cut of Section 5's connectivity costs one broadcast of O(1)
index-shift scalars from the aggregator to every other worker
(``DMPCConnectivity._broadcast``, tag ``tour-scalars``): one ledger row of
``workers − 1`` messages.  Nobody reads the packet, so the round is filed
in closed form by ``Cluster.broadcast`` — no ``Message`` is built, no inbox
is appended to or drained.  Over the first 400 updates of the ``cc-stream``
inputs (``gnm(n, 2n, seed=2019)`` and the mixed stream drawn from seed
2 020) at n = 1 024 (143 workers) and n = 4 096 (285 workers), a
``sys.setprofile`` hook counts, per ``_broadcast`` call:

* ``Message`` constructions — none;
* Python-level calls made inside it (``call`` events; C functions are not
  counted) — the same constant at both sizes (5 on CPython 3.11), so
  nothing in it runs once per worker.

The send loop it replaced built one ``Message`` per other worker, delivered
each through ``Transport.deliver`` and drained every worker's inbox: 142 and
284 messages, 294 and 578 calls per broadcast at the two sizes, which fails
both checks.
"""

from __future__ import annotations

import sys

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCConnectivity
from repro.graph import gnm_random_graph
from repro.graph.streams import mixed_stream
from repro.mpc import Message

SIZES = (1024, 4096)
UPDATES = 400
SEED = 2019

BROADCAST = DMPCConnectivity._broadcast.__code__
MESSAGE = Message.__init__.__code__


def broadcast_costs(n: int) -> tuple[int, list[tuple[int, int]]]:
    """The worker count and ``(Python calls, Message constructions)`` of every non-empty broadcast."""
    graph = gnm_random_graph(n, 2 * n, seed=SEED)
    stream = list(mixed_stream(n, UPDATES, seed=SEED + 1, insert_probability=0.5, initial=graph))
    algorithm = DMPCConnectivity(DMPCConfig.for_graph(n, 4 * n, backend="fast"))
    algorithm.preprocess(graph.copy())

    per_call: list[list[int]] = []
    depth = 0

    def hook(frame, event, _arg):
        nonlocal depth
        if event == "call":
            code = frame.f_code
            if code is BROADCAST:
                depth = 1
                per_call.append([0, 0])
            elif depth:
                depth += 1
                per_call[-1][0] += 1
                if code is MESSAGE:
                    per_call[-1][1] += 1
        elif event == "return" and depth:
            depth -= 1

    sys.setprofile(hook)
    try:
        for update in stream:
            algorithm.apply(update)
    finally:
        sys.setprofile(None)
    # an empty packet list returns before its one call: count the broadcasts that filed a round
    filed = [tuple(costs) for costs in per_call if costs[0]]
    return len(algorithm.worker_ids), filed


def test_a_broadcast_builds_no_message_and_costs_the_same_calls_at_any_worker_count():
    measured = {n: broadcast_costs(n) for n in SIZES}
    workers = {n: w for n, (w, _filed) in measured.items()}
    assert workers[SIZES[0]] < workers[SIZES[1]]
    for n, (w, filed) in measured.items():
        assert filed, f"n = {n}: the stream links or cuts a tree edge"
        print(
            f"\nn = {n}, {w} workers: {len(filed)} broadcasts, Python calls per broadcast "
            f"{sorted({calls for calls, _ in filed})}, Message constructions {sum(m for _, m in filed)}"
        )
    assert all(messages == 0 for _w, filed in measured.values() for _calls, messages in filed)
    calls = {calls for _w, filed in measured.values() for calls, _messages in filed}
    assert len(calls) == 1, f"Python calls per broadcast differ with the worker count: {sorted(calls)}"
