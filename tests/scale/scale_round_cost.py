"""Cost guard: what a one-message round costs on ``fast``, counted, not clocked.

Outside tier-1 — the file is named like ``benchmarks/bench_*.py`` so the bare
``pytest`` run does not collect it; run it by path (≈ 2 s):

    PYTHONPATH=src python -m pytest -q -s tests/scale/scale_round_cost.py

The Section-3 matching algorithm runs ten rounds per update carrying little
more than one message each, so the simulator's fixed cost per round is what
``mm-stream`` measures.  Two deterministic counts over 10 000 rounds of one
pre-sized message, staged, exchanged and drained inside one open update:

* Python-level function calls per ``Cluster.exchange()`` (``call`` events of
  a ``sys.setprofile`` hook; C functions are not counted);
* bytes the ledger retains per recorded round (``tracemalloc``, interpreter
  build dependent by a few bytes).

Each bound is the value PR 23 measured + 20 %; the parent commit measured
above both (``docs/perf/pr23/README.md``: 10 calls, 231 bytes).
"""

from __future__ import annotations

import sys
import tracemalloc

from repro.config import DMPCConfig
from repro.mpc import Cluster

ROUNDS = 10_000
#: PR 23: Cluster.exchange, FastTransport.exchange, Transport.deliver, RoundRecord.__init__,
#: MetricsLedger.append_round, MetricsLedger._file_round
MEASURED_CALLS_PER_EXCHANGE = 6
#: PR 23: one slotted RoundRecord, its (empty) pair_words dict, its round index and its list slot
MEASURED_BYTES_PER_ROUND = 184
SLACK = 1.2


def run_rounds(rounds: int, around_exchange=None) -> Cluster:
    cluster = Cluster(DMPCConfig(capacity_n=64, capacity_m=128, backend="fast"))
    sender, receiver = cluster.add_machine("a"), cluster.add_machine("b")
    with cluster.update("probe"):
        for _ in range(rounds):
            sender.send("b", "t", None, words=3)
            if around_exchange is None:
                cluster.exchange()
            else:
                around_exchange(cluster.exchange)
            receiver.drain("t")
    return cluster


def test_python_calls_per_exchange():
    calls = 0
    counting = False

    def hook(_frame, event, _arg):
        nonlocal calls
        if counting and event == "call":
            calls += 1

    def counted(exchange):
        nonlocal counting
        counting = True
        exchange()
        counting = False

    sys.setprofile(hook)
    try:
        cluster = run_rounds(ROUNDS, counted)
    finally:
        sys.setprofile(None)
    assert cluster.ledger.total_rounds() == ROUNDS
    per_exchange = calls / ROUNDS
    print(f"\npython calls per Cluster.exchange(): {per_exchange:g} (bound {MEASURED_CALLS_PER_EXCHANGE * SLACK:g})")
    assert per_exchange == int(per_exchange), "the count is deterministic: every round takes the same path"
    assert per_exchange <= MEASURED_CALLS_PER_EXCHANGE * SLACK


def test_bytes_retained_per_recorded_round():
    run_rounds(100)  # imports, caches and first-use allocations happen here
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cluster = run_rounds(ROUNDS)
        after, _ = tracemalloc.get_traced_memory()
        empty = run_rounds(0)
        baseline, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cluster.ledger.total_rounds() == ROUNDS and empty.ledger.total_rounds() == 0
    per_round = (after - before - (baseline - after)) / ROUNDS  # less what a cluster costs with no round recorded
    print(f"\nbytes retained per recorded round: {per_round:.1f} (bound {MEASURED_BYTES_PER_ROUND * SLACK:.1f})")
    assert per_round <= MEASURED_BYTES_PER_ROUND * SLACK
