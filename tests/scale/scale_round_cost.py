"""Cost guard: what a recorded round and a recorded update cost on ``fast``, counted, not clocked.

Outside tier-1 — the file is named like ``benchmarks/bench_*.py`` so the bare
``pytest`` run does not collect it; run it by path (≈ 4 s):

    PYTHONPATH=src python -m pytest -q -s tests/scale/scale_round_cost.py

The Section-3 matching algorithm runs ten rounds per update carrying little
more than one message each, so the simulator's fixed cost per round is what
``mm-stream`` measures.  Two deterministic counts over 10 000 rounds of one
pre-sized message, staged, exchanged and drained inside one open update:

* Python-level function calls per ``Cluster.exchange()`` (``call`` events of
  a ``sys.setprofile`` hook; C functions are not counted);
* bytes the ledger retains per recorded round (``tracemalloc``, interpreter
  build dependent by a few bytes).

The call bound is the count of the one-pass round engine filing its five
costs in one ledger call + 20 % (6 calls when the ledger took a record and
filed it in a second call; 10 before the one-pass engine).  The byte bound is the columnar ledger's
measurement + 20 %: five ``array("q")`` entries per round, 40.3 bytes.  The
ledger it replaced kept one ``RoundRecord`` per round and retained 183
bytes.

A third count follows the ledger through a real stream: bytes allocated in
``repro/mpc/metrics.py`` and still held after 2 000 ``DMPCMaximalMatching``
updates at n = 1 024 (the ``mm-stream`` inputs' first 2 000 updates),
per update — about ten rounds' columns plus an update's label slot, batch id
and first row.  Its bound is the measured 445.2 bytes + 20 %.  The
record-keeping ledger held 547 bytes there, plus 1 479 bytes of
``RoundRecord`` objects this filter cannot see: the transports allocated
them in ``repro/runtime/base.py``.
"""

from __future__ import annotations

import sys
import tracemalloc

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching
from repro.graph import gnm_random_graph
from repro.graph.streams import mixed_stream
from repro.mpc import Cluster

ROUNDS = 10_000
#: Cluster.exchange, FastTransport.exchange, Transport.deliver, MetricsLedger.file_round, RoundRecord.__init__
MEASURED_CALLS_PER_EXCHANGE = 5
#: one entry in each of the five array("q") cost columns
MEASURED_BYTES_PER_ROUND = 40.3
#: the matching stream's rounds per update (10.3) times a round's columns, plus one update's three column slots
MEASURED_BYTES_PER_UPDATE = 445.2
N = 1024
UPDATES = 2000
SEED = 2019
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


def test_ledger_bytes_per_matching_update():
    graph = gnm_random_graph(N, 2 * N, seed=SEED)
    stream = mixed_stream(N, UPDATES, seed=SEED + 1, insert_probability=0.5, initial=graph)
    algorithm = DMPCMaximalMatching(DMPCConfig.for_graph(N, 4 * N, backend="fast"))
    algorithm.preprocess(graph.copy())
    ledger_only = [tracemalloc.Filter(True, "*repro/mpc/metrics.py")]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(ledger_only)
        for update in stream:
            algorithm.apply(update)
        after = tracemalloc.take_snapshot().filter_traces(ledger_only)
    finally:
        tracemalloc.stop()
    assert algorithm.ledger.summary(f"{algorithm.kind}:").num_updates == UPDATES + 1  # + preprocessing
    per_update = sum(stat.size_diff for stat in after.compare_to(before, "filename")) / UPDATES
    print(f"\nledger bytes allocated and held per matching update: {per_update:.1f} (bound {MEASURED_BYTES_PER_UPDATE * SLACK:.1f})")
    assert per_update <= MEASURED_BYTES_PER_UPDATE * SLACK
