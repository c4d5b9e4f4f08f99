"""Retained bytes per matching update, allocated in repro/mpc/metrics.py and in every file: python3 docs/perf/pr34/ledger_bytes.py TREE"""
import sys, tracemalloc
sys.path[:0] = [sys.argv[1] + "/src"]
from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching
from repro.graph import gnm_random_graph
from repro.graph.streams import mixed_stream
N, UPDATES, SEED = 1024, 2000, 2019
graph = gnm_random_graph(N, 2 * N, seed=SEED)
stream = mixed_stream(N, UPDATES, seed=SEED + 1, insert_probability=0.5, initial=graph)
alg = DMPCMaximalMatching(DMPCConfig.for_graph(N, 4 * N, backend="fast"))
alg.preprocess(graph.copy())
tracemalloc.start(1)
before = tracemalloc.take_snapshot()
for u in stream:
    alg.apply(u)
after = tracemalloc.take_snapshot()
tracemalloc.stop()
stats = after.compare_to(before, "filename")
tot = sum(s.size_diff for s in stats) / UPDATES
met = sum(s.size_diff for s in stats if s.traceback[0].filename.endswith("repro/mpc/metrics.py")) / UPDATES
print(f"{sys.argv[1]}: metrics.py {met:.1f} B/update, all files {tot:.1f} B/update")
for s in sorted(stats, key=lambda s: -s.size_diff)[:6]:
    print(f"   {s.traceback[0].filename.split('src/')[-1]}: {s.size_diff / UPDATES:.1f}")
