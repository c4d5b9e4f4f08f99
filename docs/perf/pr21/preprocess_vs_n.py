"""preprocess time vs n, both algorithms; run with PYTHONPATH=<tree>/src."""
import sys, time
from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCApproxMST, DMPCConnectivity
from repro.graph.generators import gnm_random_graph, random_weighted_graph

sizes = [int(a) for a in sys.argv[1:]] or [1024, 4096, 16384]
for n in sizes:
    for name, cls, gen in (("connectivity", DMPCConnectivity, gnm_random_graph), ("mst", DMPCApproxMST, random_weighted_graph)):
        graph = gen(n, 2 * n, seed=2019)
        alg = cls(DMPCConfig.for_graph(n, 4 * n, backend="fast"))
        t = time.perf_counter()
        alg.preprocess(graph)
        print(f"{name} n={n} preprocess_s={time.perf_counter() - t:.3f}", flush=True)
