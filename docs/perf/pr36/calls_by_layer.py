"""Python calls per ``DMPCMaximalMatching`` update, by layer, on one source tree.

    python3 docs/perf/pr36/calls_by_layer.py TREE [TREE ...] > counts.txt

For each tree (its ``src/`` goes first on ``sys.path``, in a fresh
interpreter) it replays the first 2 000 updates of the ``mm-stream`` inputs
(``gnm(1 024, 2 048, seed=2019)``, the mixed stream drawn from seed 2 020) on
``fast`` after preprocessing, counts the ``call`` events of a
``sys.setprofile`` hook — Python-level calls, C functions not counted — and
prints them per update, by the ``repro`` module the called function lives in
(the layer), with the ten most-called functions.  With several trees it
prints one column per tree.  Deterministic: the same tree gives the same
counts on the same interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

N = 1024
UPDATES = 2000
SEED = 2019
TOP = 10

MEASURE = """
import collections, json, sys
from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching
from repro.graph import gnm_random_graph
from repro.graph.streams import mixed_stream

graph = gnm_random_graph({n}, 2 * {n}, seed={seed})
stream = list(mixed_stream({n}, {updates}, seed={seed} + 1, insert_probability=0.5, initial=graph))
algorithm = DMPCMaximalMatching(DMPCConfig.for_graph({n}, 4 * {n}, backend="fast"))
algorithm.preprocess(graph.copy())
calls = collections.Counter()

def hook(frame, event, _arg):
    if event == "call":
        code = frame.f_code
        path = code.co_filename.replace("\\\\", "/")
        layer = path.split("/src/repro/", 1)[1] if "/src/repro/" in path else "(outside repro)"
        calls[(layer, code.co_name)] += 1

sys.setprofile(hook)
for update in stream:
    algorithm.apply(update)
sys.setprofile(None)
print(json.dumps([[layer, name, count] for (layer, name), count in calls.items()]))
"""


def measure(tree: Path) -> dict[tuple[str, str], float]:
    code = f"import sys; sys.path.insert(0, {str(tree.resolve() / 'src')!r})\n" + MEASURE.format(n=N, seed=SEED, updates=UPDATES)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return {(layer, name): count / UPDATES for layer, name, count in json.loads(done.stdout)}


def main(trees: list[Path]) -> None:
    counts = [measure(tree) for tree in trees]
    totals: list[Counter] = []
    for count in counts:
        totals.append(Counter())
        for (layer, _name), value in count.items():
            totals[-1][layer] += value
    print(f"Python calls per DMPCMaximalMatching update: first {UPDATES} mm-stream updates, n = {N}, seed {SEED}, "
          f"CPython {sys.version.split()[0]}")  # fmt: skip
    for i, tree in enumerate(trees, 1):
        print(f"tree {i}: {tree}")
    print(f"\n{'layer':34s}" + "".join(f"{f'tree {i}':>12s}" for i in range(1, len(trees) + 1)))
    for layer in sorted(set().union(*totals), key=lambda layer: -max(total[layer] for total in totals)):
        print(f"{layer:34s}" + "".join(f"{total[layer]:12.2f}" for total in totals))
    print(f"{'total':34s}" + "".join(f"{sum(count.values()):12.2f}" for count in counts))
    for i, count in enumerate(counts, 1):
        print(f"\ntree {i}: the {TOP} most-called functions")
        for (layer, name), value in sorted(count.items(), key=lambda item: -item[1])[:TOP]:
            print(f"  {value:8.2f}  {layer}:{name}")


if __name__ == "__main__":
    main([Path(arg) for arg in sys.argv[1:]])
