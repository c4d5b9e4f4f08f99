"""The correctness sweep of the two Section-3/4 matchings, committed as a ratchet.

Outside tier-1 (named ``scale_*`` so the bare ``pytest`` run does not collect
it).  Run it by path; it needs only the standard library and ``src/``:

    PYTHONPATH=src python tests/scale/scale_correctness_sweep.py          # check
    PYTHONPATH=src python tests/scale/scale_correctness_sweep.py --write  # re-record

Every run applies
``within_capacity(mixed_stream(n, 400, seed=s, insert_probability=0.6), 0, cap)``
to ``for_graph(n, cap, backend="fast")`` with ``check_invariants=True`` and
stops at its first exception.  It runs twice: once from ``DynamicGraph(n)``
(every vertex's statistics stored by the preprocess) and once from the empty
graph ``DynamicGraph()`` (each vertex stored by the update that first touches
it).  The two starts hold the same graph at every update, so both must give
the same outcome.  The grids:

* light: capacity ``4n`` — maximal matching at n in {6, 10}, seeds 0-39;
  3/2 matching at n in {6, 8, ..., 16}, seeds 0-49;
* heavy (the threshold ``sqrt(2 cap)`` is reachable): capacity in
  {n, floor(3n/2), 2n} at n in {6, 7, 8, 10}, seeds 0-19, both matchings.

``correctness_ratchet.json`` beside this file holds one line per failing
``(algorithm, n, capacity, seed, update, message)``, ``update`` counted from
1.  The check fails, for either start, when a run outside the ratchet fails
(a regression) and when a ratchet run passes or fails differently (a fix:
the ratchet must shrink in the same change, with ``--write``); each such
line names its start.  It prints the failure table of each start either
way.  ``--write`` records the ratchet only when the two starts agree.  With
two worker processes the 2 x 1 100 runs take about 50 s.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

from repro.config import DMPCConfig
from repro.dynamic_mpc import DMPCMaximalMatching, DMPCThreeHalvesMatching
from repro.graph.graph import DynamicGraph
from repro.graph.streams import mixed_stream

RATCHET = Path(__file__).with_name("correctness_ratchet.json")
UPDATES = 400
ALGORITHMS = {cls.kind: cls for cls in (DMPCMaximalMatching, DMPCThreeHalvesMatching)}
#: the two preprocessed graphs every run starts from, by name
STARTS = ("DynamicGraph(n)", "DynamicGraph()")
HEAVY = [(n, cap) for n in (6, 7, 8, 10) for cap in (n, 3 * n // 2, 2 * n)]
#: (algorithm, regime) -> [(n, capacity)] and the seeds each pair runs
GRIDS = {
    ("maximal-matching", "light"): ([(n, 4 * n) for n in (6, 10)], range(40)),
    ("maximal-matching", "heavy"): (HEAVY, range(20)),
    ("three-halves-matching", "light"): ([(n, 4 * n) for n in range(6, 17, 2)], range(50)),
    ("three-halves-matching", "heavy"): (HEAVY, range(20)),
}


def within_capacity(stream, edges: int, capacity: int) -> list:
    """The sweep's skip rule: drop an insert that would take the edge count past
    ``capacity``, together with that edge's next delete."""
    kept, skipped = [], set()
    for update in stream:
        if update.edge in skipped:
            skipped.discard(update.edge)  # the skipped edge's delete
        elif update.is_insert and edges >= capacity:
            skipped.add(update.edge)
        else:
            edges += 1 if update.is_insert else -1
            kept.append(update)
    return kept


def jobs(start: str) -> list[tuple[str, int, int, int, str]]:
    """Every ``(algorithm, n, capacity, seed, start)`` of the grids, in ratchet order."""
    return [
        (algorithm, n, cap, seed, start)
        for (algorithm, _regime), (pairs, seeds) in GRIDS.items()
        for (n, cap) in pairs
        for seed in seeds
    ]


def run(job: tuple[str, int, int, int, str]) -> dict | None:
    """The ratchet row of one run's first failure, or ``None`` when every boundary holds."""
    algorithm, n, cap, seed, start = job
    alg = ALGORITHMS[algorithm](DMPCConfig.for_graph(n, cap, backend="fast"), check_invariants=True)
    alg.preprocess(DynamicGraph(n) if start == "DynamicGraph(n)" else DynamicGraph())
    stream = within_capacity(mixed_stream(n, UPDATES, seed=seed, insert_probability=0.6), 0, cap)
    for number, update in enumerate(stream, 1):
        try:
            alg.apply(update)
        except Exception as exc:  # every failure is a row, whatever raised it
            message = f"{type(exc).__name__}: {exc}"
            return {"algorithm": algorithm, "n": n, "capacity": cap, "seed": seed, "update": number, "message": message}
    return None


def sweep() -> dict[str, list[dict]]:
    """The failing runs' ratchet rows, per start."""
    with multiprocessing.get_context("spawn").Pool(os.cpu_count() or 1) as pool:
        return {start: [row for row in pool.map(run, jobs(start), chunksize=4) if row is not None] for start in STARTS}


def dump(rows: list[dict]) -> str:
    """The ratchet file: a JSON list, one failing run per line."""
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n" if rows else "[]\n"


def table(rows: list[dict]) -> str:
    failing = {(row["algorithm"], row["n"], row["capacity"], row["seed"]) for row in rows}
    lines = []
    for (algorithm, regime), (pairs, seeds) in GRIDS.items():
        runs = [(algorithm, n, cap, seed) for (n, cap) in pairs for seed in seeds]
        lines.append(f"{algorithm:22} {regime:6} {sum(run in failing for run in runs):3} of {len(runs)} runs fail")
    return "\n".join(lines)


def differences(rows: list[dict], ratchet: list[dict]) -> list[str]:
    """Each run whose outcome differs from the ratchet's, named."""
    def key(row):
        return (row["algorithm"], row["n"], row["capacity"], row["seed"])

    now, then = {key(row): row for row in rows}, {key(row): row for row in ratchet}
    found = []
    for run_key in sorted(now.keys() | then.keys()):
        if run_key not in then:
            found.append(f"regression, not in the ratchet: {now[run_key]}")
        elif run_key not in now:
            found.append(f"passes now, drop it from the ratchet: {then[run_key]}")
        elif now[run_key] != then[run_key]:
            found.append(f"fails differently: {now[run_key]} (ratchet: {then[run_key]})")
    return found


def main(argv: list[str]) -> int:
    rows = sweep()
    for start in STARTS:
        print(f"from {start}:")
        print(table(rows[start]))
    if argv[1:] == ["--write"]:
        first, second = (rows[start] for start in STARTS)
        if first != second:
            print(f"the two starts disagree on {len(differences(second, first))} runs: the ratchet is not written")
            return 1
        RATCHET.write_text(dump(first))
        print(f"wrote {len(first)} failing runs to {RATCHET}")
        return 0
    ratchet = json.loads(RATCHET.read_text())
    found = [f"from {start}: {line}" for start in STARTS for line in differences(rows[start], ratchet)]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
