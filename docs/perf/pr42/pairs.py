"""Alternating parent/change pairs of one ``bench/run.py --workload`` row, and the table over them.

    python3 docs/perf/pr42/pairs.py run PARENT_TREE CHANGE_TREE RUNS_DIR WORKLOAD SEED PAIRS
    python3 docs/perf/pr42/pairs.py table RUNS_DIR WORKLOAD SEED PAIRS

``run`` makes ``PAIRS`` pairs of ``bench/run.py --workload WORKLOAD --seed SEED
--trace 0`` (odd pairs parent first, even pairs change first), one JSON line
each, into ``RUNS_DIR/<workload>-seed<S>-{parent,change}-<i>.json``, and skips
the ones already there.  ``table`` prints, per end-to-end metric, each pair's
two values and ratio, quartiles and medians of each side, the ratio of the
medians, the pairs the change won, the gap between the medians against the
parent's inter-quartile distance; and whether every run was correct and the
simulated statistics are equal across every run.  Both trees must carry the same
``bench/`` (checked by the caller with ``diff -r``).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HIGHER_IS_BETTER = {"ops_per_s"}
SIMULATED = ("rounds_per_op", "words_per_op", "words_per_round_max", "active_machines_max")


def path(runs: Path, workload: str, seed: int, side: str, pair: int) -> Path:
    return runs / f"{workload}-seed{seed}-{side}-{pair}.json"


def run(parent: Path, change: Path, runs: Path, workload: str, seed: int, pairs: int) -> None:
    runs.mkdir(parents=True, exist_ok=True)
    for pair in range(1, pairs + 1):
        sides = [("parent", parent), ("change", change)]
        for side, tree in sides if pair % 2 else sides[::-1]:
            out = path(runs, workload, seed, side, pair)
            if out.exists():
                continue
            command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
            done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
            out.write_text(done.stdout.strip().splitlines()[-1] + "\n")
            print(f"{workload} seed {seed} pair {pair} {side}: exit {done.returncode}", flush=True)


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def table(runs: Path, workload: str, seed: int, pairs: int) -> None:
    records = {
        side: [json.loads(path(runs, workload, seed, side, pair).read_text()) for pair in range(1, pairs + 1)]
        for side in ("parent", "change")
    }
    every = records["parent"] + records["change"]
    failed = sum(record["failed"] for record in every)
    print(f"## {workload}, seed {seed}: {pairs} pairs (odd pairs parent first); failed ops {failed}, "
          f"all correct {all(record['correct'] for record in every)}")  # fmt: skip
    simulated = {json.dumps({name: float(record["metrics"][name]["value"]) for name in SIMULATED}, sort_keys=True) for record in every}
    print(f"simulated statistics equal across all {len(every)} runs: {len(simulated) == 1} {sorted(simulated)}")
    for name in records["parent"][0]["metrics"]:
        values = {side: [record["metrics"][name]["value"] for record in records[side]] for side in records}
        higher = name in HIGHER_IS_BETTER
        won = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        lost = sum((c < p) if higher else (c > p) for p, c in zip(values["parent"], values["change"]))
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(values["parent"]), quartiles(values["change"])
        ratio = cm / pm if pm else float("nan")
        print(f"### {name} ({'higher' if higher else 'lower'} is better)")
        for pair, (p, c) in enumerate(zip(values["parent"], values["change"]), 1):
            print(f"  pair {pair:2d}: parent {p:12.4f}  change {c:12.4f}  ratio {c / p if p else float('nan'):.3f}")
        print(f"  parent q1 / median / q3 {pq1:.4f} / {pm:.4f} / {pq3:.4f}")
        print(f"  change q1 / median / q3 {cq1:.4f} / {cm:.4f} / {cq3:.4f}")
        print(f"  median ratio {ratio:.3f}; change won {won}, lost {lost}, tied {pairs - won - lost} of {pairs}; "
              f"|median gap| {abs(cm - pm):.4f} vs parent IQR {pq3 - pq1:.4f}")  # fmt: skip


def main(argv: "list[str]") -> None:
    if argv[0] == "run":
        parent, change, runs, workload, seed, pairs = argv[1:]
        run(Path(parent), Path(change), Path(runs), workload, int(seed), int(pairs))
    else:
        runs, workload, seed, pairs = argv[1:]
        table(Path(runs), workload, int(seed), int(pairs))


if __name__ == "__main__":
    main(sys.argv[1:])
