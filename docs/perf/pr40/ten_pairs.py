"""Ten alternating parent/change pairs of ``bench/run.py`` per seed, and the table over them.

    python3 docs/perf/pr40/ten_pairs.py run PARENT_TREE CHANGE_TREE RUNS_DIR SEED [SEED ...]
    python3 docs/perf/pr40/ten_pairs.py table CHANGE_TREE RUNS_DIR SEED [SEED ...] > ten-pairs.txt

``run`` makes, per seed, ten pairs of full untraced runs (odd pairs parent
first, even pairs change first) into ``RUNS_DIR/{parent,change}-seed<S>-<i>.json``
and skips the ones already there; ``table`` prints quartiles, medians, their
ratio, wins / losses / ties and the parent's inter-quartile distance for every
(workload, end-to-end metric), then ``bench/compare.py``'s verdicts per pair.
Both trees must carry the same ``bench/`` (checked by the caller with ``diff -r``).
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
LOWER_IS_BETTER = {"call_ms_p50", "setup_s", "rounds_per_op", "words_per_op", "words_per_round_max", "active_machines_max", "peak_rss_mb"}


def run(parent: Path, change: Path, runs: Path, seeds: list[int]) -> None:
    runs.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        for pair in range(1, PAIRS + 1):
            sides = [("parent", parent), ("change", change)]
            for side, tree in sides if pair % 2 else sides[::-1]:
                out = runs / f"{side}-seed{seed}-{pair}.json"
                if out.exists():
                    continue
                done = subprocess.run([sys.executable, "bench/run.py", "--seed", str(seed), "--out", str(out)], cwd=tree, capture_output=True, text=True)
                print(f"seed {seed} pair {pair} {side}: exit {done.returncode}", flush=True)


def table(change: Path, runs: Path, seeds: list[int]) -> None:
    for seed in seeds:
        records = {side: [json.loads((runs / f"{side}-seed{seed}-{pair}.json").read_text())["workloads"] for pair in range(1, PAIRS + 1)] for side in ("parent", "change")}
        print(f"## seed {seed}: {PAIRS} pairs")
        for workload in records["parent"][0]:
            rows = {side: [record[workload] for record in records[side]] for side in records}
            hashes = {side: {row["solution_sha256"] for row in rows[side]} for side in rows}
            stats = {side: {json.dumps(row["stats"], sort_keys=True) for row in rows[side]} for side in rows}
            failed = sum(row["failed"] for side in rows for row in rows[side])
            print(f"### {workload}: solution hashes parent={len(hashes['parent'])} change={len(hashes['change'])} equal={hashes['parent'] == hashes['change']}  "
                  f"simulated statistics parent={len(stats['parent'])} change={len(stats['change'])} equal={stats['parent'] == stats['change']}  failed_ops={failed}")  # fmt: skip
            for metric in rows["parent"][0]["end_to_end"]:
                values = {side: [row["end_to_end"][metric]["value"] for row in rows[side]] for side in rows}
                quartiles = {side: statistics.quantiles(values[side], n=4) for side in values}
                sign = 1 if metric in LOWER_IS_BETTER else -1
                wins = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
                ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
                p, c = quartiles["parent"], quartiles["change"]
                ratio = c[1] / p[1] if p[1] else float("nan")
                print(f"  {metric:22s} parent q1/med/q3 {p[0]:.5g}/{p[1]:.5g}/{p[2]:.5g}  change {c[0]:.5g}/{c[1]:.5g}/{c[2]:.5g}  "
                      f"change/parent {ratio:.3f}  wins {wins} losses {PAIRS - wins - ties} ties {ties}  parent IQR {p[2] - p[0]:.5g}")  # fmt: skip
        print("### bench/compare.py parent.json change.json, per pair (same-seed bounds: simulated statistics must be equal)")
        for pair in range(1, PAIRS + 1):
            done = subprocess.run([sys.executable, "bench/compare.py", str(runs / f"parent-seed{seed}-{pair}.json"), str(runs / f"change-seed{seed}-{pair}.json")], cwd=change, capture_output=True, text=True)  # fmt: skip
            verdicts = re.findall(r"^(\S+)\s+(\S+)\s+(same|better|worse|unresolved)\b", done.stdout, flags=re.M)
            counts = {kind: sum(1 for v in verdicts if v[2] == kind) for kind in ("same", "better", "worse", "unresolved")}
            notable = ", ".join(f"{w} {m} {v}" for w, m, v in verdicts if v in ("better", "worse"))
            print(f"  pair {pair}: exit {done.returncode}  " + "  ".join(f"{k} {n}" for k, n in counts.items()) + f"  [{notable}]")
        print()


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(Path(sys.argv[2]).resolve(), Path(sys.argv[3]).resolve(), Path(sys.argv[4]).resolve(), [int(s) for s in sys.argv[5:]])
    else:
        table(Path(sys.argv[2]).resolve(), Path(sys.argv[3]).resolve(), [int(s) for s in sys.argv[4:]])
