"""The ``mm-stream`` row's simulated statistics and a SHA-256 of its solution, for one source tree.

    python3 docs/perf/pr49/solution_hash.py TREE [SEED]

Runs ``bench.workloads.prepare("mm-stream", SEED)`` from ``TREE`` (its ``bench/``
and ``src/``), applies every timed call, and prints the ``SimStats`` and the
hash of ``finish(False).solution`` (the sorted matching) as one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path


def main(tree: Path, seed: int) -> None:
    sys.path[:0] = [str(tree), str(tree / "src")]
    from bench.workloads import prepare

    prepared = prepare("mm-stream", seed)
    for arg in prepared.calls:
        prepared.call(arg)
    outcome = prepared.finish(False)
    digest = hashlib.sha256(json.dumps(outcome.solution).encode()).hexdigest()
    print(json.dumps({"stats": vars(outcome.stats), "checks": outcome.checks, "solution_sha256": digest}, sort_keys=True))


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve(), int(sys.argv[2]) if len(sys.argv) > 2 else 2019)
