"""Compare result sets of ``bench/run.py`` under the bounds fixed in ``BENCHMARK.json``.

    python3 bench/compare.py BASE.json CANDIDATE.json [MORE_CANDIDATES.json ...]

Every candidate is compared with the base, one verdict per (workload,
end-to-end metric):

``same``        no worse and no better than the base by more than the bound
``better``      improved by more than the bound
``worse``       worsened by more than the bound — exit code 1
``unresolved``  the run-to-run spread of either side is wider than the bound,
                and the two sample sets overlap: the runs cannot tell

Which bound applies is decided here and nowhere else (:func:`pair_bound`).
``BENCHMARK.json`` holds the bounds the driver applies to medians taken over
several seeds; it is what accepts or rejects a change.  Those bounds have to
cover the inputs' own variance, which two records of *one* seed do not have,
so such a pair is held to more: the simulated statistics (and the solutions)
are deterministic given the seed and must be equal — any change in them is
``better`` or ``worse``, never noise — and a host-time metric may worsen by
:data:`SAME_SEED_HOST_BOUND` at most.  Records of different seeds are held to
the bounds of ``BENCHMARK.json`` as they stand.  Every ratio is printed with
its base.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if sys.path[0] == str(_ROOT / "bench"):
    sys.path[0] = str(_ROOT)  # started as a script: make the `bench` package importable

from bench.stats import spread  # noqa: E402

#: the simulated statistics: deterministic given the seed
EXACT = ("rounds_per_op", "words_per_op", "words_per_round_max", "active_machines_max")
#: the issue's bound on a host-time metric, met by records that share their inputs
SAME_SEED_HOST_BOUND = 0.10


def pair_bound(metric: dict, same_seed: bool) -> float:
    """The relative worsening of ``metric`` that counts as a regression between two records; 0 means equality."""
    if not same_seed:
        return metric["bound"]
    return 0.0 if metric["name"] in EXACT else min(metric["bound"], SAME_SEED_HOST_BOUND)


def verdict(better: str, bound: float, base: dict, cand: dict) -> tuple[str, float]:
    """Verdict and the signed relative worsening (positive = worse) of ``cand`` against ``base``."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (cand["value"] - base["value"]) / abs(base["value"]) if base["value"] else 0.0
    if bound == 0:
        return ("same" if cand["value"] == base["value"] else "worse" if worsening > 0 else "better"), worsening
    a, b = [sign * v for v in base["samples"]], [sign * v for v in cand["samples"]]
    if max(spread(base["samples"]), spread(cand["samples"])) > bound:
        # too noisy to trust the medians — unless every run of one side beats every run of the other
        if min(b) > max(a) and worsening > bound:
            return "worse", worsening
        if max(b) < min(a) and worsening < -bound:
            return "better", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    return ("better" if worsening < -bound else "same"), worsening


def compare(base: dict, cand: dict, spec: dict) -> list[tuple[str, str, str, float, float, float]]:
    """Rows ``(workload, metric, verdict, base value, candidate value, worsening)``."""
    rows = []
    same_seed = base["provenance"]["seed"] == cand["provenance"]["seed"]
    for workload, base_record in base["workloads"].items():
        cand_record = cand["workloads"].get(workload)
        if cand_record is None:
            rows.append((workload, "(workload)", "worse", 0.0, 0.0, 0.0))
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = base_record["end_to_end"][name], cand_record["end_to_end"][name]
            result, worsening = verdict(metric["better"], pair_bound(metric, same_seed), a, b)
            rows.append((workload, name, result, a["value"], b["value"], worsening))
        if same_seed:
            identical = base_record["solution_sha256"] == cand_record["solution_sha256"]
            rows.append((workload, "solution", "same" if identical else "worse", 0.0, 0.0, 0.0))
        failed = cand_record["failed_share"]
        rows.append((workload, "failed_share", "same" if failed <= base_record["failed_share"] else "worse", base_record["failed_share"], failed, 0.0))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    base = json.loads(Path(argv[0]).read_text())
    worse = False
    for path in argv[1:]:
        cand = json.loads(Path(path).read_text())
        if cand["provenance"]["seed"] != base["provenance"]["seed"]:
            print(f"note: {path} was measured on seed {cand['provenance']['seed']}, the base on {base['provenance']['seed']}: the bounds of BENCHMARK.json apply as they stand")
        print(f"== {path} against base {argv[0]}")
        for workload, name, result, a, b, worsening in compare(base, cand, spec):
            worse = worse or result == "worse"
            print(f"{workload:20s} {name:22s} {result:10s} base {a!r:>22} candidate {b!r:>22} ({worsening:+.2%} of base, + is worse)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
