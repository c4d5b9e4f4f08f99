"""The DMPC benchmark: one command, every metric by name with its unit.

Two ways to run it::

    python3 bench/run.py --seed 2019 [--trace]                    # all five workloads, round-robin
    python3 bench/run.py --workload cc-stream --seed 7 --seconds 16 --trace 0   # one workload, one JSON line

Every (workload, repeat) runs in a fresh ``bench/repeat.py`` subprocess with
``REPRO_*`` unset and ``PYTHONHASHSEED=0``.  End-to-end numbers come only
from untraced repeats; ``--trace`` adds traced repeats for the per-layer
numbers.  Any failed op, wrong solution, leaked worker or leaked
shared-memory segment makes the exit code non-zero.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import mean, median

_ROOT = Path(__file__).resolve().parent.parent
if sys.path[0] == str(_ROOT / "bench"):
    # started as a script: the script directory would shadow the stdlib `trace`; the package root goes there instead
    sys.path[0] = str(_ROOT)

from bench.stats import proc_stat_fields  # noqa: E402

OUT_DIR = _ROOT / "bench" / "out"
SHM_DIR = Path("/dev/shm")
#: one repeat may take this long before it is killed and counted as failed
REPEAT_TIMEOUT_S = 150
#: untraced repeats per workload, made whatever ``--seconds`` says: a median needs them
REPEATS = 3
#: traced repeats per workload when tracing: one repeat of six ops does not resolve ``trace.overhead_ratio``
TRACED_REPEATS = 2
#: a repeat whose canary strays further than this from the run's median canary is re-run once
CANARY_BAND = 0.10


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ one repeat
def _python_shm_segments() -> set[str]:
    """Shared-memory segments created by Python's ``multiprocessing.shared_memory``."""
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except OSError:
        return set()


def _session_members(session_id: int) -> list[int]:
    """Pids of live, non-zombie processes whose session id is ``session_id``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = proc_stat_fields(entry)  # None: it exited while we were looking
        if fields and int(fields[3]) == session_id and fields[0] != "Z":
            members.append(int(entry))
    return members


def run_repeat(workload: str, seed: int, *, scale: str, traced: bool, inject: bool) -> dict:
    """Run one repeat in a fresh interpreter and account for what it leaves behind."""
    command = [
        sys.executable, str(_ROOT / "bench" / "repeat.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", str(int(traced)), "--inject-fault", str(int(inject)),
    ]  # fmt: skip
    if traced:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out", str(OUT_DIR / f"trace-{workload}.jsonl")]
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    segments_before = _python_shm_segments()
    started = time.monotonic()
    # its own session, so that every process it leaves behind can be found (and stopped) afterwards
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=_ROOT, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    # daemon workers and the resource tracker need a moment to notice their parent is gone
    deadline = time.monotonic() + 3.0
    survivors = _session_members(process.pid)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = _session_members(process.pid)
    if survivors:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    leaked = _python_shm_segments() - segments_before
    for name in leaked:
        try:
            (SHM_DIR / name).unlink()
        except OSError:
            pass
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if process.returncode != 0 or "end_to_end" not in result:
        result = {"crashed": True, "attempted": 1, "failed": 1, "error": f"repeat exited with code {process.returncode}"}
    result.update(workload=workload, traced=traced, wall_s=time.monotonic() - started, leaks=len(survivors) + len(leaked))
    if result["leaks"]:
        log(f"{workload}: left behind {len(survivors)} process(es) and {len(leaked)} shared-memory segment(s)")
    if result.get("error"):
        log(f"{workload}: {result['error']}")
    return result


def _strays(result: dict, centre: float) -> bool:
    return any(abs(c - centre) > CANARY_BAND * centre for c in result.get("host_canary_ms", ()))


def rerun_noisy(repeats: list[dict], rerun, may_rerun) -> None:
    """Re-run once each repeat whose canary strays from the run's median canary; flag what stays noisy.

    The canary only selects repeats to repeat.  No result is ever divided by it.
    """
    canaries = [c for r in repeats for c in r.get("host_canary_ms", ())]
    if not canaries:
        return
    centre = median(canaries)
    for index, result in enumerate(repeats):
        if _strays(result, centre) and may_rerun():
            log(f"{result['workload']}: repeat {index} ran on a noisy host (canary {result['host_canary_ms']}, median {centre:.2f} ms), re-running")
            repeats[index] = result = rerun(result)
        result["noisy"] = _strays(result, centre)


# ---------------------------------------------------------------- aggregation
def summarise(workload: str, repeats: list[dict], spec: dict) -> dict:
    """Medians over the repeats of one workload, plus the failure accounting."""
    good = [r for r in repeats if not r.get("crashed")]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] + r["leaks"] for r in repeats)
    for result in good[1:]:
        # same seed, same inputs: the simulation must repeat exactly, traced or not
        if result["stats"] != good[0]["stats"] or result["solution_sha256"] != good[0]["solution_sha256"]:
            log(f"{workload}: a repeat disagrees with the first on simulated statistics or solution")
            failed += result["attempted"] - result["failed"]
    record = {
        "workload": workload,
        "repeats": len(plain),
        "traced_repeats": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "noisy_repeats": sum(1 for r in repeats if r.get("noisy")),
        "stats": good[0]["stats"] if good else {},
        "solution_sha256": good[0]["solution_sha256"] if good else "",
        "end_to_end": {},
        "per_layer": {},
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    def put(section: str, name: str, samples: list) -> None:
        record[section][name] = {"value": median(samples), "unit": units.get(name, ""), "samples": samples}

    if plain:
        for name in plain[0]["end_to_end"]:
            put("end_to_end", name, [r["end_to_end"][name] for r in plain])
        for name in plain[0]["outside"]:
            put("per_layer", name, [r["outside"][name] for r in plain])
        put("per_layer", "host.canary_ms", [c for r in good for c in r["host_canary_ms"]])
    if traced:
        for name in traced[0]["spans"]:
            put("per_layer", name, [r["spans"][name] for r in traced])
    if plain and traced:
        untraced_loop_s = median(r["loop_s"] for r in plain)
        put("per_layer", "trace.overhead_ratio", [r["loop_s"] / untraced_loop_s for r in traced])
    return record


def repeat_counts(args: argparse.Namespace) -> tuple[int, int]:
    """Untraced and traced repeats per workload; a smoke run makes one of each kind it needs."""
    if args.smoke:
        return 1, int(bool(args.trace))
    return REPEATS, TRACED_REPEATS if args.trace else 0


def provenance(seed: int, scale: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=_ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "seed": seed,
        "scale": scale,
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


# ----------------------------------------------------------------------- modes
def run_one_workload(args: argparse.Namespace, spec: dict) -> int:
    """The driver's contract: measure one workload for ``--seconds``, print one JSON object last."""
    started = time.monotonic()
    repeats: list[dict] = []

    def repeat(traced: bool) -> dict:
        return run_repeat(args.workload, args.seed, scale=args.scale, traced=traced, inject=args.inject_fault)

    untraced, traced = repeat_counts(args)
    needed = 2 * traced if traced else untraced
    while True:
        # with tracing: untraced, traced, untraced, ... so both kinds see the same host
        repeats.append(repeat(traced=bool(traced) and len(repeats) % 2 == 1))
        elapsed = time.monotonic() - started
        if repeats[-1].get("crashed"):
            break  # the run has failed already; more repeats would only risk the driver's time limit
        if len(repeats) >= needed and elapsed + mean(r["wall_s"] for r in repeats) > args.seconds:
            break
    rerun_noisy(
        repeats,
        rerun=lambda old: repeat(traced=old["traced"]),
        may_rerun=lambda: time.monotonic() - started < args.seconds,  # never at the expense of the time budget
    )
    record = summarise(args.workload, repeats, spec)
    section = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[section] if m["name"] not in record[section]]
    if missing:
        log(f"no value for {', '.join(missing)}")
        return 1
    metrics = {m["name"]: {"value": record[section][m["name"]]["value"], "unit": m["unit"]} for m in spec[section]}
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all_workloads(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, repeats interleaved round-robin so host drift hits all of them alike."""
    names = [w["name"] for w in spec["workloads"]]
    repeats: dict[str, list[dict]] = {name: [] for name in names}
    untraced, traced = repeat_counts(args)
    # untraced and traced passes alternate (U T U T U): host drift between them would read as tracing overhead
    passes = [False] * untraced
    for i in range(traced):
        passes.insert(2 * i + 1, True)
    for is_traced in passes:
        for name in names:
            log(f"{name}: {'traced' if is_traced else 'untraced'} repeat")
            repeats[name].append(run_repeat(name, args.seed, scale=args.scale, traced=is_traced, inject=args.inject_fault))
    for name in names:
        rerun_noisy(
            repeats[name],
            rerun=lambda old: run_repeat(old["workload"], args.seed, scale=args.scale, traced=old["traced"], inject=args.inject_fault),
            may_rerun=lambda: not args.smoke,  # a smoke run measures nothing, so host noise cannot spoil it
        )
    records = {name: summarise(name, repeats[name], spec) for name in names}
    for name, record in records.items():
        print(f"== {name}: {record['repeats']} untraced + {record['traced_repeats']} traced repeats, "
              f"failed_share {record['failed_share']:g} ({record['failed']}/{record['attempted']}), noisy repeats {record['noisy_repeats']}")  # fmt: skip
        for section in ("end_to_end", "per_layer"):
            for metric, entry in record[section].items():
                print(f"{name:20s} {metric:36s} {entry['value']!r:>24} {entry['unit']}")
    out = Path(args.out) if args.out else OUT_DIR / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"provenance": provenance(args.seed, args.scale), "workloads": records}, indent=1) + "\n")
    log(f"wrote {out}")
    return 0 if all(record["failed"] == 0 for record in records.values()) else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="measure only this workload and print one JSON object (the driver's contract)")
    parser.add_argument("--seed", type=int, default=2019, help="every input is generated from it")
    parser.add_argument("--seconds", type=float, help=f"with --workload: wall seconds to spend on repeats (at least {REPEATS} are made; default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help=f"also run {TRACED_REPEATS} traced repeats for the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one untraced and one traced repeat: checks the plumbing, measures nothing")
    parser.add_argument("--out", help="without --workload: where to write the JSON record (default bench/out/result-seed<seed>.json)")
    parser.add_argument("--inject-fault", action="store_true", help="damage every solution before it is checked; the run must then fail")
    args = parser.parse_args(argv)
    args.scale = "smoke" if args.smoke else "full"
    if args.smoke and not args.workload:
        args.trace = 1

    if not (_ROOT / "src" / "repro").is_dir():
        log(f"{_ROOT / 'src' / 'repro'} is missing: the benchmark measures that library and cannot run without it")
        return 2
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            log(f"unknown workload {args.workload!r}")
            return 2
        return run_one_workload(args, spec)
    return run_all_workloads(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
