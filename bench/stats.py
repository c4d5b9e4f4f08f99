"""Small-sample statistics, the host canary and the ``/proc`` reader the two processes share."""

from __future__ import annotations

import statistics
from time import perf_counter_ns

#: a percentile is reported only with at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def percentile(samples: list, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses (``ValueError``) a percentile with fewer than
    :data:`MIN_SAMPLES_BEYOND` samples beyond it: with 8 samples a "p99" is
    the maximum under another name.  The median is exempt.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    n = len(samples)
    tail = min(q, 100 - q)
    if q != 50 and n * tail / 100 < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n * tail / 100:.1f} beyond it, need {MIN_SAMPLES_BEYOND}"
        )
    if n == 0:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, -(-n * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


def percentile_or_none(samples: list, q: float) -> "float | None":
    """:func:`percentile`, or ``None`` (JSON ``null``, never a number) where the sample is too small to carry it."""
    try:
        return float(percentile(samples, q))
    except ValueError:
        return None


def spread(values: list) -> float:
    """Inter-quartile distance as a share of the median (the acceptance spread)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def proc_stat_fields(pid: "int | str") -> "list[str] | None":
    """Fields of ``/proc/<pid>/stat`` after the command name (state first), or ``None`` if the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8", errors="replace") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def canary_ms() -> float:
    """Wall time of a fixed pure-Python loop: a probe of host speed, never a divisor.

    The fastest of three passes, so that one descheduling does not read as a slow host.
    """
    best = None
    for _ in range(3):
        start = perf_counter_ns()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e6
