"""The percentile helper's sample-size rule and the verdicts of ``compare.py``."""

from __future__ import annotations

import pytest

from bench.compare import SAME_SEED_HOST_BOUND, compare, pair_bound, verdict
from bench.stats import percentile, percentile_or_none, spread


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert percentile(list(range(1, 1001)), 99) == 990
    assert percentile(list(range(1, 1001)), 50) == 500
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        percentile(list(range(8)), 95)
    with pytest.raises(ValueError):
        percentile([], 50)
    assert percentile_or_none(list(range(8)), 99) is None, "an under-sampled percentile is never a number"


def _metric(*samples):
    ordered = sorted(samples)
    return {"value": ordered[len(ordered) // 2], "samples": list(samples)}


def test_verdicts():
    base = _metric(100.0, 101.0, 99.0)
    assert spread([100.0, 101.0, 99.0]) == pytest.approx(0.02)
    assert verdict("lower", 0.10, base, _metric(104.0, 105.0, 103.0))[0] == "same"
    assert verdict("lower", 0.10, base, _metric(120.0, 121.0, 119.0))[0] == "worse"
    assert verdict("lower", 0.10, base, _metric(80.0, 81.0, 79.0))[0] == "better"
    assert verdict("higher", 0.10, base, _metric(80.0, 81.0, 79.0))[0] == "worse"
    # a spread wider than the bound: overlapping sample sets cannot tell, separated ones can
    assert verdict("lower", 0.10, base, _metric(90.0, 115.0, 140.0))[0] == "unresolved"
    assert verdict("lower", 0.10, base, _metric(120.0, 150.0, 180.0))[0] == "worse"
    # a bound of 0 is equality: any movement counts
    assert verdict("lower", 0, _metric(10.0), _metric(10.0))[0] == "same"
    assert verdict("lower", 0, _metric(10.0), _metric(10.001))[0] == "worse"
    assert verdict("lower", 0, _metric(10.0), _metric(9.999))[0] == "better"


def test_one_rule_picks_the_bound_of_a_pair(spec):
    by_name = {m["name"]: m for m in spec["end_to_end"]}
    # one seed: the inputs are shared, so simulated statistics are exact and host time is held to the issue's bound
    assert pair_bound(by_name["rounds_per_op"], same_seed=True) == 0
    assert pair_bound(by_name["ops_per_s"], same_seed=True) == SAME_SEED_HOST_BOUND <= by_name["ops_per_s"]["bound"]
    # different seeds: BENCHMARK.json as it stands, for every metric
    assert all(pair_bound(m, same_seed=False) == m["bound"] for m in spec["end_to_end"])


def test_a_record_compared_with_itself_is_all_same(smoke, spec):
    rows = compare(smoke, smoke, spec)
    assert rows and {row[2] for row in rows} <= {"same", "unresolved"}
    assert all(row[2] == "same" for row in rows if row[1] in ("solution", "failed_share", "rounds_per_op"))
