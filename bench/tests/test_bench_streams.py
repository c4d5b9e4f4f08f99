"""Inputs are a pure function of the seed; the flap stream is consistent and really cancels."""

from __future__ import annotations

from bench.stats import percentile
from bench.workloads import FLAP_WINDOW, SCALES, flap_stream, static_inputs, stream_inputs
from repro.graph.updates import coalesce_updates

DYNAMIC = ("cc-stream", "mm-stream", "cc-batch-churn")


def _bytes(name: str, seed: int) -> bytes:
    graph, stream = stream_inputs(name, seed, "smoke")
    return repr((sorted(graph.edges()), [(u.op, u.u, u.v) for u in stream])).encode()


def test_same_seed_same_bytes_other_seed_other_bytes():
    for name in DYNAMIC:
        assert _bytes(name, 5) == _bytes(name, 5)
        assert _bytes(name, 5) != _bytes(name, 6)
    edges = [[sorted(g.edges()) for g in static_inputs("static-cc-fast", seed, "smoke")] for seed in (5, 5, 6)]
    assert edges[0] == edges[1] != edges[2]
    assert edges[0] == [sorted(g.edges()) for g in static_inputs("static-cc-resident", 5, "smoke")], "the static rows share inputs"


def test_stream_rows_carry_their_percentiles_at_both_scales():
    """``repeat.py`` asks for the p99 of all calls and the p25 / p75 / p95 of the deletes; an
    under-sampled one would raise there, so the op counts must leave room whatever the seed."""
    for scale in SCALES:
        for name in ("cc-stream", "mm-stream"):
            for seed in (7, 2019, 5):
                _, stream = stream_inputs(name, seed, scale)
                deletes = [i for i, upd in enumerate(stream) if not upd.is_insert]
                percentile(range(len(stream)), 99)
                percentile(deletes, 95)
                # deletes are Binomial(updates, 1/2): the 200 a p95 needs lie more than 15 standard deviations below
                assert len(deletes) > 400


def test_flap_stream_is_consistent_and_cancels_pairs():
    size = SCALES["smoke"]["cc-batch-churn"]
    graph, stream = stream_inputs("cc-batch-churn", 5, "smoke")
    assert len(stream) == size["updates"] + 2 * size["flaps"]
    assert stream.is_consistent(graph)
    opened = {}
    gaps = []
    for position, upd in enumerate(stream):
        if upd.is_insert:
            opened[upd.edge] = position
        elif upd.edge in opened:
            gaps.append(position - opened.pop(upd.edge))
    assert sum(1 for gap in gaps if gap <= FLAP_WINDOW) >= size["flaps"]
    updates = list(stream)
    cancelled = sum(coalesce_updates(updates[i : i + size["chunk"]])[1]["cancelled_pairs"] for i in range(0, len(updates), size["chunk"]))
    assert 0 < cancelled <= size["flaps"] + size["updates"]


def test_flap_stream_with_nothing_but_flaps():
    from repro.graph import DynamicGraph, UpdateSequence

    stream = flap_stream(16, UpdateSequence(), 10, DynamicGraph(16), seed=1)
    assert len(stream) == 20 and stream.is_consistent(DynamicGraph(16))
