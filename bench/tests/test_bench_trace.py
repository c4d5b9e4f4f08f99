"""The tracer: self times telescope to the root, patches vanish, leaves and counters behave."""

from __future__ import annotations

from bench import trace as tracing
from bench.trace import COUNTED, LEAF, Tracer


class Layer:
    def outer(self, n, *, extra=0):
        return sum(self.inner(i) for i in range(n)) + self.cheap(extra)

    def inner(self, i, scale=2):
        return self.cheap(i) * scale

    def cheap(self, i):
        return i


def test_self_times_sum_exactly_to_each_root_and_wrappers_are_removed():
    originals = dict(vars(Layer))
    tracer = Tracer(sample_every=2)
    tracer.patch(Layer, "outer", "layer.outer")
    tracer.patch(Layer, "inner", "layer.inner")
    tracer.patch(Layer, "cheap", "layer.cheap", kind=LEAF)
    layer = Layer()
    assert [layer.outer(4, extra=1), layer.outer(3), layer.inner(5, scale=3)] == [13, 6, 15]
    for root, durations in tracer.roots.items():
        assert sum(entry[1] for entry in tracer.layers[root].values()) == sum(durations)
        assert all(sum(per_op) == entry[1] for per_op, entry in zip(tracer.per_op[root].values(), tracer.layers[root].values()))
    assert tracer.calls("layer.outer", "layer.inner") == 7 and tracer.calls("layer.outer", "layer.cheap") == 9
    assert len(tracer.roots["layer.outer"]) == 2 and len(tracer.roots["layer.inner"]) == 1
    # every second op keeps its spans, each with a parent inside the same op
    kept = {span[2] for span in tracer.spans}
    assert kept == {2}
    ids = {span[0] for span in tracer.spans}
    assert all(parent == -1 or parent in ids for _, parent, *_ in tracer.spans)
    tracer.uninstall()
    assert dict(vars(Layer)) == originals


def test_counted_boundaries_count_without_timing_and_observers_see_the_call():
    tracer = Tracer()
    seen = []
    tracer.patch(Layer, "outer", "layer.outer")
    tracer.patch(Layer, "inner", "layer.inner", observe=lambda result, layer, i, scale: seen.append((result, i, scale)), kind=LEAF)
    tracer.patch(Layer, "cheap", "layer.cheap", kind=COUNTED)
    try:
        Layer().outer(2)
        Layer().cheap(1)  # outside every root: passed through, not recorded
    finally:
        tracer.uninstall()
    assert seen == [(0, 0, 2), (2, 1, 2)]
    calls, self_ns, total_ns = tracer.layers["layer.outer"]["layer.cheap"]
    assert (calls, self_ns, total_ns) == (3, 0, 0)


def test_a_leaf_that_reaches_a_span_keeps_the_identity_and_only_the_guard_sees_it():
    tracer = Tracer(check_leaves=True)
    tracer.patch(Layer, "outer", "layer.outer")
    tracer.patch(Layer, "inner", "layer.inner", kind=LEAF)  # wrong: inner calls cheap, which is wrapped
    tracer.patch(Layer, "cheap", "layer.cheap", kind=LEAF)
    try:
        Layer().outer(3)
    finally:
        tracer.uninstall()
    assert sum(entry[1] for entry in tracer.layers["layer.outer"].values()) == sum(tracer.roots["layer.outer"])
    assert tracer.leaf_violations == {("layer.inner", "layer.cheap")}

    honest = Tracer(check_leaves=True)
    honest.patch(Layer, "outer", "layer.outer")
    honest.patch(Layer, "inner", "layer.inner")
    honest.patch(Layer, "cheap", "layer.cheap", kind=LEAF)
    try:
        Layer().outer(3)
    finally:
        honest.uninstall()
    assert not honest.leaf_violations


def test_wrapped_parameters_cannot_shadow_the_tracer():
    def shadow(name, fn=3, *, stack=0, result=None):
        return (name, fn, stack, result)

    def variadic(*args, **kwargs):
        return (args, kwargs)

    tracer = Tracer()
    assert tracer.wrap(shadow, "root")("x", stack=5) == ("x", 3, 5, None)
    assert tracer.wrap(variadic, "root")(1, 2, k=3) == ((1, 2), {"k": 3})
    assert tracer.wrap(len, "root")([1, 2]) == 2
    assert len(tracer.roots["root"]) == 3


def test_inherited_methods_are_restored_by_deletion():
    class Child(Layer):
        pass

    tracer = Tracer()
    tracer.patch(Child, "cheap", "child.cheap")
    assert "cheap" in vars(Child)
    tracer.uninstall()
    assert "cheap" not in vars(Child) and Child().cheap(3) == 3


def test_identity_holds_on_a_real_workload_and_repro_is_left_untouched():
    from bench import workloads
    from repro.mpc import Machine

    send = vars(Machine)["send"]
    tracer = Tracer(check_leaves=True)
    tracing.install(tracer, ("fast", "resident"))
    patched = [(owner, attr) for owner, attr, _ in tracer._patched]
    assert len(patched) == len(set(patched)), "a boundary wrapped twice would be counted twice"
    try:
        prepared = tracer.run("setup", workloads.prepare, "cc-batch-churn", 3, "smoke")
        call = tracer.wrap(prepared.call, "op")
        for arg in prepared.calls:
            call(arg)
        outcome = tracer.run("finish", prepared.finish, False)
    finally:
        tracer.uninstall()
    assert all(outcome.checks.values()) and not tracer.leaf_violations
    assert vars(Machine)["send"] is send
    for root in ("setup", "op", "finish"):
        assert sum(entry[1] for entry in tracer.layers[root].values()) == sum(tracer.roots[root])
    assert len(tracer.roots["op"]) == len(prepared.calls)
    assert tracer.calls("op", "graph.coalesce") == len(prepared.calls)
    assert tracer.self_s("op", "dynamic_mpc") > 0 and tracer.payloads and tracer.inboxes
