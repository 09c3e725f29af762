import pytest

from spans import Tracer, inclusive_time, self_times


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    spans = [(0.0, 10.0, -1), (1.0, 3.0, 0), (4.0, 8.0, 0), (5.0, 6.0, 2)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (9.0, 12.0, 0)]
    # children cover [1, 7] and [9, 10] of the root
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_times_sum_to_root_duration():
    spans = [(0.0, 6.0, -1), (0.5, 2.5, 0), (1.0, 2.0, 1), (3.0, 5.5, 0)]
    assert sum(self_times(spans)) == pytest.approx(6.0)


def test_inclusive_time_counts_nested_spans_once():
    spans = [("a", 0.0, 4.0, -1), ("a", 1.0, 2.0, 0), ("b", 5.0, 6.0, -1), ("a", 7.0, 9.0, -1)]
    assert inclusive_time(spans, {"a"}) == pytest.approx(6.0)


def test_wrappers_install_count_and_remove():
    import types
    import sys

    mod = types.ModuleType("icatt.kernel")

    def infer_term(ctx, t):
        return t if t == 0 else mod.infer_term(ctx, t - 1)

    mod.infer_term = infer_term
    other = types.ModuleType("icatt.elaborate")
    other.infer_term = infer_term
    saved = {n: sys.modules.get(n) for n in ("icatt.kernel", "icatt.elaborate")}
    sys.modules.update({"icatt.kernel": mod, "icatt.elaborate": other})
    try:
        tracer = Tracer()
        tracer.install()
        assert mod.infer_term is not infer_term and other.infer_term is mod.infer_term
        tracer.begin_run(0)
        ctx, t = object(), 3
        other.infer_term(ctx, t)
        other.infer_term(ctx, t)
        tracer.remove()
        assert mod.infer_term is infer_term and other.infer_term is infer_term
    finally:
        for name, value in saved.items():
            if value is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = value
    assert tracer.calls["kernel.infer_term"] == 8
    # direct recursion stays inside the open span
    assert [s[0] for s in tracer.spans()] == ["kernel.infer", "kernel.infer"]
    # (ctx, 3) .. (ctx, 0) once each, then all four again
    assert tracer.repeats == 4
