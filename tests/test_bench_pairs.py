"""The paired benchmark tool, ``tools/bench_pairs.py``, on made-up runs."""

import importlib.util

import fresh

_spec = importlib.util.spec_from_file_location("bench_pairs", fresh.ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(seed, pair, side, check_s, pass_ratio=1.0):
    metrics = {"check_s": {"value": check_s, "unit": "s"}, "pass_ratio": {"value": pass_ratio, "unit": "1"}}
    return {"workload": "w", "seed": seed, "pair": pair, "side": side,
            "result": {"failed": 0, "metrics": metrics}}


def test_seed_ranges():
    assert bench_pairs.parse_seeds("3,5-7") == [3, 5, 6, 7]


def test_pairs_won_follow_each_metric_direction():
    """A pair counts for the change when its metric is better in the
    direction BENCHMARK.json gives it; a tie counts for neither side, and
    a pair missing a side is left out."""
    runs = [
        _run(1, 0, "parent", 2.0), _run(1, 0, "change", 1.0),
        _run(2, 1, "change", 3.0), _run(2, 1, "parent", 2.0),
        _run(3, 2, "parent", 2.0), _run(3, 2, "change", 2.0),
        _run(4, 3, "parent", 9.0),
    ]
    better = bench_pairs.directions(fresh.ROOT)
    assert better["check_s"] == "lower" and better["pass_ratio"] == "higher"
    header, check_s, pass_ratio = bench_pairs.summarise(runs, better)
    assert header.startswith("w: 3 pairs;")
    assert check_s.endswith("change won 1/3") and "parent IQR 0.0000" in check_s
    assert pass_ratio.endswith("change won 0/3")


def _paired(parent, change, metric="check_s"):
    """One complete pair per value of ``parent`` and ``change``, for
    ``metric``; the other metric reads 1.0 on both sides."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            run = _run(i, i, side, 1.0)
            run["result"]["metrics"][metric]["value"] = value
            runs.append(run)
    return runs


def test_metrics_are_checked_against_their_bounds():
    """A metric whose change median is worse than the parent's by more
    than its bound is ``over bound``; one whose parent IQR exceeds its
    bound is ``unresolved`` unless every change run beats every parent
    run; each line still ends in the pairs won."""
    better = bench_pairs.directions(fresh.ROOT)
    bound = bench_pairs.bounds(fresh.ROOT)
    assert bound["check_s"] == 0.25 and bound["pass_ratio"] == 0.001
    assert "kernel.infer_calls" not in bound

    def line(parent, change, metric="check_s"):
        _, check_s, pass_ratio = bench_pairs.summarise(_paired(parent, change, metric), better, bound)
        return check_s if metric == "check_s" else pass_ratio

    slower = line([1.0] * 4, [1.3] * 4)
    assert "over bound" in slower and "unresolved" not in slower and slower.endswith("change won 0/4")
    within = line([1.0] * 4, [1.2] * 4)
    assert "over bound" not in within and "unresolved" not in within
    wide = line([1.0, 2.0, 1.0, 2.0], [1.5] * 4)
    assert "unresolved" in wide and "over bound" not in wide and wide.endswith("change won 2/4")
    assert "unresolved" not in line([1.0, 2.0, 1.0, 2.0], [0.9] * 4)
    lower = line([1.0] * 4, [0.99] * 4, "pass_ratio")
    assert "over bound" in lower and lower.endswith("change won 0/4")
    assert "over bound" not in bench_pairs.summarise(_paired([1.0] * 4, [1.3] * 4), better)[1]
