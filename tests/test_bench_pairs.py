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
