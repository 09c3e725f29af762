"""The icatt checker benchmark.

    python3 bench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Run from the root of an icatt checkout.  Each repetition of the workload
is a fresh child process (``workloads.py``) because every ``icatt
check`` starts with cold caches; repetitions run one after another,
single-threaded, for about ``--seconds`` seconds (untraced ones at
least three times).  Every metric is printed by name and unit, and the last line of
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
repetitions.  With ``--trace 1`` untraced and traced repetitions
alternate, and the metrics are the per-layer ones: figures from the
traced repetitions, family times from the untraced ones, and the
tracing overhead as the difference of their ``check_s``.

An operation (one declaration or one meta-property check) fails when its
verdict differs from the known answer, when it raises anything but an
``IcattError``, or when its child process dies or times out.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from stats import loglog_fit, median, median_by_x

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = (ROOT / "src" / "icatt" / "__init__.py", ROOT / "proofs" / "invertibility.catt")
WORKLOADS = ("corpus", "scaling", "metatheory")
FAMILIES = ("depth", "width", "let", "susp", "reject")

MIN_REPS = 3
# every child is stopped in time for the whole command to end within 180 s
HARD_LIMIT_S = 170.0

END_TO_END = {
    "check_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "1",
    "growth_exp": "1",
}

PER_LAYER = {
    "parser.self_s": "s",
    "elaborate.calls": "count",
    "elaborate.self_s": "s",
    "kernel.check_decl_s": "s",
    "kernel.infer_calls": "count",
    "kernel.infer_self_s": "s",
    "kernel.infer_repeat_ratio": "1",
    "kernel.conv_calls": "count",
    "kernel.conv_self_s": "s",
    "kernel.check_sub_self_s": "s",
    "normalize.nf_calls": "count",
    "normalize.beta_calls": "count",
    "normalize.self_s": "s",
    "inverse.canonical_calls": "count",
    "inverse.self_s": "s",
    "meta.suspend_calls": "count",
    "meta.self_s": "s",
    "equiv.self_s": "s",
    "syntax.alpha_key_calls": "count",
    "syntax.alpha_key_self_s": "s",
    "syntax.apply_sub_calls": "count",
    "syntax.apply_sub_self_s": "s",
    "memo.entries": "count",
    **{f"family.{f}_s": "s" for f in FAMILIES},
    "trace.overhead_s": "s",
    "growth.r2": "1",
}


ADDR_NO_RANDOMIZE = 0x0040000
PERSONALITY_QUERY = 0xFFFFFFFF


def fixed_layout() -> None:
    """Start the child without address-space randomisation, where Linux
    allows it: with it, the same child's time varied twice as much
    (coefficient of variation 10 % against 5 % on the corpus)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return
    personality = getattr(libc, "personality", None)
    if personality is None:
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(PERSONALITY_QUERY)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def run_child(workload: str, seed: int, trace: int, timeout: float) -> dict:
    """One repetition.  A child that crashes or times out is returned
    with every operation it planned marked as failed."""
    cmd = [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    # a fixed string-hash seed keeps dict layouts, and so timings, alike
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            preexec_fn=fixed_layout,
        )
        out, reason = proc.stdout, f"exit status {proc.returncode}"
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        proc, reason = None, f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - start
    lines = out.strip().splitlines()
    if proc is not None and proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
        result["wall_s"] = wall
        return result
    planned = next((json.loads(l)["plan"] for l in lines if l.startswith('{"plan"')), 1)
    return {"crashed": reason, "wall_s": wall, "ops": [["child", "ok", reason, 0.0]] * planned}


def repetitions(args) -> tuple[list[dict], list[dict]]:
    """Untraced and traced repetitions for about ``args.seconds``."""
    t0 = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        elapsed = time.perf_counter() - t0
        kind = 1 if args.trace and len(traced) < len(plain) else 0
        runs = traced if kind else plain
        needed = len(plain) < (1 if args.trace else MIN_REPS) or (args.trace and not traced)
        expected = median([r["wall_s"] for r in runs]) if runs else 0.0
        if not needed and elapsed + expected > args.seconds:
            break
        if elapsed + expected > HARD_LIMIT_S:
            break
        runs.append(run_child(args.workload, args.seed, kind, HARD_LIMIT_S - elapsed))
    return plain, traced


def growth(good: list[dict]) -> tuple[list[tuple[float, float]], float, float]:
    """The workload's size ladder (median time per size) and its
    log-log slope and R^2."""
    points = median_by_x([r["points"] for r in good])
    return (points, *loglog_fit(points))


def summarise(plain: list[dict], traced: list[dict], trace: int) -> dict[str, float]:
    good = [r for r in plain if "crashed" not in r]
    if not good:
        return {}
    check_s = median([r["check_s"] for r in good])
    _, slope, r2 = growth(good)
    if not trace:
        ops = [op for r in plain + traced for op in r["ops"]]
        passed = sum(1 for _, want, got, _ in ops if got == want)
        return {
            "check_s": check_s,
            "setup_s": median([r["setup_s"] for r in good]),
            "peak_rss_mb": median([r["rss_mib"] for r in good]),
            "pass_ratio": passed / len(ops),
            "growth_exp": slope,
        }
    good_traced = [r for r in traced if "crashed" not in r]
    if not good_traced:
        return {}
    metrics = {
        name: median([r["layers"][name] for r in good_traced])
        for name in PER_LAYER
        if name in good_traced[0]["layers"]
    }
    metrics["memo.entries"] = median([r["memo_entries"] for r in good])
    for f in FAMILIES:
        metrics[f"family.{f}_s"] = median([r["families"].get(f, 0.0) for r in good])
    metrics["trace.overhead_s"] = median([r["check_s"] for r in good_traced]) - check_s
    metrics["growth.r2"] = r2
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"bench: {missing[0]} is missing; run from the root of an icatt checkout",
              file=sys.stderr)
        return 2

    # a terminated run takes its child with it: subprocess.run kills and
    # waits for the child when an exception interrupts it
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    plain, traced = repetitions(args)
    ops = [op for r in plain + traced for op in r["ops"]]
    failed = [op for op in ops if op[2] != op[1]]
    metrics = summarise(plain, traced, args.trace)
    units = PER_LAYER if args.trace else END_TO_END

    crashed = sum(1 for r in plain + traced if "crashed" in r)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, {crashed} crashed; "
          f"{len(ops)} operations, {len(failed)} failed (fail_ratio {len(failed) / len(ops):.4g})")
    for name, want, got, _ in failed[:10]:
        print(f"  FAILED {name}: want {want!r}, got {got!r}")
    good = [r for r in plain if "crashed" not in r]
    if good:
        reps = ", ".join(f"{r['check_s']:.3f}" for r in good)
        print(f"check_s of the untraced repetitions: {reps}")
        points, slope, r2 = growth(good)
        ladder = ", ".join(f"{x:g}:{y:.4g}" for x, y in points)
        print(f"growth: slope {slope:.4f}, R^2 {r2:.4f}, size:seconds {ladder}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not failed and bool(metrics),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
