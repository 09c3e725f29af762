"""Paired benchmark runs of two checkouts.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload metatheory --seeds 2401-2410 --out BENCH_24.json \\
        --role "claimed gain" --note "2-core VM shared with other jobs"

For each workload and seed, one pair: ``bench/run.py`` runs in each
checkout, one after the other, and the side that runs first alternates
from pair to pair.  Each run is appended to the ``--out`` file (a JSON
list, created if missing) as soon as it ends, as a record with the keys
``run_order``, ``workload``, ``seed``, ``side``, ``sha``, ``role``,
``command``, ``result`` (the last line ``bench/run.py`` prints) and
``note``; ``sha`` is the checkout's commit, or null when its tree differs
from that commit.  At the end, for each workload and each metric of the
pairs just run, it prints each side's median and quartiles, the
parent's interquartile range and how many pairs the change won, by the
direction ``BENCHMARK.json`` gives the metric; ties count for neither.

Standard library only.  Run from anywhere; each run's working directory
is its checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"3,5-7"`` -> ``[3, 5, 6, 7]``."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def commit_of(root: Path) -> str | None:
    """The checkout's commit, or None when it is not a clean git tree."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return None if dirty.stdout.strip() else sha.stdout.strip()


def run_once(root: Path, command: list[str]) -> dict:
    """The JSON object that ends ``bench/run.py``'s output."""
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(command)} in {root} printed nothing: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def directions(root: Path) -> dict[str, str]:
    """Each metric's better direction ("lower" or "higher")."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(records: list[dict], better: dict[str, str]) -> list[str]:
    """One line per workload and metric over the complete pairs of
    ``records``: each side's quartiles, the parent's IQR, and the pairs
    the change won."""
    pairs: dict[tuple[str, int, int], dict[str, dict]] = {}
    for r in records:
        pairs.setdefault((r["workload"], r["seed"], r["pair"]), {})[r["side"]] = r["result"]
    lines = []
    for workload in sorted({w for w, _, _ in pairs}):
        done = [p for (w, _, _), p in sorted(pairs.items()) if w == workload and len(p) == 2]
        if not done:
            continue
        failed = {side: sum(p[side].get("failed", 0) for p in done) for side in SIDES}
        lines.append(f"{workload}: {len(done)} pairs; failed operations parent {failed['parent']}, "
                     f"change {failed['change']}")
        for name in done[0]["parent"].get("metrics", {}):
            values = {side: [p[side]["metrics"][name]["value"] for p in done] for side in SIDES}
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            won = sum(1 for a, b in zip(values["parent"], values["change"]) if sign * (b - a) > 0)
            (p1, pm, p3), (c1, cm, c3) = quartiles(values["parent"]), quartiles(values["change"])
            change = (cm - pm) / pm * 100 if pm else 0.0
            lines.append(
                f"  {name:14s} parent {pm:.4f} [{p1:.4f}, {p3:.4f}]  change {cm:.4f} [{c1:.4f}, {c3:.4f}]"
                f"  {change:+.1f} %  |diff| {'>' if abs(cm - pm) > p3 - p1 else '<='} parent IQR {p3 - p1:.4f}"
                f"  change won {won}/{len(done)}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 2401-2410, one pair per seed")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True, help="JSON list the runs are appended to")
    ap.add_argument("--role", default="", help="what the runs are for, recorded with each")
    ap.add_argument("--note", default="", help="recorded with each run")
    args = ap.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shas = {side: commit_of(root) for side, root in roots.items()}
    records = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else []
    order = max((r["run_order"] for r in records), default=0)
    ran = []
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            sides = SIDES if i % 2 == 0 else SIDES[::-1]
            for first, side in enumerate(sides):
                command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
                result = run_once(roots[side], command)
                order += 1
                shown = ["python3", *command[1:]]
                note = f"pair {i + 1} of {workload}, {'first' if first == 0 else 'second'} of its pair"
                records.append({
                    "run_order": order, "workload": workload, "seed": seed, "side": side,
                    "sha": shas[side], "role": args.role, "command": " ".join(shown), "result": result,
                    "note": f"{args.note}; {note}" if args.note else note,
                })
                ran.append({"workload": workload, "seed": seed, "pair": i, "side": side, "result": result})
                args.out.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
                metrics = result.get("metrics", {})
                shown_metrics = ", ".join(f"{k} {v['value']:.4f}" for k, v in metrics.items())
                print(f"[{order}] {workload} seed {seed} {side}: {shown_metrics}", flush=True)
    for line in summarise(ran, directions(roots["change"])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
