"""Collect result sets of the benchmark and compare two of them.

    python3 perfbench/compare.py collect DIR --seeds 1-10 [--workloads a,b]
    python3 perfbench/compare.py diff A B

``collect`` runs ``perfbench/run.py`` once per workload and seed, one run at
a time, and stores each run's result line as ``DIR/<workload>-<seed>.json``.
``diff`` prints, per workload and end-to-end metric, each set's median and
quartiles, their spread (quartile distance over median), how much B's median
differs from A's and in which direction, plus the attempted and failed counts
of each set.  The sets agree when, for every metric, the medians differ by at
most the metric's bound in BENCHMARK.json in either direction (|B - A| / A),
both spreads are within the bound, every run is correct and the failed
shares are equal; ``diff`` then exits 0.  Between a parent and a change, a
verdict of BETTER beyond the bound is the gain sought, WORSE a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(raw: str) -> list[int]:
    seeds: list[int] = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(out: Path, workloads: list[str], seeds: list[int], seconds: int) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            (out / f"{workload}-{seed}.json").write_text(proc.stdout.splitlines()[-1] + "\n")
            print(f"{workload} seed {seed}: {proc.stdout.splitlines()[-1]}", flush=True)
    return 0


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        workload = path.stem.rsplit("-", 1)[0]
        runs[workload].append(json.loads(path.read_text()))
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, med, q3


def diff(a_dir: Path, b_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load(a_dir), load(b_dir)
    agree = True
    for workload in sorted(set(a_runs) | set(b_runs)):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        print(f"== {workload}: A {len(a)} runs, B {len(b)} runs")
        for name, runs in (("A", a), ("B", b)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            share = failed / attempted if attempted else 0.0
            agree &= correct
            print(f"   {name}: attempted {attempted} failed {failed} (share {share:.6f}) correct {correct}")
        shares = {tuple(sorted({r["failed"] / r["attempted"] for r in runs})) for runs in (a, b) if runs}
        if len(shares) > 1:
            agree = False
            print("   failed share differs between the sets")
        if not a or not b:
            agree = False
            continue
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            av = [r["metrics"][name]["value"] for r in a]
            bv = [r["metrics"][name]["value"] for r in b]
            (a1, am, a3), (b1, bm, b3) = summary(av), summary(bv)
            a_spread, b_spread = (a3 - a1) / am, (b3 - b1) / bm
            worse = (bm - am) / am if lower else (am - bm) / am
            spread_ok = a_spread <= bound and b_spread <= bound
            verdict = "WORSE" if worse > bound else "BETTER" if -worse > bound else \
                "ok" if spread_ok else "SPREAD"
            agree &= verdict == "ok"
            print(f"   {name:14s} A {am:.6g} [{a1:.6g}, {a3:.6g}] spread {a_spread:.4f}   "
                  f"B {bm:.6g} [{b1:.6g}, {b3:.6g}] spread {b_spread:.4f}   "
                  f"B worse by {worse:+.4f} (bound {bound})  {verdict}")
    print("agree within bounds" if agree else "DISAGREE")
    return 0 if agree else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out", type=Path)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p = sub.add_parser("diff")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.cmd == "diff":
        return diff(args.a, args.b)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    return collect(args.out, names, parse_seeds(args.seeds), args.seconds or spec["run_seconds"])


if __name__ == "__main__":
    sys.exit(main())
