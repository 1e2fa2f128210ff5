#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/stability.py --workloads train eval-long --seeds 1 2 3 4 5 \\
        [--out .bench_work/set1.json] [--against .bench_work/set0.json]

Runs one workload and seed at a time (never in parallel) from the root of
the checkout, with BENCHMARK.json's run_seconds.  For every end-to-end
metric it prints the median and the spread, (Q3 - Q1) / median with the
quartiles of statistics.quantiles(values, n=4), next to the metric's bound.
With --against it also prints how far each median moved from an earlier
set of runs, in the worse direction, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    before = json.loads(args.against.read_text()) if args.against else {}
    raw: dict[str, dict[str, list[float]]] = {}
    for workload in args.workloads:
        values = raw.setdefault(workload, {name: [] for name in metrics})
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"])
            status = "ok" if result["correct"] else f"FAILED {result['failed']}/{result['attempted']}"
            print(f"{workload} seed {seed}: {status}", flush=True)
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
        if args.out:
            args.out.write_text(json.dumps(raw, indent=1) + "\n")

    for workload, values in raw.items():
        print(f"\n{workload} ({len(args.seeds)} seeds)")
        print(f"  {'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}  {'moved':>8}")
        for name, m in metrics.items():
            med, rel = spread(values[name])
            moved = ""
            if workload in before:
                old = statistics.median(before[workload][name])
                worse = (med - old) if m["better"] == "lower" else (old - med)
                moved = f"{worse / abs(old):+8.3f}"
            flag = "" if rel < m["bound"] / 3 else (" (over a third of the bound)" if rel <= m["bound"] else " (OVER BOUND)")
            print(f"  {name:<14} {med:>12.6g} {rel:>8.3f} {m['bound']:>6}  {moved:>8}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
