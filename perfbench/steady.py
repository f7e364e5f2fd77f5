"""Steadiness report: repeated runs per workload, one seed per run.

    python3 perfbench/steady.py                       # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads dense-unitary --seeds 1 2 3 4 5
    python3 perfbench/steady.py --seeds 1             # one run of each workload

Each run is ``perfbench/run.py --trace 0`` in its own process, one after
another. For every end-to-end metric the report gives the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. It also
gives ops attempted and failed per run. Markdown goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, wall = run_once(workload, seed, args.seconds)
            runs.append((seed, result, wall))
            print(f"<!-- {workload} seed {seed}: {wall:.1f} s wall -->", file=sys.stderr)
        print(f"### {workload}\n")
        print(f"{len(runs)} runs of {args.seconds} s, seeds {args.seeds}.\n")
        print("| seed | attempted | failed | correct | wall s |")
        print("|---:|---:|---:|:---:|---:|")
        for seed, result, wall in runs:
            print(f"| {seed} | {result['attempted']} | {result['failed']} | "
                  f"{result['correct']} | {wall:.1f} |")
        print()
        print("| metric | unit | median | Q1 | Q3 | spread | bound | spread < bound/3 |")
        print("|---|---|---:|---:|---:|---:|---:|:---:|")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r, _ in runs]
            unit = runs[0][1]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else float("inf")
            steady = "yes" if spread < bound / 3 else "NO"
            print(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {bound} | {steady} |")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
