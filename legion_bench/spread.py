#!/usr/bin/env python3
"""Runs legion_bench on several seeds and prints each end-to-end metric's
run-to-run spread: the distance between the first and third quartiles of its
values (statistics.quantiles, n=4) as a share of their median, next to the
bound BENCHMARK.json gives it, and the hypervisor steal of each run.

    python3 legion_bench/spread.py --workload cold_resolve --runs 5
    python3 legion_bench/spread.py --workload all --runs 10 --json out.json

Run from the repository root. Seeds are first-seed, first-seed + 1, ...
A spread above a third of its bound is flagged; setup_s is reported but,
like the acceptance rule, only its median is compared across sets.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"run failed: {workload} seed {seed}")
    meta = [json.loads(line[len("meta: "):]) for line in lines
            if line.startswith("meta: ")]
    return json.loads(lines[-1]), meta[0]["steal_pct"] if meta else None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="also write every value here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = names if args.workload == "all" else [args.workload]
    collected = {}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        values["steal_pct"] = []
        for i in range(args.runs):
            result, steal = run_once(workload, args.first_seed + i,
                                     spec["run_seconds"])
            values["steal_pct"].append(steal)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {args.first_seed + i}: INCORRECT")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        collected[workload] = values
        print(f"== {workload} ({args.runs} runs; steal % per run: "
              + " ".join(f"{v:.1f}" for v in values["steal_pct"]) + ")")
        for name, bound in bounds.items():
            share, median = spread(values[name])
            flag = ""
            if name != "setup_s" and share > bound / 3:
                flag = "  ABOVE bound/3"
                steady = False
            print(f"   {name:18} median {median:12.4f}  spread {share:7.4f}"
                  f"  bound {bound:5.3f}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(collected, indent=1) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
