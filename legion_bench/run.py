#!/usr/bin/env python3
"""Builds and runs legion_bench, the benchmark of one Legion call.

    python3 legion_bench/run.py --workload <name|all> --seed N --seconds S \
        --trace 0|1
    python3 legion_bench/run.py --self-test     # the statistics tests

Run from the repository root. The first run configures and builds the
benchmark (and the libraries it measures, from src/) under
.bench_build/legion_bench; later runs rebuild incrementally.

Prints every metric by name with its unit, a `meta:` line describing the
machine and build, and, as the last line, one JSON object with exactly the
keys correct, attempted, failed and metrics. Traced runs also write one
call's layer waterfall as Chrome trace-event JSON and check it with
scripts/check_bench_shapes.py --validate-trace. Every result is also kept,
with its metadata, under .bench_build/legion_bench/results/.

Exit codes: 0 correct, 1 a correctness check failed, 2 the benchmark could
not build or run (no result line is printed).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "legion_bench"
OUT = BUILD / "out"
RESULTS = BUILD / "results"
VALIDATOR = ROOT / "scripts" / "check_bench_shapes.py"
WORKLOADS = ["warm_invoke", "cold_resolve", "lifecycle_churn", "process_invoke"]
# The measured seconds of one workload when --seconds is not given; the same
# as run_seconds in BENCHMARK.json.
RUN_SECONDS = 12.0
# One workload runs set-up, a warm-up and the measured window; stay well
# inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"legion_bench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; False if it failed."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"legion_bench: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Legion sources under {ROOT / 'src'}; run from a checkout "
             "of the repository")
    if not (BUILD / "CMakeCache.txt").is_file():
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300):
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for target in targets:
        if not run_quiet(["cmake", "--build", str(BUILD), "-j", jobs,
                          "--target", target], 850):
            fail(f"building {target} failed")


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_binary(args, timeout):
    """Runs legion_bench in its own process group, so that a timeout also
    stops the worker processes it spawned; returns (exit code, stdout)."""
    proc = subprocess.Popen([str(BUILD / "legion_bench")] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s")
    return proc.returncode, out


def validate_trace(path):
    """True when the Chrome trace file passes the repository's validator."""
    if not VALIDATOR.is_file():
        print(f"legion_bench: {VALIDATOR} missing; trace not validated",
              file=sys.stderr)
        return False
    done = subprocess.run([sys.executable, str(VALIDATOR), "--validate-trace",
                           str(path)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    print(f"   {(done.stdout + done.stderr).strip()}")
    return done.returncode == 0


def self_test():
    build(["stats_test"])
    binary = BUILD / "stats_test"
    if not binary.is_file():
        fail("stats_test was not built (GTest not found)")
    sys.exit(subprocess.run([str(binary)], cwd=ROOT).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the statistics tests, then exit")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    build(["legion_bench"])
    OUT.mkdir(parents=True, exist_ok=True)
    for stale in OUT.glob("trace_*.json"):
        stale.unlink()
    timeout = RUN_TIMEOUT_S * (8 if args.workload == "all" else 1)
    code, out = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(OUT.relative_to(ROOT))], timeout)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        fail(f"legion_bench exited {code} without a result")
    for line in lines[:-1]:
        print(line)

    meta = result.pop("meta")
    meta["git_commit"] = git_commit()
    print("meta: " + json.dumps(meta, sort_keys=True))

    if args.trace == 1 or args.workload == "all":
        traces = sorted(OUT.glob("trace_*.json"))
        if not traces:
            print("   no trace file was written")
            result["correct"] = False
        for path in traces:
            if not validate_trace(path):
                result["correct"] = False

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = RESULTS / (f"{args.workload}_seed{args.seed}_"
                        f"trace{args.trace}.json")
    record.write_text(json.dumps({"meta": meta, "result": result},
                                 indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
