#!/usr/bin/env python3
"""Bench-shape regression gate.

Runs the deterministic simulator benches (virtual time, seeded RNG — their
output is byte-stable run to run) and diffs every table cell against the
checked-in baseline in bench/baselines.json. A change in any shape-defining
counter (consults per 1k, hit rates, repair totals, per-layer costs, ...)
fails the check: shape inversions — the curve bending the wrong way — cannot
land silently.

Wall-clock benches (E10 bench_micro, E11 bench_thread_runtime) are excluded:
their numbers are machine-dependent and belong to EXPERIMENTS.md, not a CI
gate. E17 bench_trace_overhead is gated on its deterministic hops_recorded
cells (the CPU-time columns mask as unstable) and on its printed
"verdict: PASS" budget line, which judges the median of nine paired
thread-CPU-time ratios against tracing off.

Usage:
  scripts/check_bench_shapes.py [--build-dir build]          # check
  scripts/check_bench_shapes.py [--build-dir build] --update # re-baseline
  scripts/check_bench_shapes.py --validate-trace trace.json  # exporter check

--update runs every bench twice and records only cells identical across both
runs; a cell that differs (a bench grew a wall-clock column) is stored as
null and skipped by future checks, so the gate never flakes on timing.

--validate-trace checks an exported Chrome trace-event file: well-formed
JSON, a traceEvents list whose events carry the required fields, and
timestamps that are monotone non-decreasing in file order (the exporter
sorts them; a regression there breaks chrome://tracing imports).
"""

import argparse
import json
import os
import subprocess
import sys

# The deterministic sim benches, by experiment number (see EXPERIMENTS.md).
SIM_BENCHES = [
    ("E1", "bench_binding_cache"),
    ("E2", "bench_ba_scaling"),
    ("E3", "bench_combining_tree"),
    ("E4", "bench_class_cloning"),
    ("E5", "bench_distributed_principle"),
    ("E6", "bench_binding_path"),
    ("E7", "bench_lifecycle"),
    ("E8", "bench_replication"),
    ("E9", "bench_stale_bindings"),
    ("E12", "bench_placement"),
    ("E13", "bench_binding_ttl"),
    ("E14", "bench_split"),
    ("E15", "bench_recovery"),
    # E16's table mixes deterministic density cells (bytes/object, allocation
    # counts) with wall-clock lookup columns; the two-run masking in --update
    # stores the timing cells as null so only the density shape is gated.
    ("E16", "bench_memory_per_object"),
    # E17's CPU-time columns mask as unstable; the deterministic
    # hops_recorded ablation cells (off / 1-in-1 / 1-in-64) are the gate.
    ("E17", "bench_trace_overhead"),
    # E18's population/thread-count columns are deterministic (the runtime
    # either adds threads per endpoint or it doesn't); create_us masks as
    # unstable. The 100x resident-object ratio is the printed verdict line.
    ("E18", "bench_epoll_scaling"),
    # E19 spawns real worker processes: spawn latency and calls/s are
    # wall-clock (masked), but the sibling-availability table is exact
    # counts and the verdict line asserts 100% availability across kill -9
    # rounds — the isolation gate the process-isolation CI lane rides on.
    ("E19", "bench_process_isolation"),
]

# Benches whose stdout carries a self-judged budget line; a "verdict: FAIL"
# fails the check even when every gated table cell matches.
VERDICT_BENCHES = {"bench_trace_overhead", "bench_epoll_scaling",
                   "bench_process_isolation"}


def parse_tables(text):
    """Parse sim::Table output: '== title ==', a ' | ' header, a '-+-' rule,
    then rows until the first blank line. Returns a list of
    {title, columns, rows} dicts in order of appearance."""
    tables = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if line.startswith("==") and line.endswith("=="):
            title = line.strip("=").strip()
            if i + 2 >= len(lines) or "-+-" not in lines[i + 2]:
                i += 1
                continue
            columns = [c.strip() for c in lines[i + 1].split("|")]
            rows = []
            i += 3
            while i < len(lines) and lines[i].strip():
                rows.append([c.strip() for c in lines[i].split("|")])
                i += 1
            tables.append({"title": title, "columns": columns, "rows": rows})
        else:
            i += 1
    return tables


def run_bench(build_dir, name):
    path = os.path.join(build_dir, "bench", name)
    if not os.path.exists(path):
        sys.exit(f"FATAL: {path} not found — build the benches first "
                 f"(cmake --build {build_dir})")
    proc = subprocess.run([path], capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"FATAL: {name} exited {proc.returncode}:\n{proc.stderr}")
    if name in VERDICT_BENCHES:
        verdicts = [ln for ln in proc.stdout.splitlines()
                    if ln.startswith("verdict:")]
        if not verdicts:
            sys.exit(f"FATAL: {name} printed no verdict line")
        for ln in verdicts:
            if "PASS" not in ln:
                sys.exit(f"FATAL: {name} budget exceeded — {ln}")
    return parse_tables(proc.stdout)


def mask_unstable(first, second):
    """Keep a cell only if both runs agree; unstable cells become null."""
    masked = []
    for ta, tb in zip(first, second):
        rows = []
        for ra, rb in zip(ta["rows"], tb["rows"]):
            rows.append([a if a == b else None for a, b in zip(ra, rb)])
        masked.append(
            {"title": ta["title"], "columns": ta["columns"], "rows": rows})
    return masked


def update(build_dir, baseline_path):
    baselines = {}
    for exp, name in SIM_BENCHES:
        first = run_bench(build_dir, name)
        second = run_bench(build_dir, name)
        if [t["title"] for t in first] != [t["title"] for t in second]:
            sys.exit(f"FATAL: {name} emitted different tables across runs")
        tables = mask_unstable(first, second)
        unstable = sum(
            cell is None for t in tables for row in t["rows"] for cell in row)
        total = sum(len(row) for t in tables for row in t["rows"])
        baselines[name] = {"experiment": exp, "tables": tables}
        print(f"  {exp:>4} {name}: {len(tables)} table(s), "
              f"{total - unstable}/{total} stable cells")
    with open(baseline_path, "w") as f:
        json.dump({"comment": "Generated by scripts/check_bench_shapes.py "
                              "--update. Cells stored as null were unstable "
                              "across back-to-back runs and are not checked.",
                   "benches": baselines}, f, indent=1)
        f.write("\n")
    print(f"wrote {baseline_path}")


def check(build_dir, baseline_path):
    try:
        with open(baseline_path) as f:
            baselines = json.load(f)["benches"]
    except (OSError, KeyError, json.JSONDecodeError) as err:
        sys.exit(f"FATAL: cannot read {baseline_path} ({err}); "
                 f"run with --update to (re)generate it")
    failures = []
    checked = 0
    for exp, name in SIM_BENCHES:
        if name not in baselines:
            failures.append(f"{name}: no baseline entry — run --update")
            continue
        want_tables = baselines[name]["tables"]
        got_tables = run_bench(build_dir, name)
        if [t["title"] for t in got_tables] != \
           [t["title"] for t in want_tables]:
            failures.append(
                f"{name}: table set changed "
                f"(baseline {[t['title'] for t in want_tables]}, "
                f"current {[t['title'] for t in got_tables]})")
            continue
        for want, got in zip(want_tables, got_tables):
            where = f"{name} [{exp}] table '{want['title']}'"
            if want["columns"] != got["columns"]:
                failures.append(f"{where}: columns changed "
                                f"({want['columns']} -> {got['columns']})")
                continue
            if len(want["rows"]) != len(got["rows"]):
                failures.append(f"{where}: row count changed "
                                f"({len(want['rows'])} -> "
                                f"{len(got['rows'])})")
                continue
            for r, (wrow, grow) in enumerate(zip(want["rows"], got["rows"])):
                for c, (wcell, gcell) in enumerate(zip(wrow, grow)):
                    if wcell is None:
                        continue  # unstable at baseline time: not a gate
                    checked += 1
                    if wcell != gcell:
                        col = want["columns"][c] if c < len(
                            want["columns"]) else f"col{c}"
                        failures.append(
                            f"{where} row {r} ({wrow[0]}) col '{col}': "
                            f"baseline '{wcell}' != current '{gcell}'")
    if failures:
        print(f"bench-shapes: {len(failures)} mismatch(es) against "
              f"{baseline_path}:", file=sys.stderr)
        for f_ in failures:
            print(f"  FAIL {f_}", file=sys.stderr)
        print("\nIf the new shape is intended (an algorithmic change moved "
              "the curves), regenerate with:\n  scripts/check_bench_shapes.py"
              " --update\nand commit bench/baselines.json alongside the "
              "change.", file=sys.stderr)
        return 1
    print(f"bench-shapes: OK — {checked} stable cells across "
          f"{len(SIM_BENCHES)} benches match {baseline_path}")
    return 0


def validate_trace(path):
    """Checks an exported Chrome trace-event JSON file: parses, has a
    traceEvents list, required per-event fields, and monotone timestamps."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace-validate: {path} is not well-formed JSON ({err})",
              file=sys.stderr)
        return 1
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        print(f"trace-validate: {path} has no traceEvents list",
              file=sys.stderr)
        return 1
    errors = []
    last_ts = None
    spans = 0
    for i, ev in enumerate(events):
        for field in ("ph", "pid", "tid", "ts"):
            if field not in ev:
                errors.append(f"event {i} missing '{field}': {ev}")
                break
        else:
            ph = ev["ph"]
            if ph == "M":
                continue  # metadata rows carry no duration and pin ts 0
            if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
                errors.append(f"event {i} has bad ts {ev['ts']!r}")
                continue
            if last_ts is not None and ev["ts"] < last_ts:
                errors.append(f"event {i} ts {ev['ts']} < predecessor "
                              f"{last_ts} (events must be sorted)")
            last_ts = ev["ts"]
            if ph == "X":
                spans += 1
                if ev.get("dur", -1) < 0:
                    errors.append(f"event {i} 'X' span has bad dur "
                                  f"{ev.get('dur')!r}")
    if errors:
        print(f"trace-validate: {len(errors)} problem(s) in {path}:",
              file=sys.stderr)
        for e in errors[:20]:
            print(f"  FAIL {e}", file=sys.stderr)
        return 1
    print(f"trace-validate: OK — {path}: {len(events)} events "
          f"({spans} complete spans), timestamps monotone")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baselines", default="bench/baselines.json")
    ap.add_argument("--update", action="store_true",
                    help="regenerate the baseline from the current build")
    ap.add_argument("--validate-trace", metavar="FILE",
                    help="validate an exported Chrome trace instead of "
                         "running the bench gate")
    args = ap.parse_args()
    if args.validate_trace:
        return validate_trace(args.validate_trace)
    if args.update:
        update(args.build_dir, args.baselines)
        return 0
    return check(args.build_dir, args.baselines)


if __name__ == "__main__":
    sys.exit(main())
