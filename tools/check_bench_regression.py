#!/usr/bin/env python3
"""CI perf-trajectory gate over the BENCH_*.json bench emissions.

Compares freshly emitted bench JSON files against the committed baselines in
bench/baselines/. Every benchmark in this repository separates deterministic
metrics (peak bytes, states expanded, plan sizes, placement counts — exact
reproductions of the scheduler's output) from wall-clock timings. The gate:

  * FAILS (exit 1) on any drift in a deterministic metric, on missing or
    extra rows/fields, and on a baseline file whose fresh counterpart was
    never emitted — silent bench truncation is a failure, not a pass.
  * REPORTS timing fields, and raises a loud warning (GitHub '::warning::'
    annotation) when one moved by more than the alarm factor (default 2x in
    either direction). Timings never fail the gate: CI runners are shared
    and noisy; the deterministic metrics are the regression signal.

Deterministic vs timing is decided by field name: anything containing
"seconds", "per_sec", "speedup", "wall", "rps", "p50", "p99" or "latency"
is a timing; every other numeric field must match the baseline exactly
(1e-9 relative tolerance for float formatting). String fields identify rows
and must match exactly. Fields starting with "states_" — the search-space
counters, including the per-bound prune attribution
(states_pruned_by_{incumbent,frontier_floor})
— are ALWAYS deterministic, marker matches notwithstanding: they are exact
state counts of a deterministic search, identical across machines, and
any drift is a behavior change that must be re-baselined deliberately.

Usage:
  tools/check_bench_regression.py --baselines bench/baselines --fresh . \
      [--timing-alarm 2.0]

stdlib-only by design: CI runs it straight from checkout with no installs.
"""

import argparse
import json
import os
import sys

TIMING_MARKERS = ("seconds", "per_sec", "speedup", "wall", "rps", "p50",
                  "p99", "latency")

# Exact state counts of the deterministic search (states_expanded,
# states_pruned_by_bound and its per-bound breakdown). Deterministic no
# matter what timing markers a future field name happens to contain.
DETERMINISTIC_PREFIXES = ("states_",)


def is_timing_field(name):
    lowered = name.lower()
    if any(lowered.startswith(prefix) for prefix in DETERMINISTIC_PREFIXES):
        return False
    return any(marker in lowered for marker in TIMING_MARKERS)


def load_rows(path):
    """Loads one BENCH_*.json payload, raising ValueError — never a raw
    traceback — for every malformed shape a torn emission can produce."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as err:
        raise ValueError(f"{path}: unreadable ({err.strerror})") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(payload, dict):
        raise ValueError(
            f"{path}: top level is {type(payload).__name__}, expected an "
            f"object with a 'rows' list")
    rows = payload.get("rows")
    if rows is None:
        raise ValueError(f"{path}: missing 'rows' key")
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: no rows (truncated or empty emission)")
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(
                f"{path}: row {index} is {type(row).__name__}, expected an "
                f"object of metric fields")
    return rows


def numbers_equal(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            return True
        scale = max(abs(a), abs(b))
        return scale > 0 and abs(a - b) / scale <= 1e-9
    return a == b


def row_label(row, index):
    for key in ("cell", "input", "network", "workload", "configuration"):
        if key in row:
            extras = [str(row[key])]
            for qualifier in ("capacity_kb", "batch_size", "configuration"):
                if qualifier != key and qualifier in row:
                    extras.append(f"{qualifier}={row[qualifier]}")
            return " / ".join(extras)
    return f"row {index}"


def compare_file(name, baseline_rows, fresh_rows, alarm, failures, warnings):
    if len(baseline_rows) != len(fresh_rows):
        failures.append(
            f"{name}: row count changed {len(baseline_rows)} -> "
            f"{len(fresh_rows)}")
        return

    for index, (base, fresh) in enumerate(zip(baseline_rows, fresh_rows)):
        label = row_label(base, index)
        base_keys, fresh_keys = set(base), set(fresh)
        for missing in sorted(base_keys - fresh_keys):
            failures.append(f"{name} [{label}]: field '{missing}' vanished")
        for added in sorted(fresh_keys - base_keys):
            failures.append(
                f"{name} [{label}]: unexpected new field '{added}' "
                f"(re-baseline deliberately)")

        for key in sorted(base_keys & fresh_keys):
            b, f = base[key], fresh[key]
            if is_timing_field(key):
                if (isinstance(b, (int, float)) and not isinstance(b, bool)
                        and isinstance(f, (int, float)) and b > 0 and f > 0):
                    ratio = f / b
                    if ratio > alarm or ratio < 1.0 / alarm:
                        warnings.append(
                            f"{name} [{label}]: timing '{key}' moved "
                            f"{ratio:.2f}x ({b:.6g} -> {f:.6g})")
            elif not numbers_equal(b, f):
                failures.append(
                    f"{name} [{label}]: deterministic '{key}' drifted "
                    f"{b!r} -> {f!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of committed baseline BENCH_*.json")
    parser.add_argument("--fresh", default=".",
                        help="directory holding freshly emitted BENCH_*.json")
    parser.add_argument("--timing-alarm", type=float, default=2.0,
                        help="warn when a timing moves beyond this factor")
    args = parser.parse_args()

    if not os.path.isdir(args.baselines):
        print(f"error: baseline directory '{args.baselines}' does not exist "
              f"(expected the committed bench/baselines checkout)",
              file=sys.stderr)
        return 1
    if not os.path.isdir(args.fresh):
        print(f"error: fresh-results directory '{args.fresh}' does not "
              f"exist (did the bench step run?)", file=sys.stderr)
        return 1

    baseline_files = sorted(
        f for f in os.listdir(args.baselines)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not baseline_files:
        print(f"error: no BENCH_*.json baselines in {args.baselines}",
              file=sys.stderr)
        return 1

    failures, warnings = [], []
    for name in baseline_files:
        fresh_path = os.path.join(args.fresh, name)
        if not os.path.exists(fresh_path):
            failures.append(f"{name}: baseline exists but bench did not "
                            f"emit it this run")
            continue
        try:
            baseline_rows = load_rows(os.path.join(args.baselines, name))
            fresh_rows = load_rows(fresh_path)
        except (ValueError, json.JSONDecodeError) as err:
            failures.append(str(err))
            continue
        compare_file(name, baseline_rows, fresh_rows, args.timing_alarm,
                     failures, warnings)
        print(f"checked {name}: {len(fresh_rows)} rows")

    for fresh_only in sorted(
            f for f in os.listdir(args.fresh)
            if f.startswith("BENCH_") and f.endswith(".json")
            and f not in baseline_files):
        warnings.append(f"{fresh_only}: emitted but has no committed "
                        f"baseline (add one under {args.baselines})")

    for message in warnings:
        print(f"::warning::bench timing/coverage: {message}")
    if failures:
        for message in failures:
            print(f"::error::bench regression: {message}")
        print(f"\n{len(failures)} deterministic-metric failure(s); "
              f"if the change is intentional, update bench/baselines/.",
              file=sys.stderr)
        return 1
    print(f"\nall {len(baseline_files)} baseline file(s) clean "
          f"({len(warnings)} warning(s)).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
