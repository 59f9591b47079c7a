#!/usr/bin/env python3
"""Exact compare of freshly emitted bench JSON against bench/baselines/.

Every bench in this repository emits only deterministic rows: peak bytes,
arena bytes, off-chip traffic, states expanded, plan sizes, hashes,
placement and request counts — exact reproductions of the scheduler's and
the server's output, identical across machines. This check (the ctest test
`bench_baselines`, after every bench has written its BENCH_*.json) FAILS
(exit 1) on:

  * any field that differs from its baseline: strings exactly, numbers to
    a 1e-9 relative tolerance (float formatting);
  * a missing or extra row or field;
  * a malformed file, or a baseline file whose fresh counterpart was never
    emitted — silent bench truncation is a failure, not a pass.

No row carries a time; perfbench (BENCHMARK.json) is the timing authority.
When a change moves one of these numbers on purpose, regenerate the
baseline in the same change.

Usage:
  tools/check_bench_regression.py --baselines bench/baselines \
      --fresh build/bench_json

stdlib-only by design: it runs straight from checkout with no installs.
"""

import argparse
import json
import os
import sys


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
    for key in ("cell", "input", "network", "workload", "configuration",
                "series", "algorithm"):
        if key in row:
            extras = [str(row[key])]
            for qualifier in ("capacity_kb", "batch_size", "configuration",
                              "rewriting"):
                if qualifier != key and qualifier in row:
                    extras.append(f"{qualifier}={row[qualifier]}")
            return " / ".join(extras)
    return f"row {index}"


def compare_file(name, baseline_rows, fresh_rows, failures):
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
            if not numbers_equal(b, f):
                failures.append(
                    f"{name} [{label}]: '{key}' drifted {b!r} -> {f!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of committed baseline BENCH_*.json")
    parser.add_argument("--fresh", default=".",
                        help="directory holding freshly emitted BENCH_*.json")
    args = parser.parse_args()

    if not os.path.isdir(args.baselines):
        print(f"error: baseline directory '{args.baselines}' does not exist "
              f"(expected the committed bench/baselines checkout)",
              file=sys.stderr)
        return 1
    if not os.path.isdir(args.fresh):
        print(f"error: fresh-results directory '{args.fresh}' does not "
              f"exist (did the benches run?)", file=sys.stderr)
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
        compare_file(name, baseline_rows, fresh_rows, failures)
        print(f"checked {name}: {len(fresh_rows)} rows")

    for fresh_only in sorted(
            f for f in os.listdir(args.fresh)
            if f.startswith("BENCH_") and f.endswith(".json")
            and f not in baseline_files):
        warnings.append(f"{fresh_only}: emitted but has no committed "
                        f"baseline (add one under {args.baselines})")

    for message in warnings:
        print(f"::warning::bench coverage: {message}")
    if failures:
        for message in failures:
            print(f"::error::bench regression: {message}")
        print(f"\n{len(failures)} failure(s); if the change is intentional, "
              f"update bench/baselines/.", file=sys.stderr)
        return 1
    print(f"\nall {len(baseline_files)} baseline file(s) clean "
          f"({len(warnings)} warning(s)).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
