#!/usr/bin/env python3
"""Gate BENCH_*.json perf results against a committed baseline.

Usage:
    tools/check_bench_regression.py CURRENT.json BASELINE.json [--factor 2.0]
        [--exact NAME ...]

Compares every latency series' p50 in CURRENT against the same series in
BASELINE and fails (exit 1) if any regressed by more than --factor. Series
present only in one file are reported but not fatal: new benches should not
need a baseline update to land, and retired ones should not break CI for
unrelated changes. Speedup-style scalars (anything named *_speedup*) are
checked the other way around: they must not fall below baseline / factor.
Each --exact NAME names a deterministic scalar (a count) that must be present
in both files and equal in both.

CI runs this in the bench-smoke job against bench/baselines/ (docs/PERF.md).
Refresh a baseline by copying the repo-root BENCH_*.json over it in the same
PR that deliberately changes the performance envelope.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != 1:
        raise SystemExit(f"{path}: unsupported schema_version {doc.get('schema_version')!r}")
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly generated BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="max tolerated p50 regression ratio (default: 2.0)",
    )
    parser.add_argument(
        "--exact",
        action="append",
        default=[],
        metavar="NAME",
        help="scalar that must be present in both files and equal (repeatable)",
    )
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)

    cur_series = {s["name"]: s for s in current.get("series", [])}
    base_series = {s["name"]: s for s in baseline.get("series", [])}

    failures: list[str] = []
    for name, base in sorted(base_series.items()):
        cur = cur_series.get(name)
        if cur is None:
            print(f"note: series '{name}' missing from current run (skipped)")
            continue
        base_p50, cur_p50 = base["p50"], cur["p50"]
        if base_p50 <= 0.0:
            print(f"note: series '{name}' baseline p50 <= 0 (skipped)")
            continue
        ratio = cur_p50 / base_p50
        status = "ok" if ratio <= args.factor else "REGRESSED"
        print(
            f"{status:>9}  {name}: p50 {cur_p50 * 1e6:.3f} us vs baseline "
            f"{base_p50 * 1e6:.3f} us ({ratio:.2f}x, limit {args.factor:.2f}x)"
        )
        if ratio > args.factor:
            failures.append(name)
    for name in sorted(set(cur_series) - set(base_series)):
        print(f"note: series '{name}' not in baseline (skipped)")

    base_scalars = baseline.get("scalars", {})
    cur_scalars = current.get("scalars", {})
    for name, base_value in sorted(base_scalars.items()):
        if "_speedup" not in name or name not in cur_scalars or base_value <= 0.0:
            continue
        floor = base_value / args.factor
        cur_value = cur_scalars[name]
        status = "ok" if cur_value >= floor else "REGRESSED"
        print(
            f"{status:>9}  {name}: {cur_value:.2f}x vs baseline "
            f"{base_value:.2f}x (floor {floor:.2f}x)"
        )
        if cur_value < floor:
            failures.append(name)

    for name in args.exact:
        if name not in base_scalars or name not in cur_scalars:
            print(f"  MISSING  {name}: exact scalar absent from current or baseline")
            failures.append(name)
            continue
        cur_value, base_value = cur_scalars[name], base_scalars[name]
        status = "ok" if cur_value == base_value else "CHANGED"
        print(f"{status:>9}  {name}: {cur_value} vs baseline {base_value} (exact)")
        if cur_value != base_value:
            failures.append(name)

    if failures:
        print(f"\n{len(failures)} regression(s): {', '.join(failures)}", file=sys.stderr)
        return 1
    print("\nall series within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
