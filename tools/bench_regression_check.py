#!/usr/bin/env python3
"""Perf regression gate: compare a fresh benchmark run against a baseline.

Rows are matched by name between the committed baseline (bench/baselines/)
and a freshly emitted BENCH_*.json from the same benchmark. A row regresses
when its latency metric worsens by more than the threshold (default 15%).
The metric is `counters.p99_burst_ns` when both sides carry it (the serve
bench's tail-latency counter), else per-iteration `real_time_ns`.

Rows present on only one side are reported but do not fail the gate —
sweeps legitimately grow and shrink — and improvements never fail it.
Throughput-style counters (qps) are noisy on shared CI runners, so the gate
reads time-per-unit metrics only.

Zero dependencies beyond the standard library, by design.

Usage:
  python3 tools/bench_regression_check.py \
      --baseline bench/baselines/BENCH_bench_query_throughput.json \
      --current build/bench-json/BENCH_bench_query_throughput.json \
      [--threshold-pct 15]

Exit code 0 when no matched row regresses past the threshold; 1 otherwise.
"""

import argparse
import json
import sys


def load_rows(path):
    """Returns {row name: row dict} for one baseline file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("benchmarks", []):
        if isinstance(row, dict) and isinstance(row.get("name"), str):
            rows[row["name"]] = row
    return rows


def metric(row):
    """Returns (value, metric name) — p99 burst latency when present."""
    counters = row.get("counters")
    if isinstance(counters, dict):
        p99 = counters.get("p99_burst_ns")
        if isinstance(p99, (int, float)) and not isinstance(p99, bool) \
                and p99 > 0:
            return float(p99), "p99_burst_ns"
    value = row.get("real_time_ns")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value), "real_time_ns"
    return None, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json to compare against")
    parser.add_argument("--current", required=True,
                        help="freshly emitted BENCH_*.json from this run")
    parser.add_argument("--threshold-pct", type=float, default=15.0,
                        help="fail when a metric worsens past this (%%)")
    args = parser.parse_args()

    try:
        baseline = load_rows(args.baseline)
        current = load_rows(args.current)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if not baseline or not current:
        print("error: baseline or current file has no benchmark rows",
              file=sys.stderr)
        return 1

    regressions = []
    matched = 0
    for name, base_row in sorted(baseline.items()):
        cur_row = current.get(name)
        if cur_row is None:
            print(f"note: row only in baseline (skipped): {name}")
            continue
        base_value, base_metric = metric(base_row)
        cur_value, cur_metric = metric(cur_row)
        if base_value is None or cur_value is None:
            print(f"note: row has no usable metric (skipped): {name}")
            continue
        # Fall back to real_time_ns on both sides when the metrics differ,
        # so a baseline with p99 never compares against a wall-clock value.
        if base_metric != cur_metric:
            base_value = float(base_row.get("real_time_ns", 0))
            cur_value = float(cur_row.get("real_time_ns", 0))
            base_metric = "real_time_ns"
            if base_value <= 0 or cur_value <= 0:
                print(f"note: metrics disagree and real_time_ns is unusable "
                      f"(skipped): {name}")
                continue
        matched += 1
        delta_pct = (cur_value - base_value) / base_value * 100.0
        status = "ok"
        if delta_pct > args.threshold_pct:
            status = "REGRESSION"
            regressions.append((name, base_metric, delta_pct))
        print(f"{status}: {name} {base_metric} {base_value:.0f} -> "
              f"{cur_value:.0f} ({delta_pct:+.1f}%)")
    for name in sorted(set(current) - set(baseline)):
        print(f"note: row only in current run (skipped): {name}")

    if matched == 0:
        print("error: no rows matched between baseline and current run",
              file=sys.stderr)
        return 1
    if regressions:
        print(f"FAIL: {len(regressions)} row(s) regressed more than "
              f"{args.threshold_pct:.0f}% vs {args.baseline}",
              file=sys.stderr)
        return 1
    print(f"ok: {matched} matched row(s) within {args.threshold_pct:.0f}% "
          f"of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
