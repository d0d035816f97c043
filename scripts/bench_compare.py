#!/usr/bin/env python3
"""Validate BENCH_*.json records and diff them against committed baselines.

The bench binaries (fig4_scaling, fig8_comm_overhead, tab_fault_overhead, ...)
write one machine-readable perf record each into $MULTIHIT_BENCH_DIR as
BENCH_<name>.json. A record is a plain multihit.metrics.v1 snapshot (see
src/obs/bench.hpp): its `bench.<key>` gauges, labelled {unit} when they have
one, are the headline series; anything else in it (raw wall clock, say) is
drill-down and not gated. This script is the regression gate over that
trajectory:

  1. every record must parse as a metrics snapshot holding at least one
     `bench.*` gauge, each with a finite value and no key repeated; the bench
     name is the <name> of its BENCH_<name>.json file name;
  2. every series present in the matching bench/baselines/BENCH_<name>.json
     is compared with a *signed* relative delta; a move beyond --threshold
     is classed `improved` when it lands in the better direction for that
     series (lower-is-better heuristic mirroring obs::lower_is_better in
     src/obs/diff.cpp) and `DRIFT` when it does not — both demand a
     baseline update, so both gate under --strict;
  3. series in the record but absent from the baseline are reported as NEW,
     and so is a record with no baseline file at all — unbaselined
     measurements silently escape the gate otherwise.

By default drift only warns (exit 0) so modeled-time refinements don't block
CI; --strict turns drift and unbaselined series or records into exit 2.
Invalid records exit 1 either way.

Usage:
  scripts/bench_compare.py [--baseline-dir bench/baselines]
                           [--threshold 0.10] [--strict] FILE...
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

METRICS_SCHEMA = "multihit.metrics.v1"
PREFIX = "bench."


def fail(errors: list[str], message: str) -> None:
    errors.append(message)
    print(f"ERROR: {message}", file=sys.stderr)


def warn(message: str) -> None:
    print(f"WARN: {message}", file=sys.stderr)


def bench_series(path: str, errors: list[str]) -> dict[str, float] | None:
    """The `bench.*` gauges of one record, keyed without the prefix."""
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        fail(errors, f"{path}: unreadable or invalid JSON: {exc}")
        return None

    if not isinstance(record, dict) or record.get("schema") != METRICS_SCHEMA:
        schema = record.get("schema") if isinstance(record, dict) else None
        fail(errors, f"{path}: schema is {schema!r}, expected {METRICS_SCHEMA!r}")
        return None
    gauges = record.get("gauges")
    if not isinstance(gauges, list):
        fail(errors, f"{path}: gauges must be a list")
        return None
    series: dict[str, float] = {}
    for index, gauge in enumerate(gauges):
        name = gauge.get("name") if isinstance(gauge, dict) else None
        if not isinstance(name, str):
            fail(errors, f"{path}: gauges[{index}] has no name")
            return None
        if not name.startswith(PREFIX):
            continue
        value = gauge.get("value")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail(errors, f"{path}: gauges[{index}] {name!r} has no finite value")
            return None
        key = name[len(PREFIX):]
        if key in series:
            fail(errors, f"{path}: gauges[{index}] repeats the series {name!r}")
            return None
        series[key] = float(value)
    if not series:
        fail(errors, f"{path}: no {PREFIX}* gauges")
        return None
    return series


HIGHER_BETTER = ("attainment", "admission", "occupancy", "efficiency",
                 "throughput", "per_sec", "speedup", "cache_hit",
                 "completed", "busy_fraction", "headroom")


def lower_is_better(name: str) -> bool:
    """Mirrors obs::lower_is_better (src/obs/diff.cpp) so the Python and C++
    gates label the same move the same way."""
    return not any(token in name for token in HIGHER_BETTER)


def compare(bench: str, current: dict[str, float], baseline_dir: str,
            threshold: float, errors: list[str], drift: list[str],
            unbaselined: list[str]) -> None:
    baseline_path = os.path.join(baseline_dir, f"BENCH_{bench}.json")
    if not os.path.exists(baseline_path):
        print(f"  {'NEW':<8} {bench}: no baseline at {baseline_path}")
        unbaselined.append(f"{bench}: no baseline at {baseline_path}")
        return
    base = bench_series(baseline_path, errors)
    if base is None:
        return

    for name, base_value in sorted(base.items()):
        if name not in current:
            drift.append(f"{bench}: series {name!r} disappeared")
            continue
        value = current[name]
        if base_value == 0.0:
            delta = 0.0 if value == 0.0 else math.copysign(math.inf, value)
        else:
            delta = (value - base_value) / abs(base_value)
        beyond = abs(delta) > threshold
        if not beyond:
            marker = "ok"
        elif (value < base_value) == lower_is_better(name):
            marker = "improved"
        else:
            marker = "DRIFT"
        print(f"  {marker:<8} {bench}.{name}: {base_value:.6g} -> "
              f"{value:.6g} ({delta:+.2%})")
        if beyond:
            drift.append(f"{bench}.{name}: {base_value:.6g} -> "
                         f"{value:.6g} ({delta:+.2%}, {marker})")
    for name in sorted(set(current) - set(base)):
        print(f"  {'NEW':<8} {bench}.{name}: {current[name]:.6g} (no baseline)")
        unbaselined.append(f"{bench}.{name}: {current[name]:.6g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="BENCH_*.json records to check")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative drift that counts as a regression (default 0.10)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on drift or on unbaselined series or "
                             "records (default: warn only)")
    args = parser.parse_args()

    errors: list[str] = []
    drift: list[str] = []
    unbaselined: list[str] = []
    for path in args.files:
        match = re.fullmatch(r"BENCH_(.+)\.json", os.path.basename(path))
        if not match:
            fail(errors, f"{path}: file name is not BENCH_<name>.json")
            continue
        series = bench_series(path, errors)
        if series is None:
            continue
        bench = match.group(1)
        print(f"{path}: valid bench record {bench!r} ({len(series)} series)")
        compare(bench, series, args.baseline_dir, args.threshold, errors, drift,
                unbaselined)

    if drift:
        warn(f"{len(drift)} series drifted beyond {args.threshold:.0%}:")
        for line in drift:
            print(f"  {line}", file=sys.stderr)
    if unbaselined:
        warn(f"{len(unbaselined)} series or records have no baseline "
             "(add them to bench/baselines):")
        for line in unbaselined:
            print(f"  {line}", file=sys.stderr)
    if errors:
        return 1
    if (drift or unbaselined) and args.strict:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
