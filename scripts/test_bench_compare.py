#!/usr/bin/env python3
"""Self-test for scripts/bench_compare.py — exit-code contract over fixtures.

bench_compare.py is itself a CI gate, so its exit codes ARE its API: ci.sh and
perf-gate jobs branch on them. This test builds small bench records — metrics
snapshots whose `bench.*` gauges are the series, named BENCH_<name>.json — in
a tempdir and asserts the full matrix:

  valid record matching its baseline          -> 0 (default and --strict)
  bad schema / unreadable JSON / bad value    -> 1 (always)
  no bench.* gauge / not named BENCH_*.json   -> 1 (always)
  drifting series (worse direction)           -> 0 default, 2 --strict
  improved series (better direction)          -> 0 default, 2 --strict
  disappeared series (in baseline, not run)   -> 0 default, 2 --strict
  new series (in run, not baseline)           -> 0 default + NEW warn, 2 --strict
  record with no baseline file                -> 0 default + NEW warn, 2 --strict

Deltas are signed ((value-base)/|base|), so the output also pins the
direction: a time_* series moving 10 -> 15 must print +50.00% and DRIFT,
10 -> 5 must print -50.00% and improved.

Run directly (`python3 scripts/test_bench_compare.py`) or via ctest
(`ctest -R bench_compare`). No third-party dependencies.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_compare.py")


def bench_record(series: dict[str, float]) -> dict:
    """A record as BenchReporter writes one: series are bench.* gauges, sorted
    by name like every snapshot, beside an ungated gauge."""
    gauges = [{"name": f"bench.{k}", "labels": {"unit": "s"}, "value": v}
              for k, v in series.items()]
    gauges.append({"name": "wall.seconds", "labels": {}, "value": 0.5})
    return {"schema": "multihit.metrics.v1", "counters": [],
            "gauges": sorted(gauges, key=lambda g: g["name"]), "histograms": []}


def write_json(path: str, doc: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, SCRIPT, *args],
                          capture_output=True, text=True)


def check(label: str, proc: subprocess.CompletedProcess, expect_code: int,
          expect_in_output: list[str] | None = None) -> list[str]:
    failures = []
    if proc.returncode != expect_code:
        failures.append(f"{label}: exit {proc.returncode}, expected {expect_code}\n"
                        f"  stdout: {proc.stdout!r}\n  stderr: {proc.stderr!r}")
    combined = proc.stdout + proc.stderr
    for needle in expect_in_output or []:
        if needle not in combined:
            failures.append(f"{label}: output missing {needle!r}\n"
                            f"  stdout: {proc.stdout!r}\n  stderr: {proc.stderr!r}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if not failures:
        print(f"ok   {label}")
    return failures


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bench_compare_test.") as tmp:
        baseline_dir = os.path.join(tmp, "baselines")
        write_json(os.path.join(baseline_dir, "BENCH_scaling.json"),
                   bench_record({"time_100": 10.0, "time_1000": 1.2}))
        base_args = ["--baseline-dir", baseline_dir]

        def record(case: str, series: dict[str, float],
                   name: str = "scaling") -> str:
            """Writes BENCH_<name>.json under its own case directory: the
            bench name comes from the file name."""
            return write_json(os.path.join(tmp, case, f"BENCH_{name}.json"),
                              bench_record(series))

        # 1. Valid record, matching baseline: clean pass in both modes.
        matching = record("match", {"time_100": 10.0, "time_1000": 1.2})
        failures += check("matching/default", run([*base_args, matching]), 0,
                          ["valid bench record 'scaling' (2 series)", "ok   "])
        failures += check("matching/strict",
                          run([*base_args, "--strict", matching]), 0)

        # 2. Invalid records: always exit 1, strict or not.
        bad_schema = write_json(os.path.join(tmp, "bad", "BENCH_scaling.json"),
                                {"schema": "bogus.v9", "gauges": []})
        failures += check("bad-schema/default", run([*base_args, bad_schema]), 1,
                          ["ERROR", "expected 'multihit.metrics.v1'"])
        not_json = os.path.join(tmp, "garbage", "BENCH_scaling.json")
        os.makedirs(os.path.dirname(not_json))
        with open(not_json, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        failures += check("not-json/default", run([*base_args, not_json]), 1,
                          ["ERROR"])
        doc = bench_record({"time_100": 10.0})
        doc["gauges"][0]["value"] = "10"
        string_value = write_json(os.path.join(tmp, "string", "BENCH_scaling.json"), doc)
        failures += check("string-value/strict",
                          run([*base_args, "--strict", string_value]), 1,
                          ["gauges[0] 'bench.time_100' has no finite value"])
        no_series = write_json(os.path.join(tmp, "empty", "BENCH_scaling.json"),
                               bench_record({}))
        failures += check("no-bench-gauge/default", run([*base_args, no_series]), 1,
                          ["no bench.* gauges"])
        misnamed = write_json(os.path.join(tmp, "misnamed", "scaling.json"),
                              bench_record({"time_100": 10.0, "time_1000": 1.2}))
        failures += check("misnamed/default", run([*base_args, misnamed]), 1,
                          ["not BENCH_<name>.json"])

        # 3. Drift beyond the 10% default threshold: warn by default, 2 strict.
        drifting = record("drift", {"time_100": 15.0, "time_1000": 1.2})
        failures += check("drift/default", run([*base_args, drifting]), 0,
                          ["DRIFT", "+50.00%", "drifted beyond"])
        failures += check("drift/strict",
                          run([*base_args, "--strict", drifting]), 2, ["DRIFT"])
        failures += check("drift/wide-threshold",
                          run([*base_args, "--strict", "--threshold", "0.60",
                               drifting]), 0)

        # 3b. The same magnitude of movement in the *better* direction for the
        # series (time_*: lower is better) is classed improved — friendlier
        # label, same strict-mode gate: the baseline is stale either way.
        improving = record("improve", {"time_100": 5.0, "time_1000": 1.2})
        failures += check("improved/default", run([*base_args, improving]), 0,
                          ["improved", "-50.00%"])
        failures += check("improved/strict",
                          run([*base_args, "--strict", improving]), 2,
                          ["improved"])
        # 3c. Higher-is-better names flip the labels: a throughput gain is
        # improved, not DRIFT.
        write_json(os.path.join(baseline_dir, "BENCH_rates.json"),
                   bench_record({"combos_per_sec": 100.0}))
        faster = record("rates", {"combos_per_sec": 150.0}, name="rates")
        failures += check("higher-better/default", run([*base_args, faster]), 0,
                          ["improved", "+50.00%"])

        # 4. A baselined series that vanished from the run counts as drift.
        disappeared = record("gone", {"time_100": 10.0})
        failures += check("disappeared/default", run([*base_args, disappeared]), 0,
                          ["disappeared"])
        failures += check("disappeared/strict",
                          run([*base_args, "--strict", disappeared]), 2,
                          ["disappeared"])

        # 5. A run series absent from the baseline is reported as NEW; strict
        # refuses it until the baseline is updated.
        new_series = record("new", {"time_100": 10.0, "time_1000": 1.2,
                                    "time_2000": 0.7})
        failures += check("new-series/default", run([*base_args, new_series]), 0,
                          ["NEW", "have no baseline"])
        failures += check("new-series/strict",
                          run([*base_args, "--strict", new_series]), 2, ["NEW"])

        # 6. A record whose bench has no baseline file at all is unbaselined
        # as a whole: a warning by default, refused under --strict like one
        # unbaselined series inside a baselined record.
        unmatched = record("other", {"t": 1.0}, name="nobaseline")
        failures += check("no-baseline-file/default", run([*base_args, unmatched]), 0,
                          ["no baseline at"])
        failures += check("no-baseline-file/strict",
                          run([*base_args, "--strict", unmatched]), 2,
                          ["no baseline at"])

    if failures:
        print(f"{len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("all bench_compare self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
