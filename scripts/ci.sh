#!/usr/bin/env bash
# Full local CI: build and run the test suite under every preset in
# CMakePresets.json — the optimized build, the ASan+UBSan build, and the
# TSan build (whose test preset narrows to the concurrency-heavy suites:
# the host-threaded sweep, chunk queue, bitops dispatch, and the host
# profiler). Any sanitizer report aborts the run
# (-fno-sanitize-recover=all turns UBSan findings into hard failures; the
# asan preset adds float-cast-overflow, which GCC's -fsanitize=undefined
# leaves out).
#
# Usage: scripts/ci.sh [jobs]   (default: nproc)

set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${1:-$(nproc)}"

for preset in default asan tsan; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$jobs"
  echo "=== [$preset] test ==="
  ctest --preset "$preset" -j "$jobs"
done

# Instrumented bench trajectory: run the BENCH-emitting benches from the
# optimized build, validate the records (metrics snapshots whose bench.*
# gauges are the series), and diff them against the committed baselines
# under --strict. Every series here is a
# modeled (simulated-clock) number, deterministic run to run, so any drift is
# a real change in the model or in the kernel accounting it prices; a
# deliberate model change re-baselines bench/baselines/ in the same commit.
bench_dir="build/bench_records"
# Start from empty output directories, so the format inventory at the end
# sees exactly the files this run wrote.
rm -rf "$bench_dir" build/*_smoke
mkdir -p "$bench_dir"
echo "=== bench records ==="
for bench in fig4_scaling fig6_util_2x2 fig7_util_3x1 fig8_comm_overhead \
             tab_fault_overhead tab_detection_latency; do
  MULTIHIT_BENCH_DIR="$bench_dir" "build/bench/$bench" > /dev/null
done
# fig5 is a google-benchmark binary; skip the measured part (filter matches
# nothing) and keep only the modeled table, which emits the BENCH record.
MULTIHIT_BENCH_DIR="$bench_dir" build/bench/fig5_memopt \
  --benchmark_filter='NOTHING_MATCHES' > /dev/null
if command -v python3 > /dev/null; then
  python3 scripts/bench_compare.py --strict \
    "$bench_dir"/BENCH_fig4_scaling.json "$bench_dir"/BENCH_fig5_memopt.json \
    "$bench_dir"/BENCH_fig6_util_2x2.json "$bench_dir"/BENCH_fig7_util_3x1.json \
    "$bench_dir"/BENCH_fig8_comm_overhead.json "$bench_dir"/BENCH_tab_fault_overhead.json \
    "$bench_dir"/BENCH_tab_detection_latency.json
else
  echo "python3 not found; skipping BENCH schema validation" >&2
fi

# Bit-kernel gate (strict, not warn-only): bench_bitops exits non-zero unless
# every backend is bit-identical to scalar AND the AVX2 two-row AND+popcount
# clears 2x at paper-scale row lengths; its BENCH series are deterministic
# booleans, so --strict pins them against the committed baseline without
# tripping on machine-dependent wall-clock (which lands in metrics only).
# Its verdict lines stay in the log, so a tripped gate shows its reading.
echo "=== bitops backend gate ==="
MULTIHIT_BENCH_DIR="$bench_dir" build/bench/bench_bitops |
  grep -E 'differential identity|speedup:|GATE FAILURE'
if command -v python3 > /dev/null; then
  python3 scripts/bench_compare.py --strict "$bench_dir"/BENCH_bench_bitops.json
fi
obs_dir="build/obs_smoke"
mkdir -p "$obs_dir"
# Forcing the backend must not change a single byte of any run artifact:
# trace, metrics, and stdout of the functional distributed run are compared
# across MULTIHIT_BITOPS=scalar and =auto (auto picks SIMD where supported).
for backend in scalar auto; do
  MULTIHIT_BITOPS="$backend" build/examples/brca_scaleout 2 \
    --trace-out "$obs_dir/bitops_$backend.trace.json" \
    --metrics-out "$obs_dir/bitops_$backend.metrics.json" \
    > "$obs_dir/bitops_$backend.stdout"
done
cmp "$obs_dir/bitops_scalar.trace.json" "$obs_dir/bitops_auto.trace.json"
cmp "$obs_dir/bitops_scalar.metrics.json" "$obs_dir/bitops_auto.metrics.json"
# stdout echoes the per-backend artifact paths; normalize that token, then
# require everything else byte-identical.
for backend in scalar auto; do
  sed "s/bitops_$backend\./bitops_BACKEND./g" "$obs_dir/bitops_$backend.stdout" \
    > "$obs_dir/bitops_$backend.stdout.norm"
done
cmp "$obs_dir/bitops_scalar.stdout.norm" "$obs_dir/bitops_auto.stdout.norm"
# The host-threaded sweep prints real wall-clock (not byte-comparable), but
# the binary itself exits non-zero unless its selections are identical to
# the serial and distributed references — run it under both backends.
for backend in scalar auto; do
  MULTIHIT_BITOPS="$backend" build/examples/brca_scaleout 1 --host-threads 2 > /dev/null
done
echo "bitops backends byte-identical (scalar vs auto), threaded sweep pinned"

# Host-profiler gate (strict): bench_hostprof runs the Part 1b sweep plain
# and profiled and exits non-zero unless selections are bit-identical, the
# host trace replays byte-identically, its span counts match the counters,
# and the measured profiler overhead stays under 5%. Its BENCH series are those booleans plus each cancer type's
# pruned fraction (exact counts), so --strict pins them; the raw wall-clock
# lands in gauges only. The overhead reading, the pruned fractions and any
# GATE FAILURE line stay in the log.
echo "=== host profiler gate ==="
MULTIHIT_BENCH_DIR="$bench_dir" build/bench/bench_hostprof |
  grep -E 'overhead:|pruned fraction|^    [A-Z]+: |GATE FAILURE'
if command -v python3 > /dev/null; then
  python3 scripts/bench_compare.py --strict "$bench_dir"/BENCH_hostprof.json
fi
# BitSplicing wall time, printed into the log without a gate (wall clock is
# not gateable): the BM_BitSplice medians for a random ~25%-covered mask
# (greedy:0, where most words lose bits) and the mask a cover2 greedy
# iteration splices (greedy:1), each with the scalar compress (avx2:0) and,
# where the CPU has it, the PEXT one (avx2:1).
echo "=== bit splice timing ==="
build/bench/bench_kernels --benchmark_filter='^BM_BitSplice/' --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true 2> /dev/null | grep -E '^BM_BitSplice/.*_median'
# Stop-iteration kernel time, printed without a gate: one evaluation of
# ACC's serve dataset spliced to the iteration where the best combination
# covers nothing and thousands of combinations tie at the top F.
echo "=== stop-iteration kernel timing ==="
build/bench/bench_kernels --benchmark_filter='^BM_KernelFourHit3x1Terminal' \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true 2> /dev/null |
  grep -E '^BM_KernelFourHit3x1Terminal_median'
# Lazy greedy, printed without a gate: the median of a full cover2-shaped
# solve with the Engine's carried bounds (lazy:1) and without (lazy:0), each
# line with the threads an iteration rescans on average; beside it one greedy
# floor of a mid-solve cover2 iteration (25-word rows) and of a sweep4 solve's
# second iteration (2-word rows, counted inline on AVX2), given its row-count
# table (given:1) or counting the rows itself (given:0), with the
# and_popcount calls it makes. Then the sweep4-shaped kernel: one
# whole-space cold 3x1 evaluation with fresh carried bounds (carried:1) and
# without (carried:0), one warm
# evaluation on a copy of the bounds a solve's first iteration left, one warm
# mid-solve evaluation of a served 4-hit type (LUSC's fifth), and the 3-digit
# unranking that repositions the scan after a block skip.
echo "=== lazy greedy timing ==="
build/bench/bench_kernels \
  --benchmark_filter='^BM_(LazyGreedyCover2/|GreedyFloor(Cover2|Sweep4)/|ColdEvaluateSweep4/|WarmEvaluate(Sweep4|Served)|UnrankFlat3)' \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true 2> /dev/null |
  grep -E '^BM_(LazyGreedyCover2|GreedyFloor(Cover2|Sweep4)|ColdEvaluateSweep4|WarmEvaluate(Sweep4|Served)|UnrankFlat3).*_median'
# Dataset generation, printed without a gate: one cover2-shaped
# generate_dataset call, and its floor, the same 780k background draws through
# a local inline xoshiro256** that ORs each bit into its word.
echo "=== dataset generation timing ==="
build/bench/bench_kernels --benchmark_filter='^BM_(GenerateDatasetCover2|XoshiroFloor)$' \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true 2> /dev/null |
  grep -E '^BM_(GenerateDatasetCover2|XoshiroFloor)_median'
# Profiling must be a pure observer: attaching --host-profile-out cannot
# change a byte of the sweep's selections (the binary itself enforces that
# against the serial reference). The host trace is wall clock, so it is
# never compared across runs; what is pinned is that `obstool analyze`
# reads it deterministically (two analyses of one file are byte-identical,
# report and folded stacks alike), and that the run's metrics, which carry
# the exact hostsweep.* counters, agree across repeat runs AND across bitops
# backends. Four workers sweep block-aligned chunks; one worker sweeps the
# whole space as one chunk, the path wallbench runs.
hostprof_dir="build/hostprof_smoke"
mkdir -p "$hostprof_dir"
for threads in 4 1; do
  for backend in scalar auto; do
    for run in 1 2; do
      base="$hostprof_dir/${backend}_${threads}t_$run"
      MULTIHIT_BITOPS="$backend" build/examples/brca_scaleout 1 --host-threads "$threads" \
        --host-profile-out "$base.trace.json" --metrics-out "$base.metrics.json" > /dev/null
      for pass in 1 2; do
        build/examples/multihit-obstool analyze "$base.trace.json" \
          --report-out "$base.pass$pass.report.json" \
          --folded-out "$base.pass$pass.folded" > "$base.pass$pass.txt"
      done
      cmp "$base.pass1.report.json" "$base.pass2.report.json"
      cmp "$base.pass1.folded" "$base.pass2.folded"
      cmp "$base.pass1.txt" "$base.pass2.txt"
      for phase in claim evaluate tail_idle; do
        grep -q "^    $phase: total .*(lane [0-9]*)" "$base.pass1.txt"
      done
    done
  done
  cmp "$hostprof_dir/scalar_${threads}t_1.metrics.json" "$hostprof_dir/scalar_${threads}t_2.metrics.json"
  cmp "$hostprof_dir/auto_${threads}t_1.metrics.json" "$hostprof_dir/auto_${threads}t_2.metrics.json"
  cmp "$hostprof_dir/scalar_${threads}t_1.metrics.json" "$hostprof_dir/auto_${threads}t_1.metrics.json"
done
echo "host profiler overhead gated, host traces analyzed deterministically, counters pinned across backends"

# Trace-analysis smoke: a faulty instrumented run, the obstool pipeline on
# its trace, and the determinism gate — re-running the instrumented binary
# must produce a byte-identical trace, and analyzing it twice byte-identical
# reports and folded files (the analysis is a view of the trace; the run
# writes none of its own). Any parse/schema error fails (obstool exits 1).
# The run's metrics carry the simulated kernel counters (the gpu.* series
# fig5/fig6/fig7 read, the Fig. 6c gpu.stall_seconds among them): they too
# must be byte-identical across the two runs.
obs_dir="build/obs_smoke"
mkdir -p "$obs_dir"
echo "=== trace analysis smoke ==="
for run in 1 2; do
  build/examples/brca_scaleout 4 --crash 1@0 --checkpoint 2 \
    --trace-out "$obs_dir/run$run.trace.json" \
    --metrics-out "$obs_dir/run$run.metrics.json" > /dev/null
done
cmp "$obs_dir/run1.trace.json" "$obs_dir/run2.trace.json"
cmp "$obs_dir/run1.metrics.json" "$obs_dir/run2.metrics.json"
for reason in memory_dependency memory_throttle execution_dependency other; do
  grep -q "\"name\":\"gpu.stall_seconds\",\"labels\":{\"reason\":\"$reason\"}" \
    "$obs_dir/run1.metrics.json"
done
for pass in 1 2; do
  build/examples/multihit-obstool analyze "$obs_dir/run1.trace.json" \
    --report-out "$obs_dir/pass$pass.report.json" \
    --folded-out "$obs_dir/pass$pass.folded" > /dev/null
done
cmp "$obs_dir/pass1.report.json" "$obs_dir/pass2.report.json"
cmp "$obs_dir/pass1.folded" "$obs_dir/pass2.folded"
build/examples/multihit-obstool analyze "$obs_dir/run1.trace.json"
echo "trace analysis deterministic (runs and offline passes), kernel metrics pinned"

# Health-monitor smoke: inject one crash, require exactly one dead-rank
# incident, and score the incidents against the ground truth — the trace's
# own fault instants. The run's metrics carry its incidents as
# health.incidents counters (recorded in-process from the Chrome-replayed
# trace); `obstool monitor TRACE METRICS` exits 1 unless they equal what its
# offline replay records, and on anything short of full recall / zero false
# positives. The PERFECT verdict must be printed, so a scoring path that
# never runs fails here.
echo "=== health monitor smoke ==="
build/examples/brca_scaleout 4 --crash 1@1 --checkpoint 2 \
  --trace-out "$obs_dir/health.trace.json" \
  --metrics-out "$obs_dir/health.metrics.json" > /dev/null
build/examples/multihit-obstool monitor \
  "$obs_dir/health.trace.json" "$obs_dir/health.metrics.json" \
  > "$obs_dir/health.summary.txt"
grep -q 'verdict: PERFECT' "$obs_dir/health.summary.txt"
if [ "$(grep -c 'dead_rank: 1 incident' "$obs_dir/health.summary.txt")" -ne 1 ]; then
  echo "ERROR: expected exactly one dead-rank incident:" >&2
  cat "$obs_dir/health.summary.txt" >&2
  exit 1
fi
grep -q '"name":"health.incidents","labels":{"lane":"1","rule":"dead_rank"},"value":1}' \
  "$obs_dir/health.metrics.json"
echo "health counters equal the offline replay, truth score perfect"

# Job-service smoke: replay one seeded multi-tenant trace (24 jobs, bursty
# arrivals, cache invalidations) twice per bitops backend. The
# multihit.serve.v1 report, Chrome trace, and metrics snapshot (with the
# SLO verdict's slo.* series) must be byte-identical across runs AND across
# backends, and the driver itself
# exits non-zero unless every served job's selections are bit-identical to a
# standalone single-job run. The latency/throughput BENCH series are fully
# modeled (simulated clock), so --strict pins them against the committed
# baseline exactly — a scheduling or admission regression shows up as drift.
echo "=== job service smoke ==="
serve_dir="build/serve_smoke"
mkdir -p "$serve_dir"
for backend in scalar auto; do
  for run in 1 2; do
    MULTIHIT_BITOPS="$backend" MULTIHIT_BENCH_DIR="$bench_dir" \
      build/examples/multihit-serve --mix bursty --jobs 24 --seed 7 \
      --invalidate-rate 0.2 --bench \
      --slo-spec examples/serve.slo \
      --out "$serve_dir/${backend}_$run.serve.json" \
      --trace-out "$serve_dir/${backend}_$run.trace.json" \
      --metrics-out "$serve_dir/${backend}_$run.metrics.json" > /dev/null
  done
done
cmp "$serve_dir/scalar_1.serve.json" "$serve_dir/scalar_2.serve.json"
cmp "$serve_dir/auto_1.serve.json" "$serve_dir/auto_2.serve.json"
cmp "$serve_dir/scalar_1.serve.json" "$serve_dir/auto_1.serve.json"
cmp "$serve_dir/scalar_1.trace.json" "$serve_dir/auto_1.trace.json"
cmp "$serve_dir/scalar_1.metrics.json" "$serve_dir/auto_1.metrics.json"
if command -v python3 > /dev/null; then
  python3 scripts/bench_compare.py --strict "$bench_dir"/BENCH_serve_latency.json
  python3 scripts/bench_compare.py --strict "$bench_dir"/BENCH_serve_slo.json
fi
echo "job service byte-identical (runs and backends), served answers pinned standalone"

# SLO smoke: the per-tenant verdict layer over the serve run above.
#  1. Offline replay identity: `obstool slo` over the saved multihit.serve.v1
#     report must record exactly the slo.* series the run wrote into its
#     metrics (entry by entry; a difference exits 1), and the clean trace
#     passes (exit 0).
#  2. Detector ground truth: every planted --scenario pathology fires its
#     monitor detector class at the serve cadence, and the clean trace fires
#     nothing. overload/starvation/burn also fail the offline verdict
#     (exit 1); thrash burns fleet efficiency without moving user-visible
#     latency or admission, which is exactly why cache_thrash exists.
echo "=== serve SLO smoke ==="
build/examples/multihit-obstool slo "$serve_dir/scalar_1.serve.json" \
  --spec examples/serve.slo "$serve_dir/scalar_1.metrics.json" > /dev/null
build/examples/multihit-obstool monitor "$serve_dir/scalar_1.trace.json" \
  --sample-every 0.5 --window-samples 256 --slo-spec examples/serve.slo \
  --summary > "$serve_dir/clean.health.txt"
if grep -q 'incident(s)' "$serve_dir/clean.health.txt"; then
  echo "ERROR: clean serve trace fired incidents:" >&2
  cat "$serve_dir/clean.health.txt" >&2
  exit 1
fi
for scenario in overload starvation burn thrash; do
  build/examples/multihit-serve --jobs 24 --seed 7 --scenario "$scenario" \
    --out "$serve_dir/$scenario.serve.json" \
    --trace-out "$serve_dir/$scenario.trace.json" > /dev/null
  if build/examples/multihit-obstool slo "$serve_dir/$scenario.serve.json" \
    --spec examples/serve.slo --quiet > /dev/null 2>&1; then
    verdict=0
  else
    verdict=1
  fi
  case "$scenario" in
    thrash) want_verdict=0 detector=cache_thrash ;;
    overload) want_verdict=1 detector=queue_saturation ;;
    starvation) want_verdict=1 detector=tenant_starvation ;;
    burn) want_verdict=1 detector=slo_slow_burn ;;
  esac
  if [ "$verdict" -ne "$want_verdict" ]; then
    echo "ERROR: $scenario: obstool slo exit $verdict, want $want_verdict" >&2
    exit 1
  fi
  build/examples/multihit-obstool monitor "$serve_dir/$scenario.trace.json" \
    --sample-every 0.5 --window-samples 256 --slo-spec examples/serve.slo \
    --summary > "$serve_dir/$scenario.health.txt"
  if ! grep -q "$detector: .* incident" "$serve_dir/$scenario.health.txt"; then
    echo "ERROR: $scenario did not fire $detector:" >&2
    cat "$serve_dir/$scenario.health.txt" >&2
    exit 1
  fi
done
echo "serve SLO offline replay equals the run's slo.* metrics, 4/4 planted pathologies detected, clean trace silent"

# Cross-run regression gate: run manifests + `obstool diff`.
#  1. Self-identity: two identical equi-area runs (--artifacts-dir writes the
#     trace and the metrics plus a multihit.run.v1 manifest inventorying
#     exactly those two; diff derives the critical-path analysis from the
#     trace) must diff clean (exit 0), and the multihit.diff.v1 report must
#     be byte-identical across repeated diff invocations.
#  2. Backend swap: scalar vs auto with a host-threaded sweep must diff clean:
#     every simulated series and every hostsweep.* counter exact (the host
#     trace, wall clock, is in no manifest).
#  3. Planted regression: equi-area vs equi-distance must diff dirty (exit 1)
#     with the makespan delta attributed to a phase on a rank and no removed
#     series (a rounding gap in a trace is no critical-path cell), and the
#     dirty report must be byte-identical across invocations too.
#  4. An incident is a regression: a crashed run (the health smoke's fault
#     flags) must diff dirty against the clean one, with its
#     health.incidents counter regressed.
#  5. A violated SLO is a regression: a served run with the burn scenario
#     planted must diff dirty against the clean one under the same spec,
#     with its slo.violated counter regressed.
#  6. bench_diff pins the engine's own invariants (self identity, regression
#     detection, the attributed cell named in the summary) against the
#     committed baseline under --strict.
echo "=== cross-run diff gate ==="
diff_dir="build/diff_smoke"
rm -rf "$diff_dir"
mkdir -p "$diff_dir"
for run in ea_1 ea_2; do
  build/examples/brca_scaleout 2 --artifacts-dir "$diff_dir/$run" > /dev/null
done
build/examples/brca_scaleout 2 --scheduler ed --artifacts-dir "$diff_dir/ed_1" > /dev/null
build/examples/multihit-obstool diff \
  "$diff_dir/ea_1/manifest.json" "$diff_dir/ea_2/manifest.json" \
  --report-out "$diff_dir/self.diff.json" --summary
for backend in scalar auto; do
  MULTIHIT_BITOPS="$backend" build/examples/brca_scaleout 2 --host-threads 2 \
    --artifacts-dir "$diff_dir/$backend" > /dev/null
done
build/examples/multihit-obstool diff \
  "$diff_dir/scalar/manifest.json" "$diff_dir/auto/manifest.json" --summary
for pass in 1 2; do
  if build/examples/multihit-obstool diff \
    "$diff_dir/ea_1/manifest.json" "$diff_dir/ed_1/manifest.json" \
    --report-out "$diff_dir/sched_$pass.diff.json" --quiet > /dev/null 2>&1; then
    echo "ERROR: equi-area vs equi-distance should diff dirty" >&2
    exit 1
  fi
done
cmp "$diff_dir/sched_1.diff.json" "$diff_dir/sched_2.diff.json"
grep -q 'attributed to' "$diff_dir/sched_1.diff.json"
grep -q '"removed_series":0' "$diff_dir/sched_1.diff.json"
build/examples/brca_scaleout 2 --crash 1@1 --checkpoint 2 \
  --artifacts-dir "$diff_dir/crash" > /dev/null
if build/examples/multihit-obstool diff \
  "$diff_dir/ea_1/manifest.json" "$diff_dir/crash/manifest.json" \
  --report-out "$diff_dir/crash.diff.json" --quiet > /dev/null 2>&1; then
  echo "ERROR: a crashed run should diff dirty against a clean one" >&2
  exit 1
fi
grep -q '"series":"metrics.counter.health.incidents","class":"regressed"' \
  "$diff_dir/crash.diff.json"
for run in ea_1 ea_2 ed_1 scalar auto crash; do
  names=$(grep -o '"name":"[^"]*"' "$diff_dir/$run/manifest.json" | tr '\n' ' ')
  if [ "$names" != '"name":"metrics" "name":"trace" ' ]; then
    echo "ERROR: $run manifest inventories $names; want exactly metrics and trace" >&2
    exit 1
  fi
done
for scenario in none burn; do
  build/examples/multihit-serve --jobs 24 --seed 7 --scenario "$scenario" \
    --slo-spec examples/serve.slo --artifacts-dir "$diff_dir/serve_$scenario" > /dev/null
done
if build/examples/multihit-obstool diff \
  "$diff_dir/serve_none/manifest.json" "$diff_dir/serve_burn/manifest.json" \
  --report-out "$diff_dir/burn.diff.json" --quiet > /dev/null 2>&1; then
  echo "ERROR: a burning serve run should diff dirty against a clean one" >&2
  exit 1
fi
grep -q '"series":"metrics.counter.slo.violated","class":"regressed"' \
  "$diff_dir/burn.diff.json"
MULTIHIT_BENCH_DIR="$bench_dir" build/bench/bench_diff > /dev/null
if command -v python3 > /dev/null; then
  python3 scripts/bench_compare.py --strict "$bench_dir"/BENCH_diff.json
fi
echo "cross-run diff gate green (self clean, backend swap exact, scheduler swap attributed, incident and SLO violation regressed)"

# The registry's lone 2-hit type once crashed cancer_panel (a 4-hit kernel's
# ranks unranked as 2-hit combinations → wild gene indices); the default
# panel loop only covers hits >= 4, so drive the BRCA path explicitly.
echo "=== cancer panel smoke ==="
build/examples/cancer_panel BRCA > /dev/null
build/examples/cancer_panel > /dev/null
echo "cancer panel green (2-hit BRCA path included)"

# Format inventory: every JSON file the steps above wrote is a metrics
# snapshot (run metrics, analysis reports, bench records), a serve report, a
# run manifest, a diff report, or a Chrome trace (which carries no tag). A
# numeric artifact with a format of its own fails here.
echo "=== artifact format inventory ==="
if command -v python3 > /dev/null; then
  python3 - "$bench_dir" build/*_smoke <<'EOF'
import collections, json, pathlib, sys
allowed = {"multihit.metrics.v1", "multihit.serve.v1", "multihit.run.v1", "multihit.diff.v1"}
found = collections.Counter()
for root in sys.argv[1:]:
    for path in sorted(pathlib.Path(root).rglob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        tag = doc.get("schema") if isinstance(doc, dict) else None
        if tag is None and isinstance(doc, dict) and "traceEvents" in doc:
            tag = "chrome trace"
        elif tag not in allowed:
            sys.exit(f"ERROR: {path} has format {tag!r}; want metrics, serve, run, diff "
                     "or a Chrome trace")
        found[tag] += 1
for tag, count in sorted(found.items()):
    print(f"  {count:4d} {tag}")
EOF
fi

echo "=== all presets green ==="

# Code size, printed and not gated: the simplicity aim in ROADMAP.md is
# judged by these two figures, so they come from this one command.
echo "=== source lines (.cpp + .hpp) ==="
for dir in src src/obs; do
  printf '%-8s %s\n' "$dir" "$(find "$dir" -name '*.cpp' -o -name '*.hpp' | xargs cat | wc -l)"
done
