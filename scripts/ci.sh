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
# optimized build, validate the multihit.bench.v1 records, and diff them
# against the committed baselines under --strict. Every series here is a
# modeled (simulated-clock) number, deterministic run to run, so any drift is
# a real change in the model or in the kernel accounting it prices; a
# deliberate model change re-baselines bench/baselines/ in the same commit.
bench_dir="build/bench_records"
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
# report replays byte-identically, and the measured profiler overhead stays
# under 5%. Its BENCH series are those booleans, so --strict pins them; the
# raw wall-clock lands in gauges only. The overhead reading and any GATE
# FAILURE line stay in the log.
echo "=== host profiler gate ==="
MULTIHIT_BENCH_DIR="$bench_dir" build/bench/bench_hostprof | grep -E 'overhead:|GATE FAILURE'
if command -v python3 > /dev/null; then
  python3 scripts/bench_compare.py --strict "$bench_dir"/BENCH_hostprof.json
fi
# BitSplicing wall time, printed into the log without a gate (wall clock is
# not gateable): the BM_BitSplice medians for a random ~25%-covered mask
# (greedy:0, the worst case for the splice's run list) and the mask a cover2
# greedy iteration splices (greedy:1).
echo "=== bit splice timing ==="
build/bench/bench_kernels --benchmark_filter='^BM_BitSplice/' --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true 2> /dev/null | grep -E '^BM_BitSplice/.*_median'
# Profiling must be a pure observer: attaching --host-profile-out cannot
# change a byte of the sweep's selections (the binary itself enforces that
# against the serial reference), and the multihit.hostprof.v1 document must
# replay byte-identically offline. Deterministic projections must also agree
# across repeat runs AND across bitops backends — wall clock is quarantined.
hostprof_dir="build/hostprof_smoke"
mkdir -p "$hostprof_dir"
for backend in scalar auto; do
  for run in 1 2; do
    MULTIHIT_BITOPS="$backend" build/examples/brca_scaleout 1 --host-threads 4 \
      --host-profile-out "$hostprof_dir/${backend}_$run.hostprof.json" > /dev/null
    build/examples/multihit-obstool hostprof \
      "$hostprof_dir/${backend}_$run.hostprof.json" \
      --report-out "$hostprof_dir/${backend}_$run.replay.json" \
      --deterministic-out "$hostprof_dir/${backend}_$run.det.json" > /dev/null
    cmp "$hostprof_dir/${backend}_$run.hostprof.json" \
        "$hostprof_dir/${backend}_$run.replay.json"
  done
done
cmp "$hostprof_dir/scalar_1.det.json" "$hostprof_dir/scalar_2.det.json"
cmp "$hostprof_dir/auto_1.det.json" "$hostprof_dir/auto_2.det.json"
cmp "$hostprof_dir/scalar_1.det.json" "$hostprof_dir/auto_1.det.json"
echo "host profiler overhead gated, replay byte-identical, projections pinned across backends"

# Trace-analysis smoke: a faulty instrumented run, the obstool pipeline on
# its artifacts, and the determinism gate — analyzing the same trace twice
# (and re-running the instrumented binary) must produce byte-identical
# reports and folded files. Any parse/schema error fails (obstool exits 1).
obs_dir="build/obs_smoke"
mkdir -p "$obs_dir"
echo "=== trace analysis smoke ==="
for run in 1 2; do
  build/examples/brca_scaleout 4 --crash 1@0 --checkpoint 2 \
    --trace-out "$obs_dir/run$run.trace.json" \
    --metrics-out "$obs_dir/run$run.metrics.json" \
    --report-out "$obs_dir/run$run.report.json" > /dev/null
done
cmp "$obs_dir/run1.trace.json" "$obs_dir/run2.trace.json"
cmp "$obs_dir/run1.report.json" "$obs_dir/run2.report.json"
for pass in 1 2; do
  build/examples/multihit-obstool analyze \
    "$obs_dir/run1.trace.json" "$obs_dir/run1.metrics.json" \
    --report-out "$obs_dir/pass$pass.report.json" \
    --folded-out "$obs_dir/pass$pass.folded" > /dev/null
done
cmp "$obs_dir/pass1.report.json" "$obs_dir/pass2.report.json"
cmp "$obs_dir/pass1.folded" "$obs_dir/pass2.folded"
build/examples/multihit-obstool analyze "$obs_dir/run1.trace.json"
echo "trace analysis deterministic (in-process and offline)"

# Kernel-profiler smoke: an instrumented run with --profile-out, the obstool
# profile pipeline reconciling the profile against the run's trace and
# metrics (any mismatch exits 1), and the same determinism gates — both the
# instrumented binary and the offline renderer must be byte-stable.
echo "=== kernel profile smoke ==="
for run in 1 2; do
  build/examples/brca_scaleout 4 --crash 1@0 --checkpoint 2 \
    --trace-out "$obs_dir/prof$run.trace.json" \
    --metrics-out "$obs_dir/prof$run.metrics.json" \
    --profile-out "$obs_dir/prof$run.profile.json" > /dev/null
done
cmp "$obs_dir/prof1.profile.json" "$obs_dir/prof2.profile.json"
for pass in 1 2; do
  build/examples/multihit-obstool profile \
    "$obs_dir/prof1.profile.json" "$obs_dir/prof1.trace.json" \
    "$obs_dir/prof1.metrics.json" \
    --report-out "$obs_dir/prof_pass$pass.report.json" \
    --roofline-out "$obs_dir/prof_pass$pass.roofline.csv" \
    --heatmap-out "$obs_dir/prof_pass$pass.heatmap.csv" > /dev/null
done
cmp "$obs_dir/prof_pass1.report.json" "$obs_dir/prof_pass2.report.json"
cmp "$obs_dir/prof_pass1.roofline.csv" "$obs_dir/prof_pass2.roofline.csv"
cmp "$obs_dir/prof_pass1.heatmap.csv" "$obs_dir/prof_pass2.heatmap.csv"
# --profile-out without any instrumented output must be rejected, not
# silently produce an empty profile.
if build/examples/brca_scaleout 4 --profile-out "$obs_dir/reject.profile.json" \
    > /dev/null 2>&1; then
  echo "ERROR: --profile-out without instrumentation should fail" >&2
  exit 1
fi
echo "kernel profile deterministic and reconciled"

# Health-monitor smoke: inject one crash, require exactly one dead-rank
# incident, score the incidents against the emitted ground truth (obstool
# exits 1 on anything short of full recall / zero false positives), and gate
# the multihit.health.v1 byte-identity invariant — the in-process document
# (--health-out, which monitors the Chrome-replayed trace) must be
# byte-identical to an offline `obstool monitor` replay of the same trace.
echo "=== health monitor smoke ==="
build/examples/brca_scaleout 4 --crash 1@1 --checkpoint 2 \
  --trace-out "$obs_dir/health.trace.json" \
  --metrics-out "$obs_dir/health.metrics.json" \
  --health-out "$obs_dir/inproc.health.json" \
  --truth-out "$obs_dir/health.truth.json" > /dev/null
build/examples/multihit-obstool monitor \
  "$obs_dir/health.trace.json" "$obs_dir/health.metrics.json" \
  --health-out "$obs_dir/offline.health.json" \
  --truth "$obs_dir/health.truth.json" > "$obs_dir/health.summary.txt"
cmp "$obs_dir/inproc.health.json" "$obs_dir/offline.health.json"
if [ "$(grep -c 'dead_rank: 1 incident' "$obs_dir/health.summary.txt")" -ne 1 ]; then
  echo "ERROR: expected exactly one dead-rank incident:" >&2
  cat "$obs_dir/health.summary.txt" >&2
  exit 1
fi
echo "health monitor byte-identical (in-process and offline), truth score perfect"

# Job-service smoke: replay one seeded multi-tenant trace (24 jobs, bursty
# arrivals, cache invalidations) twice per bitops backend. The
# multihit.serve.v1 report, Chrome trace, and metrics snapshot must be
# byte-identical across runs AND across backends, and the driver itself
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
      --slo-out "$serve_dir/${backend}_$run.slo.json" \
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
cmp "$serve_dir/scalar_1.slo.json" "$serve_dir/scalar_2.slo.json"
cmp "$serve_dir/scalar_1.slo.json" "$serve_dir/auto_1.slo.json"
if command -v python3 > /dev/null; then
  python3 scripts/bench_compare.py --strict "$bench_dir"/BENCH_serve_latency.json
  python3 scripts/bench_compare.py --strict "$bench_dir"/BENCH_serve_slo.json
fi
echo "job service byte-identical (runs and backends), served answers pinned standalone"

# SLO smoke: the multihit.slo.v1 verdict layer over the serve run above.
#  1. Offline replay identity: `obstool slo` over the saved multihit.serve.v1
#     report must reproduce the in-process --slo-out document byte for byte,
#     and the clean trace passes (exit 0).
#  2. Detector ground truth: every planted --scenario pathology fires its
#     monitor detector class at the serve cadence, and the clean trace fires
#     nothing. overload/starvation/burn also fail the offline verdict
#     (exit 1); thrash burns fleet efficiency without moving user-visible
#     latency or admission, which is exactly why cache_thrash exists.
echo "=== serve SLO smoke ==="
build/examples/multihit-obstool slo "$serve_dir/scalar_1.serve.json" \
  --spec examples/serve.slo --report-out "$serve_dir/replay.slo.json" > /dev/null
cmp "$serve_dir/scalar_1.slo.json" "$serve_dir/replay.slo.json"
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
echo "serve SLO byte-identical offline replay, 4/4 planted pathologies detected, clean trace silent"

# Cross-run regression gate: run manifests + `obstool diff`.
#  1. Self-identity: two identical equi-area runs (--artifacts-dir writes the
#     standard artifact set plus a multihit.run.v1 manifest) must diff clean
#     (exit 0), and the multihit.diff.v1 report must be byte-identical across
#     repeated diff invocations.
#  2. Backend swap: scalar vs auto with a host-threaded sweep must diff clean
#     under the committed examples/regression.tol spec — every simulated
#     series exact, wall clock confined to tolerated/informational sections.
#  3. Planted regression: equi-area vs equi-distance must diff dirty (exit 1)
#     with the makespan delta attributed to phase×rank cells, and the dirty
#     report must be byte-identical across invocations too.
#  4. bench_diff pins the engine's own invariants (attribution exactness,
#     round-trip identity) against the committed baseline under --strict.
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
  "$diff_dir/scalar/manifest.json" "$diff_dir/auto/manifest.json" \
  --tol examples/regression.tol --summary
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
MULTIHIT_BENCH_DIR="$bench_dir" build/bench/bench_diff > /dev/null
if command -v python3 > /dev/null; then
  python3 scripts/bench_compare.py --strict "$bench_dir"/BENCH_diff.json
fi
echo "cross-run diff gate green (self clean, backend swap tolerated, scheduler swap attributed)"

# The registry's lone 2-hit type once crashed cancer_panel (a 4-hit kernel's
# ranks unranked as 2-hit combinations → wild gene indices); the default
# panel loop only covers hits >= 4, so drive the BRCA path explicitly.
echo "=== cancer panel smoke ==="
build/examples/cancer_panel BRCA > /dev/null
build/examples/cancer_panel > /dev/null
echo "cancer panel green (2-hit BRCA path included)"

echo "=== all presets green ==="
