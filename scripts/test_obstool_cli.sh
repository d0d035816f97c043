#!/bin/sh
# multihit-obstool CLI contract test.
#
#   usage errors   -> exit 2, usage text on stderr, nothing on stdout
#   runtime errors -> exit 1 (unreadable inputs, malformed documents, ...)
#
# Usage: test_obstool_cli.sh /path/to/multihit-obstool /path/to/brca_scaleout
# (brca_scaleout writes the equi-area and equi-distance traces the analysis
# diff rows compare).
set -u

OBSTOOL=${1:?usage: test_obstool_cli.sh OBSTOOL BRCA_SCALEOUT}
BRCA=${2:?usage: test_obstool_cli.sh OBSTOOL BRCA_SCALEOUT}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fails=0

# expect NAME EXPECTED_STATUS [args...]
expect() {
  name=$1 want=$2
  shift 2
  "$OBSTOOL" "$@" > "$TMP/out" 2> "$TMP/err"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: exit $got, want $want (args: $*)" >&2
    fails=$((fails + 1))
  fi
}

# expect_error_naming NAME FIELD [args...]: runtime error (exit 1) whose
# stderr names the offending FIELD.
expect_error_naming() {
  name=$1 field=$2
  shift 2
  expect "$name" 1 "$@"
  if ! grep -qF "$field" "$TMP/err"; then
    echo "FAIL $name: stderr does not name $field (args: $*)" >&2
    fails=$((fails + 1))
  fi
}

expect_usage_on_stderr() {
  name=$1
  shift
  "$OBSTOOL" "$@" > "$TMP/out" 2> "$TMP/err"
  if ! grep -q '^usage:' "$TMP/err"; then
    echo "FAIL $name: no usage text on stderr (args: $*)" >&2
    fails=$((fails + 1))
  fi
  if [ -s "$TMP/out" ]; then
    echo "FAIL $name: usage error wrote to stdout (args: $*)" >&2
    fails=$((fails + 1))
  fi
}

# --- usage errors: exit 2, usage on stderr -------------------------------
expect no_arguments 2
expect unknown_subcommand 2 frobnicate trace.json
expect_usage_on_stderr unknown_subcommand_usage frobnicate trace.json
expect analyze_missing_operand 2 analyze
expect monitor_missing_operand 2 monitor
expect analyze_unknown_flag 2 analyze trace.json --bogus
expect monitor_unknown_flag 2 monitor trace.json --bogus
expect monitor_flag_missing_value 2 monitor trace.json --truth-window
# The ground truth is the trace's own fault instants: no truth file.
expect monitor_truth_unknown_flag 2 monitor trace.json --truth truth.json
# The analysis report is a view of the trace alone: no METRICS operand.
expect analyze_extra_operand 2 analyze trace.json metrics.json
# Incidents are health.incidents metrics now: no rules file, no health document.
expect monitor_rules_unknown_flag 2 monitor trace.json --rules r.rules
expect monitor_health_out_unknown_flag 2 monitor trace.json --health-out h.json
expect_usage_on_stderr analyze_missing_operand_usage analyze
# The kernel profile is the run's gpu.* metrics now: no profile subcommand.
expect profile_unknown_command 2 profile run.profile.json

# --- runtime errors: exit 1 ----------------------------------------------
expect analyze_nonexistent_input 1 analyze "$TMP/no-such-trace.json"
expect monitor_nonexistent_input 1 monitor "$TMP/no-such-trace.json"

printf 'not json' > "$TMP/garbage.json"
expect analyze_malformed_input 1 analyze "$TMP/garbage.json"
expect monitor_malformed_input 1 monitor "$TMP/garbage.json"

# A metrics document where a trace belongs: the schema check must reject it
# at runtime, naming both tags.
printf '{"schema":"multihit.metrics.v1","counters":[]}' > "$TMP/metrics.json"
expect monitor_wrong_schema 1 monitor "$TMP/metrics.json"

# --- success path: exit 0 on a minimal valid trace -----------------------
printf '{"traceEvents":[],"displayTimeUnit":"ms"}' > "$TMP/empty.trace.json"
expect monitor_empty_trace 0 monitor "$TMP/empty.trace.json" --quiet
expect analyze_empty_trace 0 analyze "$TMP/empty.trace.json" --quiet

# Metrics whose health.incidents total disagrees with the replay (an empty
# trace fires nothing) fail the crosscheck.
printf '{"schema":"multihit.metrics.v1","counters":[{"name":"health.incidents","labels":{},"value":1}],"gauges":[],"histograms":[]}' \
  > "$TMP/health.metrics.json"
printf '{"schema":"multihit.metrics.v1","counters":[{"name":"engine.iterations","labels":{},"value":5}],"gauges":[],"histograms":[]}' \
  > "$TMP/metrics_a.json"
expect_error_naming monitor_health_mismatch 'health.incidents' \
  monitor "$TMP/empty.trace.json" "$TMP/health.metrics.json" --quiet

# A trace holding one injected crash (a "fault.crash" instant) but no
# telemetry: the monitor scores against that instant, misses it, and fails.
printf '%s' '{"displayTimeUnit":"ms","traceEvents":[{"name":"fault.crash","cat":"fault","ph":"i","s":"t","pid":0,"tid":1,"ts":1000,"args":{"iteration":"1"}}]}' \
  > "$TMP/crash.trace.json"
expect monitor_missed_fault 1 monitor "$TMP/crash.trace.json"
if ! grep -q 'MISS: crash rank 1 @ iteration 1' "$TMP/out"; then
  echo "FAIL monitor_missed_fault: no MISS line on stdout" >&2
  fails=$((fails + 1))
fi

# --- slo subcommand -------------------------------------------------------
# Usage: needs both the trace operand and --spec.
expect slo_missing_operand 2 slo
expect_usage_on_stderr slo_missing_operand_usage slo
expect slo_unknown_flag 2 slo serve.trace.json --bogus
expect slo_flag_missing_value 2 slo serve.trace.json --spec

printf 'slo * latency p99 below 40\nslo * admission above 0.5\n' > "$TMP/ok.slo"
expect slo_missing_spec 2 slo "$TMP/serve.trace.json"

# Runtime errors: unreadable/malformed/non-trace inputs, malformed specs.
expect slo_nonexistent_input 1 slo "$TMP/no-such.trace.json" --spec "$TMP/ok.slo"
expect slo_malformed_input 1 slo "$TMP/garbage.json" --spec "$TMP/ok.slo"
expect slo_wrong_schema 1 slo "$TMP/metrics.json" --spec "$TMP/ok.slo"

# A served run's trace: one `job` instant per analyze request, on its job
# lane, times as exact decimal text.
job_trace() {
  printf '{"displayTimeUnit":"ms","traceEvents":[{"name":"job","cat":"serve","ph":"i","s":"t","pid":0,"tid":1048578,"ts":1000000,"args":{"id":"0","tenant":"t","cancer":"BRCA","hits":"4","outcome":"%s","cache_hit":"false","selections":"1,2,3,4","arrival":"0","finish":"1"}}]}' "$1"
}
job_trace completed > "$TMP/serve.trace.json"
printf 'slo t latency p99 beneath 40\n' > "$TMP/bad.slo"
expect slo_bad_spec 1 slo "$TMP/serve.trace.json" --spec "$TMP/bad.slo"

# Verdicts: exit 0 when every objective holds, exit 1 on any violation.
expect slo_clean 0 slo "$TMP/serve.trace.json" --spec "$TMP/ok.slo" --quiet
printf 'slo t latency p99 below 0.5\n' > "$TMP/tight.slo"
expect slo_violation 1 slo "$TMP/serve.trace.json" --spec "$TMP/tight.slo" --quiet

# A misspelt outcome is refused naming the event, never read as a rejection;
# a trace with no job instants is no served run's; and a served run writes
# no document of its own, so a file in the retired serve report format is
# no trace for slo and no comparable artifact for diff. Its tag is spliced
# in by printf so that no source line spells the retired tag.
job_trace completd > "$TMP/misspelt.trace.json"
expect_error_naming slo_misspelt_outcome "instant 'job' on lane 1048578" \
  slo "$TMP/misspelt.trace.json" --spec "$TMP/ok.slo" --quiet
if ! grep -qF "outcome 'completd'" "$TMP/err"; then
  echo "FAIL slo_misspelt_outcome: stderr does not name the outcome" >&2
  fails=$((fails + 1))
fi
expect_error_naming slo_no_job_instants 'no serve job instants' \
  slo "$TMP/crash.trace.json" --spec "$TMP/ok.slo" --quiet
printf '{"schema":"multihit.%s.v1","jobs":[{"tenant":"t","arrival":0,"finish":1,"outcome":"completed","cache_hit":false,"latency":1}]}' \
  serve > "$TMP/old.serve.json"
expect slo_old_serve_document 1 slo "$TMP/old.serve.json" --spec "$TMP/ok.slo" --quiet
expect_error_naming diff_old_serve_document 'not a run manifest or a comparable artifact' \
  diff "$TMP/old.serve.json" "$TMP/old.serve.json" --quiet

# The verdict is slo.* metrics now: no SLO document to write.
expect slo_report_out_unknown_flag 2 slo "$TMP/serve.trace.json" --spec "$TMP/ok.slo" \
  --report-out "$TMP/slo.json"
# A METRICS operand must hold the replay's slo.* series: a violated total
# the replay does not record, or no slo.* series at all, fails the
# crosscheck naming the first entry that differs.
printf '{"schema":"multihit.metrics.v1","counters":[{"name":"slo.objectives","labels":{},"value":2},{"name":"slo.violated","labels":{},"value":1}],"gauges":[],"histograms":[]}' \
  > "$TMP/slo.metrics.json"
expect_error_naming slo_metrics_violated_mismatch '"slo.violated"' \
  slo "$TMP/serve.trace.json" --spec "$TMP/ok.slo" "$TMP/slo.metrics.json" --quiet
expect_error_naming slo_metrics_without_slo_series '"slo.objectives"' \
  slo "$TMP/serve.trace.json" --spec "$TMP/ok.slo" "$TMP/metrics_a.json" --quiet
expect slo_extra_operand 2 slo "$TMP/serve.trace.json" --spec "$TMP/ok.slo" a.json b.json

# --- analyze on a host trace ---------------------------------------------
# A host-sweep trace (brca_scaleout --host-profile-out) is a Chrome trace
# whose worker lanes are the rank lanes: analyze names each host phase with
# its straggler worker, and the folded stacks read "worker N;evaluate".
printf '%s' '{"displayTimeUnit":"ms","traceEvents":[{"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{"name":"worker 0"}},{"ph":"M","name":"thread_name","pid":0,"tid":1,"args":{"name":"worker 1"}},{"ph":"M","name":"thread_name","pid":0,"tid":1048576,"args":{"name":"host sweep"}},{"name":"claim","cat":"queue","ph":"X","pid":0,"tid":0,"ts":1,"dur":1},{"name":"evaluate","cat":"compute","ph":"X","pid":0,"tid":0,"ts":2,"dur":4},{"name":"tail_idle","cat":"idle","ph":"X","pid":0,"tid":0,"ts":6,"dur":3},{"name":"claim","cat":"queue","ph":"X","pid":0,"tid":1,"ts":1,"dur":2},{"name":"evaluate","cat":"compute","ph":"X","pid":0,"tid":1,"ts":3,"dur":6},{"name":"tail_idle","cat":"idle","ph":"X","pid":0,"tid":1,"ts":9,"dur":0},{"name":"sweep","cat":"sweep","ph":"X","pid":0,"tid":1048576,"ts":0,"dur":10},{"name":"merge","cat":"sweep","ph":"X","pid":0,"tid":1048576,"ts":9,"dur":1}]}' \
  > "$TMP/host.trace.json"
expect analyze_host_trace 0 analyze "$TMP/host.trace.json" --folded-out "$TMP/host.folded"
for phase in 'claim: .*(lane 1)' 'evaluate: .*(lane 1)' 'tail_idle: .*(lane 0)'; do
  if ! grep -q "$phase" "$TMP/out"; then
    echo "FAIL analyze_host_trace: no '$phase' line in the phase table" >&2
    fails=$((fails + 1))
  fi
done
if ! grep -qx 'worker 1;evaluate 6' "$TMP/host.folded"; then
  echo "FAIL analyze_host_trace: no 'worker 1;evaluate 6' folded stack" >&2
  fails=$((fails + 1))
fi

# --- diff subcommand ------------------------------------------------------
# Usage: exactly two run operands.
expect diff_missing_operands 2 diff
expect_usage_on_stderr diff_missing_operands_usage diff
expect diff_one_operand 2 diff a.json
expect diff_extra_operand 2 diff a.json b.json c.json
expect diff_unknown_flag 2 diff a.json b.json --bogus
expect diff_flag_missing_value 2 diff a.json b.json --report-out
# There is no tolerance grammar: --tol is an unknown flag like any other.
expect diff_tol_unknown 2 diff a.json b.json --tol F

# Runtime errors: unreadable/malformed/undiffable inputs.
expect diff_nonexistent_input 1 diff "$TMP/no-such-run.json" "$TMP/no-such-run.json"
expect diff_malformed_input 1 diff "$TMP/garbage.json" "$TMP/garbage.json"
printf '{"schema":"bogus.v9"}' > "$TMP/unknown.json"
expect diff_unknown_schema 1 diff "$TMP/unknown.json" "$TMP/unknown.json"
# A lone Chrome trace has no comparable series — refused, not vacuously passed.
expect diff_undiffable_artifact 1 diff "$TMP/empty.trace.json" "$TMP/empty.trace.json"

# A run manifest with a wrongly typed field names it instead of dying on an
# internal type error.
printf '{"schema":"multihit.run.v1","driver":5,"config":{},"artifacts":[]}' \
  > "$TMP/hostile.run.json"
expect_error_naming diff_hostile_manifest 'run manifest: driver' \
  diff "$TMP/hostile.run.json" "$TMP/hostile.run.json"

# Verdicts: a self-diff is clean (exit 0); a planted counter regression is
# not (exit 1).
expect diff_self 0 diff "$TMP/metrics_a.json" "$TMP/metrics_a.json" --quiet
printf '{"schema":"multihit.metrics.v1","counters":[{"name":"engine.iterations","labels":{},"value":7}],"gauges":[],"histograms":[]}' \
  > "$TMP/metrics_b.json"
expect diff_regression 1 diff "$TMP/metrics_a.json" "$TMP/metrics_b.json" --quiet

# Snapshots are read strictly: a junk section, a string value or a repeated
# series is an error naming the entry, never "0 series, verdict ok".
printf '{"schema":"multihit.metrics.v1","counters":"junk","gauges":7}' > "$TMP/junk.json"
expect_error_naming diff_junk_snapshot 'metrics: counters is a string' \
  diff "$TMP/junk.json" "$TMP/junk.json"
printf '{"schema":"multihit.metrics.v1","counters":[{"name":"a","labels":{},"value":"1"}],"gauges":[],"histograms":[]}' \
  > "$TMP/string_value.json"
expect_error_naming diff_string_value 'metrics: counters[0].value' \
  diff "$TMP/string_value.json" "$TMP/string_value.json"

# The analysis is a metrics snapshot: `analyze --report-out` snapshots of an
# equi-area and an equi-distance trace diff dirty, the makespan delta
# attributed to a phase on a rank.
for scheduler in ea ed; do
  "$BRCA" 2 --scheduler "$scheduler" --trace-out "$TMP/$scheduler.trace.json" > /dev/null
  expect "analyze_${scheduler}_report" 0 analyze "$TMP/$scheduler.trace.json" \
    --report-out "$TMP/$scheduler.analysis.json" --quiet
done
expect diff_analysis_snapshots 1 diff "$TMP/ea.analysis.json" "$TMP/ed.analysis.json" --summary
if ! grep -q 'attributed to' "$TMP/out"; then
  echo "FAIL diff_analysis_snapshots: no 'attributed to' in the summary" >&2
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails CLI contract check(s) failed" >&2
  exit 1
fi
echo "obstool CLI contract: all checks passed"
