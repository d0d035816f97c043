#!/bin/sh
# Numeric command-line flags of the example programs are strict: a value that
# is not one whole base-10 integer (or, for a real-valued flag, one whole
# finite decimal number) in the flag's range is a usage error that names the
# flag and stops the tool before any work (nothing on stdout). The fault
# flags' R@I[:V] tokens are read the same way, part by part. A dataset spec
# whose parsed sizes pass a cap is refused the same way, naming the cap.
#
# Usage: test_numeric_flags.sh BRCA_SCALEOUT DATASET_TOOL MULTIHIT_SERVE OBSTOOL
set -u

BRCA=${1:?usage: test_numeric_flags.sh BRCA_SCALEOUT DATASET_TOOL MULTIHIT_SERVE OBSTOOL}
DATASET=${2:?missing DATASET_TOOL}
SERVE=${3:?missing MULTIHIT_SERVE}
OBSTOOL=${4:?missing OBSTOOL}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fails=0

# rejects NAME STATUS FLAG command...: exits STATUS, names FLAG on stderr,
# writes nothing to stdout.
rejects() {
  name=$1 want=$2 flag=$3
  shift 3
  "$@" > "$TMP/out" 2> "$TMP/err"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: exit $got, want $want (args: $*)" >&2
    fails=$((fails + 1))
  fi
  if ! grep -qF -- "$flag" "$TMP/err"; then
    echo "FAIL $name: stderr does not name $flag (args: $*)" >&2
    fails=$((fails + 1))
  fi
  if [ -s "$TMP/out" ]; then
    echo "FAIL $name: started work, stdout not empty (args: $*)" >&2
    fails=$((fails + 1))
  fi
}

# --- brca_scaleout: usage errors exit 1 ----------------------------------
# --host-threads is a worker count in [1, 256]; -1 once wrapped to 2^32 - 1.
rejects threads_negative 1 --host-threads "$BRCA" 1 --host-threads -1
rejects threads_zero 1 --host-threads "$BRCA" 1 --host-threads 0
rejects threads_too_many 1 --host-threads "$BRCA" 1 --host-threads 257
rejects threads_trailing 1 --host-threads "$BRCA" 1 --host-threads 4x
rejects threads_empty 1 --host-threads "$BRCA" 1 --host-threads ''
rejects nodes_garbage 1 nodes "$BRCA" abc
rejects nodes_zero 1 nodes "$BRCA" 0
rejects nodes_too_many 1 nodes "$BRCA" 1025
rejects checkpoint_garbage 1 --checkpoint "$BRCA" 1 --checkpoint 2x
rejects checkpoint_overflow 1 --checkpoint "$BRCA" 1 --checkpoint 4294967296
# Fault plans: sscanf once ran `--drop 1@0:2junk` as a two-drop plan.
rejects drop_trailing 1 --drop "$BRCA" 2 --checkpoint 2 --drop 1@0:2junk
rejects drop_missing_count 1 --drop "$BRCA" 2 --drop 1@0
rejects crash_trailing 1 --crash "$BRCA" 2 --crash 1@0x
rejects crash_no_iteration 1 --crash "$BRCA" 2 --crash 1
rejects crash_fraction_range 1 --crash "$BRCA" 2 --crash 1@0:1.5
rejects straggle_missing_factor 1 --straggle "$BRCA" 2 --straggle 1@0
rejects straggle_nan 1 --straggle "$BRCA" 2 --straggle 1@0:nan
rejects abort_garbage 1 --abort "$BRCA" 2 --abort 1x

# --- dataset_tool: usage errors exit 1 -----------------------------------
rejects genes_garbage 1 --genes "$DATASET" generate "$TMP/d.txt" --genes abc
rejects genes_overflow 1 --genes "$DATASET" generate "$TMP/d.txt" --genes 4294967296
rejects seed_negative 1 --seed "$DATASET" generate "$TMP/d.txt" --seed -1
# A parsed spec past the matrix caps is an error naming the cap, before any
# allocation; it once sized genes x words unchecked. Hits x combos also
# break the planted-combination rule, so without the cap check the tool
# would still stop cheaply, but name that rule instead.
rejects genes_over_cap 1 kMaxGenes "$DATASET" generate "$TMP/d.txt" \
  --genes 10000001 --tumor 1 --normal 1 --hits 2 --combos 10000001
rejects tumor_over_cap 1 kMaxSamples "$DATASET" generate "$TMP/d.txt" \
  --genes 1 --tumor 100000001 --normal 1 --hits 2 --combos 1
if [ -e "$TMP/d.txt" ]; then
  echo "FAIL dataset_tool wrote a dataset despite a bad flag" >&2
  fails=$((fails + 1))
fi
# Flags are read before the dataset: the bad flag is named, not the path.
rejects hits_before_load 1 --hits "$DATASET" solve "$TMP/missing.txt" --hits 3x
rejects iters_before_load 1 --iters "$DATASET" resume "$TMP/missing.txt" "$TMP/c.chk" --iters x

# --- multihit-serve: usage errors exit 2 ---------------------------------
rejects jobs_negative 2 --jobs "$SERVE" --jobs -1
rejects jobs_garbage 2 --jobs "$SERVE" --jobs lots
rejects gpus_zero 2 --gpus "$SERVE" --gpus 0
rejects concurrent_trailing 2 --concurrent "$SERVE" --concurrent 8.5
rejects queue_cap_empty 2 --queue-cap "$SERVE" --queue-cap ''
rejects quota_exponent 2 --quota "$SERVE" --quota 1e3
rejects seed_overflow 2 --seed "$SERVE" --seed 18446744073709551616
# strtod once ran all three: abc as 0, -3, and 1e300 into an out-of-range
# cast to the u32 invalidation count (refused by the trace generator).
rejects invalidate_rate_garbage 2 --invalidate-rate "$SERVE" --invalidate-rate abc
rejects invalidate_rate_negative 2 --invalidate-rate "$SERVE" --invalidate-rate -3
rejects invalidate_rate_overflow 2 invalidate_rate "$SERVE" --invalidate-rate 1e300
# A spec the trace generator refuses is a usage error, not std::terminate.
rejects jobs_zero 2 "jobs must be > 0" "$SERVE" --jobs 0
# The SLO verdict is slo.* series in --metrics-out: --slo-out is an unknown
# flag, a usage error before any work.# The analysis report and the fault ground truth are views of the trace:
# brca_scaleout writes neither.
rejects report_out_unknown_flag 1 "usage:" "$BRCA" 1 --report-out "$TMP/r.json"
rejects truth_out_unknown_flag 1 "usage:" "$BRCA" 1 --truth-out "$TMP/t.json"

printf 'slo * admission above 0.5\n' > "$TMP/ok.slo"
rejects slo_out_unknown_flag 2 "usage:" "$SERVE" --slo-spec "$TMP/ok.slo" \
  --slo-out "$TMP/slo.json"

# --- multihit-obstool: usage errors exit 2 -------------------------------
printf '{"traceEvents":[],"displayTimeUnit":"ms"}' > "$TMP/empty.trace.json"
rejects window_samples_garbage 2 --window-samples \
  "$OBSTOOL" monitor "$TMP/empty.trace.json" --window-samples x
rejects window_samples_negative 2 --window-samples \
  "$OBSTOOL" monitor "$TMP/empty.trace.json" --window-samples -16
# A ring needs two boundaries: 0 and 1 once exited 1 after reading the trace.
rejects window_samples_zero 2 --window-samples \
  "$OBSTOOL" monitor "$TMP/empty.trace.json" --window-samples 0
rejects window_samples_one 2 --window-samples \
  "$OBSTOOL" monitor "$TMP/empty.trace.json" --window-samples 1
# atof once read `--truth-window abc` as a 0 s window and exited 0.
rejects sample_every_garbage 2 --sample-every \
  "$OBSTOOL" monitor "$TMP/empty.trace.json" --sample-every abc
rejects sample_every_zero 2 --sample-every \
  "$OBSTOOL" monitor "$TMP/empty.trace.json" --sample-every 0
rejects truth_window_garbage 2 --truth-window \
  "$OBSTOOL" monitor "$TMP/empty.trace.json" --truth-window abc
rejects truth_window_infinite 2 --truth-window \
  "$OBSTOOL" monitor "$TMP/empty.trace.json" --truth-window inf

# A valid value still parses.
if ! "$DATASET" generate "$TMP/ok.txt" --genes 12 --tumor 20 --normal 16 --hits 2 \
    --combos 1 --seed 18446744073709551615 > /dev/null 2>&1; then
  echo "FAIL dataset_tool rejected valid numeric flags" >&2
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails numeric flag check(s) failed" >&2
  exit 1
fi
echo "numeric flags: all checks passed"
