#!/bin/sh
# Numeric command-line flags of the example programs are strict: a value that
# is not one whole base-10 integer in the flag's range is a usage error that
# names the flag and stops the tool before any work (nothing on stdout).
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

# --- dataset_tool: usage errors exit 1 -----------------------------------
rejects genes_garbage 1 --genes "$DATASET" generate "$TMP/d.txt" --genes abc
rejects genes_overflow 1 --genes "$DATASET" generate "$TMP/d.txt" --genes 4294967296
rejects seed_negative 1 --seed "$DATASET" generate "$TMP/d.txt" --seed -1
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

# --- multihit-obstool: usage errors exit 2 -------------------------------
printf '{"traceEvents":[],"displayTimeUnit":"ms"}' > "$TMP/empty.trace.json"
rejects window_samples_garbage 2 --window-samples \
  "$OBSTOOL" monitor "$TMP/empty.trace.json" --window-samples x
rejects window_samples_negative 2 --window-samples \
  "$OBSTOOL" monitor "$TMP/empty.trace.json" --window-samples -16

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
