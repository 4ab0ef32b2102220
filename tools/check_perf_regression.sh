#!/bin/sh
# Perf-regression gate: compares freshly generated BENCH_*.json against
# the checked-in baselines in bench/baselines/ and fails on any move.
#
# Every file except BENCH_simspeed.json comes from deterministic
# virtual-time runs, so a clean build reproduces its baseline byte for
# byte, and the gate asks exactly that: a series that moves in either
# direction, a count, a p95 or a config field fails, and the diff goes
# to stderr. A change that moves a virtual number regenerates the
# baseline and tables the move.
#
# BENCH_simspeed.json measures host events/sec, which depends on the
# machine. Its lines must match exactly too, except each series' median
# and p95; a median fails only below 0.75x its baseline.
#
# Usage: check_perf_regression.sh [baseline_dir] [candidate_dir]
#   baseline_dir   defaults to bench/baselines (relative to the repo root)
#   candidate_dir  defaults to build/bench (where the bench binaries ran)
set -u

BASE_DIR=${1:-bench/baselines}
CAND_DIR=${2:-build/bench}

status=0
checked=0

for base in "$BASE_DIR"/BENCH_*.json; do
  [ -e "$base" ] || {
    echo "perf-gate: no baselines under $BASE_DIR" >&2
    exit 1
  }
  name=$(basename "$base")
  cand="$CAND_DIR/$name"
  checked=$((checked + 1))
  if [ ! -f "$cand" ]; then
    echo "perf-gate: FAIL $name: candidate missing (bench not run?)" >&2
    status=1
  elif [ "$name" != BENCH_simspeed.json ]; then
    if cmp -s "$base" "$cand"; then
      echo "perf-gate: ok   $name"
    else
      echo "perf-gate: FAIL $name differs from its baseline:" >&2
      diff -u "$base" "$cand" >&2
      status=1
    fi
  elif ! awk -v file="$name" '
    # A series line is "name": {"count": N, "median": M, "p95": P}; its
    # key is everything before the median.
    function key(line) { sub(/"median":.*/, "", line); return line }
    function median(line) {
      sub(/.*"median": */, "", line)
      sub(/,.*/, "", line)
      return line + 0
    }
    function fail(why) {
      printf "perf-gate: FAIL %s line %d %s:\n- %s\n+ %s\n",
             file, c, why, b, $0 > "/dev/stderr"
      bad = 1
    }
    NR == FNR { base[++n] = $0; next }
    {
      b = base[++c]
      if (b ~ /"median":/ && key(b) == key($0)) {
        ratio = median(b) > 0 ? median($0) / median(b) : 1
        if (ratio < 0.75) fail("has a median below 0.75x")
        else printf "perf-gate: ok   %s %-28s %.2fx\n", file, $1, ratio
      } else if (c > n || b != $0) {
        fail("differs")
      }
    }
    END {
      if (c < n) {
        printf "perf-gate: FAIL %s: candidate ends at line %d of %d\n",
               file, c, n > "/dev/stderr"
        bad = 1
      }
      exit bad
    }' "$base" "$cand"; then
    status=1
  fi
done

[ "$status" -eq 0 ] && echo "perf-gate: all $checked bench file(s) passed"
exit $status
