#!/bin/sh
# Perf-regression gate: compares freshly generated BENCH_*.json against
# the checked-in baselines in bench/baselines/ and fails on regressions.
#
# Two modes, selected per file:
#
#   virtual-time mode (every BENCH_*.json except simspeed): all gated
#   series are times (us/ms medians of deterministic virtual-time runs),
#   so "higher median" always means "slower". The simulator's virtual
#   clock makes the numbers machine-independent: a clean build reproduces
#   the baselines exactly, and the 5% margin only exists so an intentional
#   remodelling (documented, with refreshed baselines) is the one way the
#   numbers move.
#
#   host-throughput mode (BENCH_simspeed.json): series are host
#   events/sec medians — higher is better, and the absolute numbers vary
#   with the machine. The deterministic config fields (event counts,
#   makespans — everything but "seed" and "repeats") are compared
#   EXACTLY; the throughput medians only fail on a drop beyond the
#   generous noise margin (default: candidate < 0.75x baseline).
#
# Usage: check_perf_regression.sh [baseline_dir] [candidate_dir]
#   baseline_dir   defaults to bench/baselines (relative to the repo root)
#   candidate_dir  defaults to build/bench (where the bench binaries ran)
set -u

BASE_DIR=${1:-bench/baselines}
CAND_DIR=${2:-build/bench}
TOLERANCE=${PERF_GATE_TOLERANCE:-1.05}
HOST_DROP=${PERF_GATE_HOST_DROP:-0.75}

status=0
checked=0

for base in "$BASE_DIR"/BENCH_*.json; do
  [ -e "$base" ] || {
    echo "perf-gate: no baselines under $BASE_DIR" >&2
    exit 1
  }
  name=$(basename "$base")
  cand="$CAND_DIR/$name"
  if [ ! -f "$cand" ]; then
    echo "perf-gate: FAIL $name: candidate missing (bench not run?)" >&2
    status=1
    continue
  fi
  case "$name" in
  BENCH_simspeed.json)
    # Host-throughput mode. Config lines look like:
    #   "sched_events": 200000,
    # and series lines like the virtual-time mode below. Deterministic
    # config fields must match exactly; medians are higher-is-better
    # with a wide noise margin.
    if ! awk -v drop="$HOST_DROP" -v file="$name" '
      /^    "[A-Za-z0-9_.]+": [-+0-9.eE]+,?$/ && !/"median":/ {
        key = $0
        sub(/^    "/, "", key)
        sub(/".*/, "", key)
        if (key == "seed" || key == "repeats") next
        val = $0
        sub(/^[^:]*: */, "", val)
        sub(/,$/, "", val)
        if (NR == FNR) {
          basecfg[key] = val
        } else if (key in basecfg) {
          seencfg[key] = 1
          if (basecfg[key] != val) {
            printf "perf-gate: FAIL %s %s: deterministic field %s -> %s\n",
                   file, key, basecfg[key], val
            bad = 1
          }
        }
      }
      /"median":/ {
        if (match($0, /"[A-Za-z0-9_.]+": *\{"count"/)) {
          series = substr($0, RSTART + 1)
          sub(/": *\{"count".*/, "", series)
          if (match($0, /"median": *[-+0-9.eE]+/)) {
            med = substr($0, RSTART, RLENGTH)
            sub(/"median": */, "", med)
            if (NR == FNR) {
              base[series] = med + 0
            } else if (series in base) {
              seen[series] = 1
              b = base[series]
              c = med + 0
              if (b > 0 && c < b * drop) {
                printf "perf-gate: FAIL %s %s: median %g -> %g (%.1f%%)\n",
                       file, series, b, c, (c / b - 1) * 100
                bad = 1
              } else {
                printf "perf-gate: ok   %s %-28s %g -> %g\n",
                       file, series, b, c
              }
            }
          }
        }
      }
      END {
        for (s in base) {
          if (!(s in seen)) {
            printf "perf-gate: FAIL %s %s: series missing from candidate\n",
                   file, s
            bad = 1
          }
        }
        for (k in basecfg) {
          if (!(k in seencfg)) {
            printf "perf-gate: FAIL %s %s: config field missing\n",
                   file, k
            bad = 1
          }
        }
        exit bad
      }' "$base" "$cand"; then
      status=1
    fi
    ;;
  *)
    # Virtual-time mode. Series lines look like:
    #   "strong_ms": {"count": 9, "median": 4.70232, "p95": 4.93}
    # Most series are times (lower is better); series named like
    # throughputs or success counts (_rps, _per_ms, _verified, correct,
    # completed) gate in the other direction — a DROP beyond the margin
    # fails. Both directions share TOLERANCE: deterministic runs
    # reproduce the baselines exactly, so the margin only gives an
    # intentional remodelling one documented way to move the numbers.
    # A lower-is-better series whose baseline is 0 (wrong, hangs, audit
    # violations, ...) fails on any growth: no margin of 0 is above 0.
    # First pass (FNR==NR) collects baseline medians, second compares.
    if ! awk -v tol="$TOLERANCE" -v file="$name" '
      function higher_is_better(s) {
        return s ~ /_rps$/ || s ~ /_per_ms$/ || s ~ /_verified$/ ||
               s ~ /(^|_)correct$/ || s ~ /(^|_)completed$/
      }
      /"median":/ {
        if (match($0, /"[A-Za-z0-9_.]+": *\{"count"/)) {
          series = substr($0, RSTART + 1)
          sub(/": *\{"count".*/, "", series)
          if (match($0, /"median": *[-+0-9.eE]+/)) {
            med = substr($0, RSTART, RLENGTH)
            sub(/"median": */, "", med)
            if (NR == FNR) {
              base[series] = med + 0
            } else if (series in base) {
              seen[series] = 1
              b = base[series]
              c = med + 0
              if (higher_is_better(series) ? (b > 0 && c * tol < b) \
                                           : (b >= 0 && c > b * tol)) {
                note = "grew from 0"
                if (b != 0) note = sprintf("%+.1f%%", (c / b - 1) * 100)
                printf "perf-gate: FAIL %s %s: median %g -> %g (%s)\n",
                       file, series, b, c, note
                bad = 1
              } else {
                printf "perf-gate: ok   %s %-24s %g -> %g\n",
                       file, series, b, c
              }
            }
          }
        }
      }
      END {
        for (s in base) {
          if (!(s in seen)) {
            printf "perf-gate: FAIL %s %s: series missing from candidate\n",
                   file, s
            bad = 1
          }
        }
        exit bad
      }' "$base" "$cand"; then
      status=1
    fi
    ;;
  esac
  checked=$((checked + 1))
done

if [ "$checked" -eq 0 ]; then
  echo "perf-gate: no BENCH_*.json compared" >&2
  exit 1
fi
[ "$status" -eq 0 ] && echo "perf-gate: all $checked bench file(s) passed"
exit $status
