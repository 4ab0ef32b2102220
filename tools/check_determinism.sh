#!/bin/sh
# Determinism gate: runs a bench binary twice with identical arguments in
# separate scratch directories and byte-compares stdout plus every *.json
# the run writes (BENCH_*.json, and any --trace/--heatmap outputs). The simulation derives every number from virtual time, so
# any divergence between the two runs means nondeterminism leaked into the
# substrate (host-pointer ordering, uninitialised reads, wall-clock
# coupling) — the property every baseline byte-comparison in CI stands on.
#
# Usage: check_determinism.sh <bench binary> [bench args...]
#   With no bench args the historical fig9 invocation (--quick --seed=42)
#   is used. CI also points this at the scaling bench at a >48-core,
#   multi-chip configuration.
set -u

BIN=${1:?usage: check_determinism.sh <bench binary> [bench args...]}
shift
[ $# -gt 0 ] || set -- --quick --seed=42

case "$BIN" in
/*) ;;
*) BIN=$(pwd)/$BIN ;;
esac
[ -x "$BIN" ] || {
  echo "determinism-gate: $BIN is not executable" >&2
  exit 1
}

TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/run1" "$TMP/run2"

(cd "$TMP/run1" && "$BIN" "$@" > stdout.txt) || {
  echo "determinism-gate: first run failed" >&2
  exit 1
}
(cd "$TMP/run2" && "$BIN" "$@" > stdout.txt) || {
  echo "determinism-gate: second run failed" >&2
  exit 1
}

status=0
if ! cmp -s "$TMP/run1/stdout.txt" "$TMP/run2/stdout.txt"; then
  echo "determinism-gate: FAIL: stdout differs between two runs ($*)" >&2
  diff "$TMP/run1/stdout.txt" "$TMP/run2/stdout.txt" >&2
  status=1
fi

found=0
for a in "$TMP/run1"/*.json; do
  [ -e "$a" ] || break
  found=1
  b="$TMP/run2/$(basename "$a")"
  if ! cmp -s "$a" "$b"; then
    echo "determinism-gate: FAIL: $(basename "$a") differs between two" \
         "runs ($*)" >&2
    diff "$a" "$b" >&2
    status=1
  fi
done
for b in "$TMP/run2"/*.json; do
  [ -e "$b" ] || break
  [ -e "$TMP/run1/$(basename "$b")" ] || {
    echo "determinism-gate: FAIL: $(basename "$b") written by the second" \
         "run only ($*)" >&2
    status=1
  }
done
if [ "$found" -eq 0 ]; then
  echo "determinism-gate: no *.json emitted by $BIN $*" >&2
  status=1
fi

[ "$status" -eq 0 ] &&
  echo "determinism-gate: stdout and every *.json byte-identical across" \
       "two runs ($(basename "$BIN") $*)"
exit $status
