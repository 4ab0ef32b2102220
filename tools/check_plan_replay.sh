#!/bin/sh
# Replay gate: a campaign prints each drawn plan as a `plan N/M: SPEC`
# line, and that spec alone must reproduce the run. This runs one drawn
# plan, feeds its printed spec back through --faults= with the same
# --seed, and byte-compares the `->` run lines of the two runs. A plan
# setting that to_spec() leaves out (or one the parser drops) shows up
# as a differing run line.
#
# Usage: check_plan_replay.sh <campaign binary> <campaign> [seed]
set -u

BIN=${1:?usage: check_plan_replay.sh <campaign binary> <campaign> [seed]}
CAMPAIGN=${2:?usage: check_plan_replay.sh <campaign binary> <campaign> [seed]}
SEED=${3:-3}

case "$BIN" in
/*) ;;
*) BIN=$(pwd)/$BIN ;;
esac

TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/drawn" "$TMP/replay"

(cd "$TMP/drawn" && "$BIN" --campaign="$CAMPAIGN" --plans=1 \
   --seed="$SEED" > stdout.txt 2> /dev/null)
spec=$(sed -n 's/^plan *1\/1: //p' "$TMP/drawn/stdout.txt")
[ -n "$spec" ] && [ "$spec" != "(no faults)" ] || {
  echo "replay-gate: no drawn plan in the $CAMPAIGN output" >&2
  exit 1
}
(cd "$TMP/replay" && "$BIN" --campaign="$CAMPAIGN" --plans=1 \
   --seed="$SEED" --faults="$spec" > stdout.txt 2> /dev/null)

grep -e ' -> ' "$TMP/drawn/stdout.txt" > "$TMP/drawn.runs"
grep -e ' -> ' "$TMP/replay/stdout.txt" > "$TMP/replay.runs"
[ -s "$TMP/drawn.runs" ] || {
  echo "replay-gate: no run line in the $CAMPAIGN output" >&2
  exit 1
}
if ! cmp -s "$TMP/drawn.runs" "$TMP/replay.runs"; then
  echo "replay-gate: FAIL: --faults='$spec' does not replay the drawn" \
       "$CAMPAIGN plan" >&2
  diff "$TMP/drawn.runs" "$TMP/replay.runs" >&2
  exit 1
fi
echo "replay-gate: $CAMPAIGN plan '$spec' replays byte-identically"
