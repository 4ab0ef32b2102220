#!/usr/bin/env sh
# Include-layering check.
#
# src/svm/protocol/ is the transport-agnostic protocol layer: policies and
# the per-page state machine talk to the world through ProtocolEnv /
# MetaStore only. Any project include from outside that directory —
# sccsim, sim (fibers), mailbox, kernel, cluster, ... — would silently
# re-couple the layer to the simulator, so the check rejects every quoted
# project include that does not live under svm/protocol/ itself.
#
# The simulator stack below it is layered obs < sim < sccsim: src/obs
# includes only obs, src/sim only obs and sim, and src/sccsim only obs,
# sim and sccsim. The MPB carve lives in sccsim (scc::MpbLayout), so the
# mailbox, svm and rcce layers read it from the chip and never the other
# way round.
#
# CI runs this on every push; it is also registered as a ctest entry.
set -eu
cd "$(dirname "$0")/.."

status=0

# check DIR ALLOWED_PATTERN: every quoted include under src/DIR must
# match ALLOWED_PATTERN (a grep basic regex over the include line).
check() {
  violations=$(grep -rn '#include *"' "src/$1" | grep -v "$2" || true)
  if [ -n "$violations" ]; then
    echo "include-layering violation in src/$1/, found:" >&2
    echo "$violations" >&2
    status=1
  fi
}

check svm/protocol '#include *"svm/protocol/'
check obs '#include *"obs/'
check sim '#include *"\(obs\|sim\)/'
check sccsim '#include *"\(obs\|sim\|sccsim\)/'

if [ "$status" -ne 0 ]; then exit 1; fi
echo "include layering OK: svm/protocol transport-agnostic; obs < sim < sccsim"
