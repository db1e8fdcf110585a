#!/usr/bin/env bash
# Runs two full sets of the same build and fails unless every end-to-end
# metric of every workload agrees within its bound from BENCHMARK.json,
# in both directions. Extra arguments go to both sets, e.g.
#
#   benchmark/selfcheck.sh --seed 7919
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"

"$here/run.sh" all "$@" --out "$out/selfcheck_a.json"
"$here/run.sh" all "$@" --out "$out/selfcheck_b.json"

status=0
"$here/run.sh" compare "$out/selfcheck_a.json" "$out/selfcheck_b.json" || status=1
"$here/run.sh" compare "$out/selfcheck_b.json" "$out/selfcheck_a.json" || status=1
if [ "$status" -ne 0 ]; then
    echo "selfcheck: two sets of the same build disagree by more than a bound" >&2
fi
exit "$status"
