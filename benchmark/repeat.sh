#!/usr/bin/env bash
# Runs the full suite twice with the same seed and fails unless every
# end-to-end metric of every workload agrees within its bound: -compare
# fails when the new run is worse than the old, so it is asked both ways
# round. Then runs the suite once with another seed and prints the deltas,
# which are reported and not asserted (another seed is another request
# stream).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/out"
"$here/run.sh" -seed 1 -out "$out/repeat-a.json"
"$here/run.sh" -seed 1 -out "$out/repeat-b.json"
"$here/run.sh" -seed 2 -out "$out/repeat-seed2.json"
echo
echo "== same seed, run A against run B and run B against run A (asserted)"
"$here/run.sh" -compare "$out/repeat-a.json" "$out/repeat-b.json"
"$here/run.sh" -compare "$out/repeat-b.json" "$out/repeat-a.json"
echo
echo "== seed 1 against seed 2 (reported only)"
"$here/run.sh" -compare "$out/repeat-a.json" "$out/repeat-seed2.json" || true
