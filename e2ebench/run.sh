#!/usr/bin/env bash
# Build e2e.exe from source, then run it from the repository root with
# the given arguments, e.g.
#   bash e2ebench/run.sh --workload intruder-32c --seed 1 --seconds 10 --trace 0
# The dune cache stays off so that the build writes only under _build/.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./e2ebench/e2e.exe
exec ./_build/default/e2ebench/e2e.exe "$@"
