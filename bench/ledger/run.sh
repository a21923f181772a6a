#!/usr/bin/env bash
# Benchmark entry point, run from the root of a source checkout:
#   bash bench/ledger/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds the ledger and the sa_lab binary it cross-checks against, then
# runs one workload; the last line of stdout is the JSON summary.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "bench/ledger/run.sh: run from the root of a full source checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --cache=disabled --display=quiet \
  ./bench/ledger/ledger.exe ./bin/sa_lab.exe >&2
exec ./_build/default/bench/ledger/ledger.exe \
  --sa-lab ./_build/default/bin/sa_lab.exe --data ./data "$@"
