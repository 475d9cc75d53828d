#!/usr/bin/env bash
# Build the planner and the benchmark from source, then run one workload.
#
#   bash perfbench/run.sh --workload paper-compare --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout.  Build output goes to stderr; the
# benchmark's last stdout line is its JSON result.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a GPUPlanner checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

# keep every build output inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . --profile release --display quiet \
  bin/gpuplanner.exe perfbench/perfbench.exe 1>&2

exec ./_build/default/perfbench/perfbench.exe \
  --daemon ./_build/default/bin/gpuplanner.exe "$@"
