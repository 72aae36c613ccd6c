#!/usr/bin/env bash
# Build the benchmark from source and run one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout: it builds perfbench/main.exe with
# dune (into _build/, without the shared dune cache) and runs it against
# BENCHMARK.json and the expected rows in perfbench/expected/. The last
# line of standard output is the result object; build output goes to
# standard error.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib/core || ! -f BENCHMARK.json ]]; then
  echo "run.sh: run from the root of a full checkout (dune-project, lib/, BENCHMARK.json)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
# glibc raises its mmap threshold to the size of the largest block freed
# so far; from then on freed packed images stay in the brk heap, and the
# peak RSS depends on the order of frees (a 10% spread across seeds at
# an equal OCaml heap peak). A fixed threshold hands every large block
# back to the kernel when it is freed.
export MALLOC_MMAP_THRESHOLD_=262144
exec ./_build/default/perfbench/main.exe \
  --spec BENCHMARK.json --expected perfbench/expected "$@"
