#!/usr/bin/env bash
# Build the benchmark from source and run it; all arguments are passed
# through (see main.ml). Run from the root of the repository:
#
#   bash perfbench/run.sh --workload zipf1.0 --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr so that the result stays the last line of
# stdout. Fails (without printing a result) when the sources of the
# system under test are not there.
set -euo pipefail
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
