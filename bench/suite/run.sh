#!/bin/sh
# Build the benchmark from source and run one workload.  Run from the
# repository root; the arguments go to `main.exe run`, e.g.
#   sh bench/suite/run.sh --workload cold-apply --seed 1 --seconds 25 --trace 0
# The dune cache is off so that the build writes only under _build.
DUNE_CACHE=disabled exec dune exec --root . --display quiet bench/suite/main.exe -- run "$@"
