#!/bin/sh
# Build and run the campaign benchmark.  Run it from the root of a RevEAL
# source checkout; arguments go to the benchmark executable, e.g.
#
#   bash campaign_bench/run.sh --workload faulted-256 --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so stdout carries only the benchmark's
# report, whose last line is the JSON result.  The build uses the
# checkout's own _build directory and no shared dune cache, so a run
# writes nothing outside the checkout.
set -eu

if [ ! -f dune-project ] || [ ! -d lib/reveal ]; then
  echo "campaign_bench: run from the root of a RevEAL source checkout (lib/reveal not found)" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

dune build --root . --cache=disabled ./campaign_bench/campaign_bench.exe 1>&2
exec ./_build/default/campaign_bench/campaign_bench.exe "$@"
