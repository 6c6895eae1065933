#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run in, then
# runs it with every argument passed through. Run it from the root of the
# checkout:
#
#   bash bench/run.sh --workload ds-clear --seed 1 --seconds 20 --trace 0
#
# Everything the build and the benchmark write goes under .bench_build/:
# the Go build cache, the binary, run stores, spans and CPU profiles. The
# build is offline and uses the installed Go toolchain.
set -euo pipefail

root="$PWD"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
  echo "bench/run.sh: run from the root of a checkout of the repository" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
  GOFLAGS=-mod=readonly
# Build under a private name and rename, so a run that is still executing
# the previous binary is never handed a half-written one.
(cd "$root/bench" && go build -o "$out/bench.$$" .)
mv -f "$out/bench.$$" "$out/bench"
exec "$out/bench" "$@"
