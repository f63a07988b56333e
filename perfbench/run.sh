#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-open --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache and the binary live in
# .bench_build/ and spans in .bench_out/, both under the current directory,
# so nothing outside the checkout is written. The build fails (and the
# script exits non-zero without a result) when the tsajs sources are absent.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
