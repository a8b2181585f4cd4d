#!/usr/bin/env bash
# Builds the lams benchmark from the sources of the checkout it sits in and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload tri-rdr --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, span dumps) stays under .bench_build at the checkout root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
