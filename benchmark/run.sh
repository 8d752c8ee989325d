#!/usr/bin/env bash
# Builds seedmark inside the checkout and runs it with the given flags:
#
#   bash benchmark/run.sh                      every workload, timed then traced
#   bash benchmark/run.sh -agree               the timed set twice, compared
#   bash benchmark/run.sh --workload read.mixed --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays in the checkout: the go build
# cache and the binary under .bench_build/, results and scratch databases
# under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
	go build -o "$build/seedmark" .
)
exec "$build/seedmark" -out "$here/out" "$@"
