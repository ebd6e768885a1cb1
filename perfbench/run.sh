#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload exhaust --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Build state (Go build cache, binary,
# scratch directories, span files) stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root (the kset module sources are missing here)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off

commit=unknown
if [[ -d .git ]] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT="$commit"

if [[ "${1:-}" == "test" ]]; then
	shift
	cd perfbench
	exec go test "$@" ./...
fi

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
