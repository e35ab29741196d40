#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash campbench/run.sh --workload mline-gen --seed 2021 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build
# (or $CARGO_TARGET_DIR when set) under the repository root. The build
# fails, and the script exits non-zero, when the scamv sources are absent.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off CGO_ENABLED=0

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	export PATH="/usr/local/go/bin:$PATH"
fi

(cd "$root/campbench" && go build -o "$build/campbench" .)
exec "$build/campbench" --out "$build/campbench-out" "$@"
