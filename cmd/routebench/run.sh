#!/usr/bin/env bash
# Builds routebench from this checkout and runs it with the given
# arguments, from the repository root. The Go build cache, temporary
# build files, the binary and the benchmark's scratch files all stay
# under .bench_build there.
#
#   bash cmd/routebench/run.sh --workload serve-tables --seed 1 --seconds 16 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C cmd/routebench build -o "$build/routebench" .
exec "$build/routebench" "$@"
