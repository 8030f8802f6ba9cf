#!/usr/bin/env bash
# Builds the bench from source and runs it. The driver calls this from
# the root of a checkout with --workload/--seed/--seconds/--trace; every
# file the build and the run leave behind stays under .bench_build/
# there, so nothing outside the checkout is read or written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$out/tivbench" .
exec "$out/tivbench" "$@"
