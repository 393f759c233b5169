#!/usr/bin/env bash
# Builds the benchmark and seadoptd from this checkout, then runs the
# benchmark with the given arguments. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload service_hot --seed 11 --seconds 10 --trace 0
#
# Every build output, Go cache and run file stays under .bench_build in the
# checkout; nothing is read from or written to the home directory.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/home"

export HOME=$out/home
export XDG_CACHE_HOME=$out/home/.cache
export XDG_CONFIG_HOME=$out/home/.config
export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomod
export GOPATH=$out/gopath
export GOTMPDIR=$out
export GOENV=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOFLAGS="-mod=mod -buildvcs=false"

go -C "$root/bench" build -o "$out/bin/bench" .
go -C "$root/bench" build -o "$out/bin/seadoptd" seadopt/cmd/seadoptd

if [[ "${1-}" == compare ]]; then
	exec "$out/bin/bench" "$@"
fi
exec "$out/bin/bench" -seadoptd "$out/bin/seadoptd" -golden "$root/bench/testdata/golden.json" \
	-out "$out/out" "$@"
