#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from the root of
# a checkout. The binary and everything the go command writes (build cache,
# module cache, its own configuration) live under .bench_build in the
# checkout, so nothing is written outside it.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
