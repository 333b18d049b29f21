#!/usr/bin/env bash
# Builds pmmbench from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash bench/run.sh --workload fig3-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# binary, the Go build cache and the Go config directory go under
# $CARGO_TARGET_DIR (default .bench_build), result stores and span files
# under .bench_work.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/go-cache
export GOPATH=$build/go-path
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$build/pmmbench" ./pmmbench
exec "$build/pmmbench" -dir "$root/.bench_work" "$@"
