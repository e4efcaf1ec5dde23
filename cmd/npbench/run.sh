#!/usr/bin/env bash
# Builds npbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/npbench/run.sh --workload campus-cold --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temp files, toolchain
# state) stays under .bench_build in the current directory, so a run
# writes nothing outside the checkout. Outside a full checkout the
# build fails, and so does this script, before anything is printed on
# standard output.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

go -C cmd/npbench build -o "$build/npbench" . >&2
exec "$build/npbench" "$@"
