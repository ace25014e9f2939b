#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root (where BENCHMARK.json is). Everything the build and the
# run write — binary, Go build cache, temp files, disk-store directories —
# stays under .bench_build/ at the root of the checkout; trace files go to
# benchmark/out/. Without the repository around it (a directory holding
# only BENCHMARK.json and benchmark/) the build fails and so does this.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/xdg" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/qlove-benchmark" .)
cd "$root"
exec "$build/qlove-benchmark" "$@"
