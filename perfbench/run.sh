#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh compare A.json B.json
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# benchmark binary, the warmed characterization caches, spans and result
# records. Without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/go-cache GOPATH=$build/go-path GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -C perfbench -o "$build/perfbench" .
PERFBENCH_BUILD_DIR=$build exec "$build/perfbench" "$@"
