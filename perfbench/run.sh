#!/usr/bin/env bash
# Runs the repository's benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh -compare <before> <after>
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the Go build cache, temporary files, the built cfdserve and
# the scratch directories of the workloads.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cfdserve" ]; then
	echo "perfbench: $root holds no repository to build" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
cd "$root/perfbench"
exec go run . -root "$root" "$@"
