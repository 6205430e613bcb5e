#!/usr/bin/env bash
# Builds the stormtune benchmark from source and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload paper-seq --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and every scratch file stay under
# .bench_build in the current directory; nothing is downloaded.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gopath" "${out}/home" "${out}/tmp"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" HOME="${out}/home" \
	XDG_CACHE_HOME="${out}/home/.cache" XDG_CONFIG_HOME="${out}/home/.config" \
	TMPDIR="${out}/tmp" GOTMPDIR="${out}/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "${root}/bench" build -o "${out}/stormbench" .
exec "${out}/stormbench" "$@"
