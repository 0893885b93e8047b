#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the build writes (module cache, build cache,
# binary) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/banksbench" && go build -o "$out/banksbench" .)
cd "$root"
exec "$out/banksbench" "$@"
