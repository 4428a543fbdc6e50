#!/usr/bin/env bash
# Builds yodabench from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and runs it from
# the checkout root with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache"
export GOCACHE="$build/gocache" GOWORK=off
(cd "$root/bench" && go build -o "$build/yodabench" .)
cd "$root"
exec "$build/yodabench" "$@"
