#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-campaign --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write goes under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an afrixp checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
