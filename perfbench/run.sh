#!/usr/bin/env bash
# Builds the crpd end-to-end benchmark from source and runs it with the
# arguments given, from the root of a checkout:
#
#   bash perfbench/run.sh --workload point_udp --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, binary, traces) stays under
# .bench_build/perfbench in the checkout.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/home"
(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
	export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
	go -C perfbench build -buildvcs=false -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
