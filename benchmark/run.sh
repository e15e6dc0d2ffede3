#!/usr/bin/env bash
# Builds the benchmark driver from the checkout in the working directory
# and runs it; arguments pass through (--workload, --seed, --seconds,
# --trace). Build cache, temporary files and traced-run spans all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/flexbench" ./benchmark
exec "$out/flexbench" --spans-dir "$out/spans" "$@"
