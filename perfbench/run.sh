#!/usr/bin/env bash
# Builds the benchmark and the admitd server from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload admit-churn --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 10        # steadiness report
#
# Every build and run output stays under the build directory
# ($CARGO_TARGET_DIR when set, .bench_build otherwise), so the run
# reads and writes only inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/admitd || ! -d cmd/admitd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and cmd/admitd are missing)" >&2
	exit 2
fi

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off

go build -o "$build/bin/admitd" ./cmd/admitd
(cd perfbench && go build -o "$build/bin/perfbench" .)

commit=unknown
if [[ -d .git ]]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

exec "$build/bin/perfbench" -root "$root" -admitd "$build/bin/admitd" -commit "$commit" "$@"
