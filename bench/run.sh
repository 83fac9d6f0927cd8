#!/usr/bin/env bash
# Builds the harness and qosserved from source into .bench_build/ in the
# checkout, then runs the harness with the given arguments:
#
#   bash bench/run.sh --workload served_mix --seed 1 --seconds 20 --trace 0
#
# Build cache, binaries, logs and span files all stay under .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/cmd/qosserved/main.go" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: $root is not a checkout of the repository (no cmd/qosserved)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# Rebuild only when a source file is newer than the binary: the go
# command's own up-to-date check costs about a second per run.
stale() {
	[ ! -x "$1" ] || [ -n "$(find "$root" -path "$out" -prune -o \
		\( -name '*.go' -o -name go.mod \) -newer "$1" -print -quit)" ]
}
if stale "$out/bin/qosserved"; then
	(cd "$root" && go build -o "$out/bin/qosserved" ./cmd/qosserved)
fi
if stale "$out/bin/qosbench"; then
	(cd "$root/bench" && go build -o "$out/bin/qosbench" .)
fi

cd "$root"
exec "$out/bin/qosbench" -bin "$out/bin/qosserved" "$@"
