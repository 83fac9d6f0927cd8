#!/usr/bin/env bash
# Repository verification gate: formatting and static checks, a full
# build, and the test suite under the race detector. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files are not formatted:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
# -shuffle=on randomizes test (and subtest) execution order so
# order-dependent tests fail loudly instead of passing by accident; the
# chosen seed is printed for replay with -shuffle=<seed>.
go test -race -shuffle=on ./...

echo "== go test -race -count=10 -shuffle=1792392912117684552 ./internal/transport"
# A fixed order that once made TestDirectCallCost fail: the goroutine
# that ran the previous test was still exiting while it counted.
go test -race -count=10 -shuffle=1792392912117684552 ./internal/transport

echo "== bench/ (its own module): go vet, go test -short"
# The harness builds against internal packages of this module but is not
# covered by ./... above, so an API change can break it unnoticed.
(cd bench && go vet ./... && go test -short ./...)

echo "verify: OK"
