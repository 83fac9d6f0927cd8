#!/usr/bin/env bash
# Repository verification gate: static checks, a full build, and the
# test suite under the race detector. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race -shuffle=on ./..."
# -shuffle=on randomizes test (and subtest) execution order so
# order-dependent tests fail loudly instead of passing by accident; the
# chosen seed is printed for replay with -shuffle=<seed>.
go test -race -shuffle=on ./...

echo "== bench/ (its own module): go vet, go test -short"
# The harness builds against internal packages of this module but is not
# covered by ./... above, so an API change can break it unnoticed.
(cd bench && go vet ./... && go test -short ./...)

echo "verify: OK"
