#!/usr/bin/env sh
# Tier-1 verify path, for environments without make: build, formatting
# gate, determinism lint suite (includes go vet), and the test suite under
# the race detector. Mirrors `make verify` and the CI workflow.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt -l lists files that need formatting:"
  echo "$unformatted"
  exit 1
fi

echo "==> antidope-lint (determinism suite + go vet)"
go run ./cmd/antidope-lint ./...

echo "==> go test -race ./..."
go test -race ./...

echo "verify: OK"
