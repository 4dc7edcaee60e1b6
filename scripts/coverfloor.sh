#!/bin/sh
# coverfloor.sh FLOOR_PERCENT PACKAGE...
#
# Runs the packages' tests with a coverage profile and fails when the total
# statement coverage (go tool cover -func) drops below the floor. CI gates
# the scenario DSL front end with this so parser/decoder/compiler
# branches cannot quietly lose their tests.
set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 FLOOR_PERCENT PACKAGE..." >&2
    exit 2
fi

floor="$1"
shift

profile="$(mktemp)"
trap 'rm -f "$profile"' EXIT

go test -coverprofile="$profile" "$@" > /dev/null

total="$(go tool cover -func="$profile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')"
if [ -z "$total" ]; then
    echo "coverfloor: no total in go tool cover output" >&2
    exit 2
fi

awk -v t="$total" -v f="$floor" -v pkgs="$*" 'BEGIN {
    if (t + 0 < f + 0) {
        printf "coverfloor: %s: %.1f%% statement coverage is below the %.1f%% floor\n", pkgs, t, f
        exit 1
    }
    printf "coverfloor: %s: %.1f%% statement coverage meets the %.1f%% floor\n", pkgs, t, f
}'
