#!/bin/sh
# coverfloor.sh FLOOR_PERCENT PACKAGE... [-- FILE...]
#
# Runs the packages' tests with a coverage profile and fails when the total
# statement coverage (go tool cover -func) drops below the floor. CI gates
# the scenario DSL with this so parser, decoder, compiler and report
# branches cannot quietly lose their tests.
#
# FILEs after "--" (import-path file names, as the profile spells them)
# restrict the total to those files. Together with a -coverpkg argument
# this gates code by the tests of another package: the DSL's compiler
# lives in internal/experiments, and internal/scenario's tests drive it.
set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 FLOOR_PERCENT PACKAGE... [-- FILE...]" >&2
    exit 2
fi

floor="$1"
shift

# Split the arguments at "--": go test keeps the ones before it. Each
# pass shifts one argument off the front and re-appends it if it stays.
files=""
after=""
for a do
    shift
    if [ -n "$after" ]; then
        files="$files $a"
    elif [ "$a" = "--" ]; then
        after=1
    else
        set -- "$@" "$a"
    fi
done

profile="$(mktemp)"
trap 'rm -f "$profile" "$profile.files"' EXIT

go test -coverprofile="$profile" "$@" > /dev/null

if [ -n "$files" ]; then
    awk -v files="$files" 'BEGIN { n = split(files, f, " "); for (i = 1; i <= n; i++) want[f[i]] = 1 }
        NR == 1 { print; next }
        { split($1, a, ":"); if (a[1] in want) print }' "$profile" > "$profile.files"
    if [ "$(wc -l < "$profile.files")" -le 1 ]; then
        echo "coverfloor: no statements of$files in the profile" >&2
        exit 2
    fi
    mv "$profile.files" "$profile"
fi

total="$(go tool cover -func="$profile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')"
if [ -z "$total" ]; then
    echo "coverfloor: no total in go tool cover output" >&2
    exit 2
fi

awk -v t="$total" -v f="$floor" -v pkgs="$*$files" 'BEGIN {
    if (t + 0 < f + 0) {
        printf "coverfloor: %s: %.1f%% statement coverage is below the %.1f%% floor\n", pkgs, t, f
        exit 1
    }
    printf "coverfloor: %s: %.1f%% statement coverage meets the %.1f%% floor\n", pkgs, t, f
}'
