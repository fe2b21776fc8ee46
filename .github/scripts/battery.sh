#!/usr/bin/env bash
# Runs one named test battery and fails when its -run regex has gone stale.
# `go test -run` exits 0 on "no tests to run", so a renamed or deleted test
# would silently drop out of CI; this lists the matches first and requires
# every |-alternative of the regex to name at least one test.
#
#   battery.sh '<regex>' [go test flags...] -- <packages...>
set -euo pipefail

regex=$1
shift
flags=()
while [ "$1" != "--" ]; do
  flags+=("$1")
  shift
done
shift

listed=$(go test -list "$regex" "$@" | grep '^Test' || true)
IFS='|' read -ra alternatives <<<"$regex"
for alt in "${alternatives[@]}"; do
  if ! grep -Eq "$alt" <<<"$listed"; then
    echo "battery: -run alternative '$alt' matches no test in $*" >&2
    exit 1
  fi
done
exec go test "${flags[@]}" -run "$regex" "$@"
