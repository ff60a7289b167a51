#!/usr/bin/env bash
# Fuzzes one target for a fixed time. `go test -fuzz` only warns and
# exits 0 when no target matches, so a renamed or deleted target would
# turn its CI step into a silent no-op; this fails the step instead.
#
#   bash .github/scripts/fuzz.sh FuzzParseMSR ./internal/trace/ 20s
set -euo pipefail

name=$1 pkg=$2 fuzztime=${3:-20s}
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test -run "^${name}\$" -fuzz "^${name}\$" -fuzztime "$fuzztime" "$pkg" 2>&1 | tee "$log"
if grep -q 'no fuzz tests to fuzz' "$log"; then
  echo "fuzz target $name not found in $pkg" >&2
  exit 1
fi
