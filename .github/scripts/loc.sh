#!/usr/bin/env bash
# Counts the non-test Go lines of each package outside benchmark/ and
# prints them as a Markdown table that ends with the total. It counts
# files git tracks, so build and cache directories in a working tree do
# not change the numbers. Report only; it gates nothing.
#
#   bash .github/scripts/loc.sh
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
echo "### Non-test Go lines per package (outside benchmark/)"
echo
echo "| package | lines |"
echo "|---|---:|"
git ls-files -- '*.go' ':(exclude)*_test.go' ':(exclude)benchmark/' |
  while read -r f; do echo "$(dirname "$f") $(wc -l <"$f")"; done |
  awk '{ n[$1] += $2; total += $2 }
    END {
      for (d in n) printf "| %s | %d |\n", d, n[d] | "sort"
      close("sort")
      printf "| **total** | **%d** |\n", total
    }'
