#!/usr/bin/env bash
# .go lines per package under internal/ and cmd/ — source, then
# _test.go — plus the root module's test files (package "."), totals
# last, so "N lines gone" is a command, not prose:
#
#   bash scripts/loc.sh            # this tree
#   bash scripts/loc.sh ../parent  # another checkout, for the before/after
#
# Generated files are skipped. Every line of a counted file counts
# (code, comments, blanks): a PR that claims a deletion must not earn it
# by stripping comments, and a diff of two runs of this script shows
# where the lines went.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

{
	find internal cmd -name '*.go'
	find . -maxdepth 1 -name '*_test.go'
} | sort | while read -r f; do
	if ! grep -q '^// Code generated .* DO NOT EDIT\.$' "$f"; then
		case "$f" in
		*_test.go) kind=test ;;
		*) kind=src ;;
		esac
		echo "$(wc -l <"$f") $kind $(dirname "$f")"
	fi
done | awk '{ n[$3, $2] += $1; total[$2] += $1; if (!($3 in seen)) { seen[$3]; order[++k] = $3 } }
	END { printf "%7s %7s  %s\n", "source", "tests", "package"
	      for (i = 1; i <= k; i++) printf "%7d %7d  %s\n", n[order[i], "src"], n[order[i], "test"], order[i]
	      printf "%7d %7d  total\n", total["src"], total["test"] }'
