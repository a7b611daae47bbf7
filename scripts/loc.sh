#!/usr/bin/env bash
# Non-test, non-generated .go lines per package under internal/ and
# cmd/, total last — so "N lines gone" is a command, not prose:
#
#   bash scripts/loc.sh            # this tree
#   bash scripts/loc.sh ../parent  # another checkout, for the before/after
#
# Every line of a counted file counts (code, comments, blanks): a PR
# that claims a deletion must not earn it by stripping comments, and a
# diff of two runs of this script shows where the lines went.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find internal cmd -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	if ! grep -q '^// Code generated .* DO NOT EDIT\.$' "$f"; then
		echo "$(wc -l <"$f") $(dirname "$f")"
	fi
done | awk '{ pkg[$2] += $1; total += $1; if (!($2 in seen)) { seen[$2]; order[++n] = $2 } }
	END { for (i = 1; i <= n; i++) printf "%7d  %s\n", pkg[order[i]], order[i]
	      printf "%7d  total\n", total }'
