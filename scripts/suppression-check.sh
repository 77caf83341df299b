#!/bin/sh
# suppression-check: print the inventory of every active //lint:allow with
# its reason (the review checklist for suppression audits) and fail if there
# are more of them than scripts/suppression-ceiling.txt allows.
#
# Usage: sh scripts/suppression-check.sh
set -eu

GO=${GO:-go}
ceiling_file=scripts/suppression-ceiling.txt

ceiling=$(grep -v '^#' "$ceiling_file" | head -1)
if [ -z "$ceiling" ]; then
    echo "suppression-check: no ceiling in $ceiling_file" >&2
    exit 2
fi

inventory=$($GO run ./cmd/cawslint -suppressions ./...)
echo "$inventory"
count=$(printf '%s\n' "$inventory" | grep -c . || true)
echo "suppression-check: $count active suppression(s) (ceiling $ceiling)"

if [ "$count" -gt "$ceiling" ]; then
    echo "suppression-check: FAIL — $count //lint:allow directives, ceiling is $ceiling" >&2
    echo "suppression-check: remove one, or raise $ceiling_file in this change with the reason." >&2
    exit 1
fi
