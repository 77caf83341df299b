#!/bin/sh
# Mutation gate: a standing test of the tests. Each entry of
# scripts/mutants.txt is one plausible bug, applied on its own to a
# throwaway copy of the tree; `go test ./...` or `cawsverify -seeds 50` must
# then fail. A mutant marked equivalent (no test can tell it from the
# original, for the reason given) must pass both instead. The gate fails on
# a survivor, on a killed "equivalent" mutant, on a mutant that does not
# build, and on a stale entry whose old text no longer occurs exactly
# once: a refactor that moves the code re-expresses its mutant.
#
#   sh scripts/mutants.sh               # every mutant (about a minute each)
#   sh scripts/mutants.sh ID...         # just these
#   sh scripts/mutants.sh -check        # only that every entry still applies
#
# Stdlib Go, sh and tar.
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
list="$root/scripts/mutants.txt"
go=${GO:-go}

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
"$go" build -o "$work/mutate" "$root/scripts/mutate.go" || exit 2

if [ "${1:-}" = "-check" ]; then
	"$work/mutate" -list "$list" -check "$root" && echo "mutants: every entry applies"
	exit
fi

tree="$work/tree"
mkdir "$tree"
(cd "$root" && tar --exclude=./.git --exclude=./.bench_build -cf - .) | (cd "$tree" && tar -xf -) || exit 2

# check runs the tests, then cawsverify, on the mutated tree and names in
# killer what failed first, if anything did.
check() {
	killer=""
	if ! (cd "$tree" && "$go" test -timeout 5m ./... >"$work/log" 2>&1); then
		killer="go test: $(grep -m1 -E '^--- FAIL|^FAIL|panic:' "$work/log")"
		if grep -q 'build failed' "$work/log"; then
			killer="does not build"
			eq=broken
		fi
	elif ! (cd "$tree" && "$go" run ./cmd/cawsverify -seeds 50 -progress 0 >"$work/log" 2>&1); then
		killer="cawsverify -seeds 50"
	fi
}

"$work/mutate" -list "$list" >"$work/entries" || exit 2
fail=0
total=0
while IFS="$(printf '\t')" read -r id file eq; do
	if [ $# -gt 0 ]; then
		case " $* " in *" $id "*) ;; *) continue ;; esac
	fi
	total=$((total + 1))
	if ! "$work/mutate" -list "$list" -apply "$id" "$tree"; then
		echo "STALE     $id"
		fail=1
		continue
	fi
	check
	# A test that fails only under load must fail twice to count against
	# an equivalence claim.
	if [ "$eq" = equivalent ] && [ -n "$killer" ]; then
		check
	fi
	cp "$root/$file" "$tree/$file"
	case "$eq:$killer" in
	-:) echo "SURVIVED  $id"; fail=1 ;;
	-:*) echo "killed    $id ($killer)" ;;
	equivalent:) echo "survived  $id (equivalent)" ;;
	broken:*) echo "BROKEN    $id ($killer)"; fail=1 ;;
	*) echo "KILLED    $id, marked equivalent ($killer)"; fail=1 ;;
	esac
done <"$work/entries"
echo "mutants: $total run"
exit $fail
