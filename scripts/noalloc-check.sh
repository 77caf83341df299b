#!/usr/bin/env sh
# Escape gate of the //caws:noalloc contract (DESIGN.md §8): the compiler's
# own escape analysis must prove every annotated kernel's straight-line
# path heap-free.
#
#  1. cawslint -noalloc-ranges lists each annotated kernel's line span
#     ("func" lines) and the sanctioned guarded/return sub-spans inside it
#     ("allow" lines — grow paths behind an if, and return tails).
#  2. `go build -gcflags=-m=2` re-emits the escape diagnostics for the
#     kernel packages ("escapes to heap" / "moved to heap").
#  3. Any escape diagnostic inside a func span but outside every allow
#     span fails the build: an unconditional heap allocation crept onto a
#     zero-alloc hot path.
#
# The AllocsPerRun driver tests (internal/costmodel/noalloc_test.go,
# internal/core/bench_test.go) are the complementary runtime gate proving
# the sanctioned cold branches really are cold in steady state.
set -u

PKGS="./internal/cluster ./internal/costmodel ./internal/core ./internal/daemon ./internal/sched"

ranges=$(go run ./cmd/cawslint -noalloc-ranges $PKGS) || {
	echo "noalloc-check: cawslint -noalloc-ranges failed" >&2
	exit 2
}
if [ -z "$ranges" ]; then
	echo "noalloc-check: no //caws:noalloc ranges found; the annotations were removed without retiring this gate" >&2
	exit 2
fi

# -m=2 diagnostics go to stderr; the build itself must succeed.
diags=$(go build -gcflags=-m=2 $PKGS 2>&1) || {
	printf '%s\n' "$diags" >&2
	echo "noalloc-check: go build failed" >&2
	exit 2
}

printf '%s\n' "$ranges" "===DIAGS===" "$diags" | awk -v root="$PWD" '
	state == "" && $1 == "func" { nf++; ffile[nf] = $2; fs[nf] = $3; fe[nf] = $4; fname[nf] = $5; next }
	state == "" && $1 == "allow" { na++; afile[na] = $2; as[na] = $3; ae[na] = $4; next }
	$0 == "===DIAGS===" { state = "diags"; next }
	state == "diags" && (/ escapes to heap/ || / moved to heap/) {
		# file:line:col: message — skip the indented "flow:" detail lines,
		# which repeat the phrase under the same position prefix.
		if (split($0, p, ":") < 4) next
		msg = substr($0, length(p[1]) + length(p[2]) + length(p[3]) + 4)
		if (msg ~ /^  /) next
		file = p[1]; line = p[2] + 0
		if (file !~ /^\//) file = root "/" file
		for (i = 1; i <= nf; i++) {
			if (file != ffile[i] || line < fs[i] || line > fe[i]) continue
			allowed = 0
			for (j = 1; j <= na; j++)
				if (file == afile[j] && line >= as[j] && line <= ae[j]) { allowed = 1; break }
			if (!allowed) {
				printf "noalloc-check: %s:%d: escape on the //caws:noalloc hot path of %s:%s\n", file, line, fname[i], msg
				bad = 1
			}
		}
	}
	END { exit bad ? 1 : 0 }
'
status=$?
if [ "$status" -ne 0 ]; then
	echo "noalloc-check: FAIL — unconditional heap allocation inside a //caws:noalloc kernel" >&2
	exit 1
fi
echo "noalloc-check: ok (all //caws:noalloc kernels escape-free outside guarded paths)"
