#!/usr/bin/env sh
# Fail if gofmt would change any Go file. testdata/ is left alone: the
# analyzer fixtures there carry line-anchored `want` comments.
set -u
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "gofmt-check: these files need gofmt -w:"
	echo "$unformatted"
	exit 1
fi
echo "gofmt-check: ok"
