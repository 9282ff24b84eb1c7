#!/bin/sh
# Build the end-to-end benchmark from the checkout this is run from (its
# root) and run it with the given arguments. Everything the build writes,
# temporary files included, stays under _build.
set -e
mkdir -p _build/tmp
TMPDIR="$PWD/_build/tmp"
export TMPDIR
exec dune exec --root . --no-config --cache=disabled --display quiet -- bench/e2e/e2e.exe "$@"
