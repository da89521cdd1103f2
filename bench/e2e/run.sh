#!/bin/sh
# Builds the end-to-end benchmark from source and runs it from the
# repository root; every argument is passed to bench/e2e/main.exe.
# The dune cache is off so the build reads and writes only _build.
set -e
cd "$(dirname "$0")/../.."
exec dune exec --root . --cache=disabled --display=quiet bench/e2e/main.exe -- "$@"
