#!/usr/bin/env bash
# Build the benchmark from source and run it; all arguments are passed
# through (see main.ml). Run from the root of the repository.
#
# glibc's mmap and trim thresholds are fixed, so that large blocks the
# program allocates and the GC frees are reused from the heap in every
# run. By default glibc raises the mmap threshold to the first large
# block freed and trims the heap top past twice that; which blocks those
# are varies from run to run, and a call that allocates period-long
# arrays (Cohort.run on catalog) then took 2-3 ms in one run and 6-17 ms
# in the next. See README.md, "Steadiness record".
set -euo pipefail
dune build --root . --display quiet perfbench/main.exe 1>&2
export GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824
exec ./_build/default/perfbench/main.exe "$@"
