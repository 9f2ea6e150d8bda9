#!/bin/sh
# Run bench suites; each leaves its snapshot in BENCH_<suite>.json at
# the repo root and fails if any of its declared gates fails (the
# snapshot is written first, so the failing numbers are in it).
#
# Usage: scripts/bench.sh [--full] [SUITE...]
# With no SUITE, every suite in bench/main.exe's table runs, as listed
# on the "suites:" line of its --help.  --full is passed to each suite
# (longer traffic windows).
set -eu
cd "$(dirname "$0")/.."
dune build bench/main.exe
bench=./_build/default/bench/main.exe

opts=""
suites=""
for arg in "$@"; do
  case "$arg" in
    --*) opts="$opts $arg" ;;
    *) suites="$suites $arg" ;;
  esac
done
if [ -z "$suites" ]; then
  suites=$("$bench" --help | sed -n 's/^ *suites: //p')
fi

fail=0
for s in $suites; do
  echo "== bench --suite $s"
  # $opts is a word list: split it on purpose
  # shellcheck disable=SC2086
  "$bench" --suite "$s" $opts || fail=1
done
exit "$fail"
