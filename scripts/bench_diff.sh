#!/bin/sh
# Bench regression gate: compare every BENCH_*.json baseline committed
# at HEAD with the fresh snapshot of the same suite that
# scripts/bench.sh left in the working tree, via
# `bin/main.exe benchdiff BASE FRESH`.  A suite fails when a fresh gate
# fails, when a run or gate is present on one side only, or when a
# percentile block's p50 grew by more than 25%.  The simulation clock
# is deterministic, so any drift is a code change, not measurement
# noise.
set -eu
cd "$(dirname "$0")/.."
dune build bin/main.exe

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

fail=0
for f in $(git ls-tree --name-only HEAD | grep '^BENCH_.*\.json$'); do
  git show "HEAD:$f" >"$tmpdir/base.json"
  ./_build/default/bin/main.exe benchdiff "$tmpdir/base.json" "$f" || fail=1
done

if [ "$fail" -ne 0 ]; then
  echo "bench_diff: FAILED"
  exit 1
fi
echo "bench_diff: OK"
