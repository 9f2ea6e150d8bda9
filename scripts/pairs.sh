#!/bin/sh
# Set-up time of a parent and a change, read as pairs.
#
# Usage: scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [N] [SECONDS]
#
# Builds benchmark/main.exe in both checkouts, then runs N pairs
# (default 10) of `--workload WORKLOAD --seed 42 --seconds SECONDS
# --trace 0` (default 2 s; set-up does not scale with it), alternating
# which side runs first.  Prints each pair's setup_s, each side's
# median and quartiles, and how many pairs the change won.  setup_s is
# host CPU time, so one reading cannot tell a change from host noise;
# every other e2e metric is simulated time and must repeat exactly, so
# the script also names any of p50_us, p99_us, peak_goodput_kops,
# space_amp, attempted, failed or the correctness verdict that differs
# between the sides or between pairs.  Exits 1 when one does.
set -eu

if [ "$#" -lt 3 ] || [ "$#" -gt 5 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [N] [SECONDS]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
n=${4:-10}
seconds=${5:-2}

for dir in "$parent" "$change"; do
  (cd "$dir" && dune build benchmark/main.exe)
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run SIDE DIR PAIR: one run's JSON line into $out/SIDE.PAIR
run() {
  "$2/_build/default/benchmark/main.exe" --workload "$workload" --seed 42 \
    --seconds "$seconds" --trace 0 | tail -n 1 >"$out/$1.$3"
}

i=1
while [ "$i" -le "$n" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
  i=$((i + 1))
done

# One line per run: SIDE PAIR then NAME VALUE for setup_s and each
# simulated metric, read off the JSON line.
for side in parent change; do
  i=1
  while [ "$i" -le "$n" ]; do
    awk -v side="$side" -v pair="$i" '
      function field(name,   s) {
        if (!match($0, "\"" name "\":(\\{\"value\":)?([-0-9.eE+]+|true|false)")) return "missing"
        s = substr($0, RSTART, RLENGTH)
        sub(/.*:/, "", s)
        return s
      }
      { printf "%s %s", side, pair
        n = split("setup_s p50_us p99_us peak_goodput_kops space_amp attempted failed correct", names, " ")
        for (k = 1; k <= n; k++) printf " %s %s", names[k], field(names[k])
        printf "\n" }' "$out/$side.$i"
    i=$((i + 1))
  done
done | awk -v workload="$workload" '
  # quantile of sorted v[1..n], linear between order statistics
  function q(v, n, p,   h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    if (lo >= n) return v[n]
    return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
  }
  function sort(v, n,   i, j, t) {
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
  }
  {
    side = $1; pair = $2
    setup[side, pair] = $4
    for (k = 5; k < NF; k += 2) sim[side, pair, $k] = $(k + 1)
    if (pair > npairs) npairs = pair
    nsim = (NF - 4) / 2
    for (k = 5; k < NF; k += 2) simname[(k - 3) / 2] = $k
  }
  END {
    won = 0
    for (p = 1; p <= npairs; p++) {
      printf "pair %2d (%s first): parent %.4f s  change %.4f s\n", p,
        (p % 2 ? "parent" : "change"), setup["parent", p], setup["change", p]
      if (setup["change", p] < setup["parent", p]) won++
    }
    for (s = 0; s < 2; s++) {
      side = s ? "change" : "parent"
      for (p = 1; p <= npairs; p++) v[p] = setup[side, p]
      sort(v, npairs)
      printf "%s setup_s: median %.4f s  quartiles [%.4f, %.4f]\n", side,
        q(v, npairs, 0.5), q(v, npairs, 0.25), q(v, npairs, 0.75)
    }
    printf "%s: change lower in %d of %d pairs\n", workload, won, npairs
    bad = 0
    for (k = 1; k <= nsim; k++) {
      name = simname[k]
      for (p = 1; p <= npairs; p++)
        if (sim["parent", p, name] != sim["change", p, name] ||
            sim["parent", p, name] != sim["parent", 1, name]) {
          printf "simulated metric differs: %s (pair %d: parent %s, change %s)\n",
            name, p, sim["parent", p, name], sim["change", p, name]
          bad = 1
          break
        }
    }
    if (!bad) print "simulated metrics identical on both sides"
    exit bad
  }'
