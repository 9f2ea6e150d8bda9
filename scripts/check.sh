#!/bin/sh
# Tier-1 verification: shell lint, full build, every test suite, the
# persistency-model-checker gates (including the cross-shard 2PC
# protocol and its seeded-mutation sanity check), crash/failover serve
# smokes, and a benchmark determinism gate.
#
# Every randomized gate runs under CRASH_SEED (default 42), and a red
# run prints the failing step plus the seed, so a CI failure replays
# locally with:  CRASH_SEED=<printed seed> scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

CRASH_SEED="${CRASH_SEED:-42}"
step="startup"
on_exit() {
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "check: FAILED at step \"$step\" (seed $CRASH_SEED)" >&2
    echo "check: replay with: CRASH_SEED=$CRASH_SEED scripts/check.sh" >&2
  fi
}
trap on_exit EXIT

# Shell lint (CI installs shellcheck; skip quietly where it's absent).
step="shellcheck scripts/*.sh"
if command -v shellcheck >/dev/null 2>&1; then
  shellcheck scripts/*.sh
else
  echo "check: shellcheck not found - skipping shell lint"
fi

step="dune build"
dune build
step="dune runtest"
dune runtest

# crashcheck smoke: a strided sample of crash points per operation so
# tier-1 stays fast (the exhaustive sweep runs in test_crashcheck and
# via `bin/main.exe crashcheck` with no budget).
step="crashcheck smoke"
dune exec bin/main.exe -- crashcheck --max-points 6 --subsets 1 \
  --seed "$CRASH_SEED" > /dev/null
# mutation sanity: the checker must flag the deliberately-broken
# missing-flush protocol (non-zero exit = counterexample found).
step="crashcheck mutation gate (broken)"
if dune exec bin/main.exe -- crashcheck --scenario broken --max-points 2 \
     --subsets 0 --seed "$CRASH_SEED" > /dev/null 2>&1; then
  echo "check: crashcheck FAILED to detect the seeded missing-flush bug" >&2
  exit 1
fi
# service crash-point sweep: the KV write path's intent protocol,
# strided for tier-1 speed (exhaustive in test_crashcheck / manual runs).
step="crashcheck kv-put sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-put --max-points 8 \
  --subsets 1 --seed "$CRASH_SEED" > /dev/null
# cross-shard transaction sweep, EXHAUSTIVE: every fence-to-fence crash
# point of the 2PC coordinator-record protocol (prepare slots, decision
# record, apply, recovery) must keep each transaction all-or-nothing.
# Cheap enough (~0.5 s) to run unstrided in tier-1.
step="crashcheck kv-txn exhaustive sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-txn \
  --seed "$CRASH_SEED" > /dev/null
# 2PC mutation gate: same sweep against a coordinator that skips the
# decision-record flush; the checker MUST produce a counterexample
# (non-zero exit), or it has lost the power to see the commit point.
step="crashcheck mutation gate (kv-txn-broken)"
if dune exec bin/main.exe -- crashcheck --scenario kv-txn-broken \
     --seed "$CRASH_SEED" > /dev/null 2>&1; then
  echo "check: crashcheck FAILED to detect the seeded unflushed 2PC decision record" >&2
  exit 1
fi
# batched replication sweep: group-committed puts shipped as doorbell
# frames with cumulative batched acks, strided like kv-put; recovery
# is judged by the windowed prefix oracle (ack-before-flush would
# leave the backup behind every admissible prefix).
step="crashcheck kv-batched-put sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-batched-put \
  --max-points 8 --subsets 1 --seed "$CRASH_SEED" > /dev/null
# batching mutation gate: the same sweep against a shipper that acks
# clients BEFORE the doorbell flush; the oracle MUST flag it (non-zero
# exit), or it can no longer see the ack-after-persist ordering the
# group-commit guarantee rests on.
step="crashcheck mutation gate (kv-batched-broken)"
if dune exec bin/main.exe -- crashcheck --scenario kv-batched-broken \
     --max-points 6 --subsets 1 --seed "$CRASH_SEED" > /dev/null 2>&1; then
  echo "check: crashcheck FAILED to detect the seeded ack-before-flush batching bug" >&2
  exit 1
fi
# MVCC snapshot-read sweep, EXHAUSTIVE: after every completed op the
# scenario audits a minted snapshot (snapshot_get over the key
# universe + one multi-shard snapshot_scan) against the
# completed-prefix model, and recovery must match the no-MVCC sweeps
# (version chains are volatile).  Cheap enough to run unstrided.
step="crashcheck kv-snapshot exhaustive sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-snapshot \
  --seed "$CRASH_SEED" > /dev/null
# MVCC mutation gate: a staged prepare that publishes its versions
# BEFORE any decision exists; the snapshot-reads oracle MUST flag the
# uncommitted observation (non-zero exit), or it has lost the power to
# see the publish-at-decision rule snapshot isolation rests on.
step="crashcheck mutation gate (mvcc-broken)"
if dune exec bin/main.exe -- crashcheck --scenario mvcc-broken \
     --max-points 6 --subsets 1 --seed "$CRASH_SEED" > /dev/null 2>&1; then
  echo "check: crashcheck FAILED to detect the seeded early-publish MVCC bug" >&2
  exit 1
fi
# magazine-cache sweep, EXHAUSTIVE: every fence-to-fence crash point
# of the cached KV write path (batched carve under ledger leases,
# publish-at-commit, stash-then-recycle frees) must leave the
# recovered heap with exactly one live value block per present key —
# leased bin residue is reclaimed, nothing leaks.  Cheap enough to run
# unstrided in tier-1.
step="crashcheck kv-tcache-put exhaustive sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-tcache-put \
  --seed "$CRASH_SEED" > /dev/null
# magazine-refill sweep, EXHAUSTIVE: one carve of eight blocks split
# into runs (a three-block hole whose live right neighbour is relinked,
# then the wilderness) plus its publish.  A crash anywhere in the
# carve must recover to the pre-carve live bytes, and recovery must
# leave no reclaim lease armed.
step="crashcheck carve exhaustive sweep"
dune exec bin/main.exe -- crashcheck --scenario carve \
  --seed "$CRASH_SEED" > /dev/null
# cache mutation gate: the same sweep against a cache that recycles
# freed blocks with no reclaim lease and no persistent free; the
# value-census oracle MUST flag the orphaned blocks (non-zero exit),
# or it has lost the power to see the reclaim-before-recycle rule the
# cache's crash safety rests on.
step="crashcheck mutation gate (tcache-broken)"
if dune exec bin/main.exe -- crashcheck --scenario tcache-broken \
     --max-points 8 --subsets 1 --seed "$CRASH_SEED" > /dev/null 2>&1; then
  echo "check: crashcheck FAILED to detect the seeded leaseless-recycle cache bug" >&2
  exit 1
fi
# read-cache sweep: the cache-armed put/delete/txn plan audits every
# key through BOTH read paths (cached plain gets and a minted
# snapshot) against the completed-prefix model after each op, strided
# like kv-put; recovery starts from an empty cache by construction.
step="crashcheck kv-rcache-put sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-rcache-put \
  --max-points 8 --subsets 1 --seed "$CRASH_SEED" > /dev/null
# read-cache mutation gate: the same sweep against a cache whose
# invalidations are deferred past the mutation's return
# (invalidate-after-reply); the cached-reads oracle MUST flag the
# stale window (non-zero exit), or it has lost the power to see the
# write-through rule the cache's coherence rests on.
step="crashcheck mutation gate (rcache-broken)"
if dune exec bin/main.exe -- crashcheck --scenario rcache-broken \
     --max-points 8 --subsets 1 --seed "$CRASH_SEED" > /dev/null 2>&1; then
  echo "check: crashcheck FAILED to detect the seeded late-invalidation cache bug" >&2
  exit 1
fi
# serve smoke: bounded open-loop traffic with a crash at the midpoint;
# exits non-zero if the recovered store loses any acked write.
step="serve crash smoke"
dune exec bin/main.exe -- serve --shards 2 --clients 8 --rate 40000 \
  --duration 0.005 --crash-at 0.5 --seed "$CRASH_SEED" > /dev/null
# transactional serve smoke: the same crash run with a cross-shard
# transaction mix; the ledger treats each transaction's keys as one
# all-or-nothing group, so a torn transaction fails the run.
step="serve txn crash smoke"
dune exec bin/main.exe -- serve --shards 2 --clients 8 --rate 40000 \
  --duration 0.005 --txn-pct 20 --crash-at 0.5 --seed "$CRASH_SEED" \
  > /dev/null
# failover smoke: the same traffic on a two-machine cluster with sync
# replication; the primary is lost at the midpoint and the backup is
# promoted.  Exits non-zero if any sync-acked write is missing from
# the promoted store's ledger.  The txn mix also exercises in-doubt
# participant-slot resolution during promotion.
step="serve failover smoke"
dune exec bin/main.exe -- serve --replicate --shards 2 --clients 8 \
  --rate 40000 --duration 0.005 --txn-pct 20 --crash-at 0.5 \
  --seed "$CRASH_SEED" > /dev/null
# trace-validity gate: export a Chrome trace from a replicated serve
# run and validate it — JSON shape, per-phase required fields, and
# that every cross-machine flow start ("ph":"s") has its matching
# finish ("ph":"f").  A broken pairing means Perfetto silently drops
# the causal arrow between primary and backup.
step="trace validity gate"
tracedir="$(mktemp -d)"
dune exec bin/main.exe -- serve --replicate --shards 2 --clients 8 \
  --rate 30000 --duration 0.005 --txn-pct 20 --seed "$CRASH_SEED" \
  --trace-out "$tracedir/serve-trace.json" > /dev/null
dune exec bin/main.exe -- tracecheck "$tracedir/serve-trace.json" > /dev/null
rm -rf "$tracedir"
# determinism gate: the whole stack runs on a simulated machine, so two
# identical bench runs must produce byte-identical metrics snapshots
# (only the git rev line may differ).
step="bench determinism gate"
tmpdir="$(mktemp -d)"
dune exec bench/main.exe -- --smoke --json-out "$tmpdir/a.json" > /dev/null
dune exec bench/main.exe -- --smoke --json-out "$tmpdir/b.json" > /dev/null
sed 's/"rev":[^,}]*//' "$tmpdir/a.json" > "$tmpdir/a.norm"
sed 's/"rev":[^,}]*//' "$tmpdir/b.json" > "$tmpdir/b.norm"
if ! diff -u "$tmpdir/a.norm" "$tmpdir/b.norm" > /dev/null; then
  echo "check: bench --smoke is NOT deterministic across identical runs:" >&2
  diff -u "$tmpdir/a.norm" "$tmpdir/b.norm" >&2 || true
  rm -rf "$tmpdir"
  exit 1
fi
rm -rf "$tmpdir"
# CLI-default identity gates, one per knob: a serve run with the
# knob's default spelled out must be byte-identical (modulo the git
# rev line) to the same run without it.  Both runs take the same path,
# so this catches a CLI default drifting from the config default, or
# nondeterminism.  Which path each off position selects (window 1,
# mvcc 0, tcache 0, rcache 0) is asserted by test_service.
for gate in "--batch-window 1:--replicate" \
  "--mvcc-window 0:--read-pct 60 --scan-pct 10" \
  "--tcache-mag 0:" \
  "--rcache-entries 0:--read-pct 60 --scan-pct 10"; do
  flag="${gate%%:*}"
  mix="${gate#*:}"
  step="serve $flag identity gate"
  tmpdir="$(mktemp -d)"
  # $mix and $flag are word lists: split them on purpose
  # shellcheck disable=SC2086
  dune exec bin/main.exe -- serve $mix --shards 2 --clients 8 \
    --rate 40000 --duration 0.005 --seed "$CRASH_SEED" \
    --json-out "$tmpdir/plain.json" > /dev/null
  # shellcheck disable=SC2086
  dune exec bin/main.exe -- serve $mix --shards 2 --clients 8 \
    --rate 40000 --duration 0.005 --seed "$CRASH_SEED" $flag \
    --json-out "$tmpdir/flag.json" > /dev/null
  sed 's/"rev":[^,}]*//' "$tmpdir/plain.json" > "$tmpdir/plain.norm"
  sed 's/"rev":[^,}]*//' "$tmpdir/flag.json" > "$tmpdir/flag.norm"
  if ! diff -u "$tmpdir/plain.norm" "$tmpdir/flag.norm" > /dev/null; then
    echo "check: serve $flag DIVERGES from the same run without it:" >&2
    diff -u "$tmpdir/plain.norm" "$tmpdir/flag.norm" >&2 || true
    rm -rf "$tmpdir"
    exit 1
  fi
  rm -rf "$tmpdir"
done
# MVCC serve smoke: snapshot reads under a mid-traffic crash; exits
# non-zero if the recovered store loses any acked write.
step="serve mvcc crash smoke"
dune exec bin/main.exe -- serve --shards 2 --clients 8 --rate 40000 \
  --duration 0.005 --read-pct 60 --scan-pct 10 --mvcc-window 8 \
  --crash-at 0.5 --seed "$CRASH_SEED" > /dev/null
# tcache serve smoke: cached allocation under a mid-traffic crash;
# exits non-zero if the recovered store loses any acked write.
step="serve tcache crash smoke"
dune exec bin/main.exe -- serve --shards 2 --clients 8 --rate 40000 \
  --duration 0.005 --tcache-mag 4 --crash-at 0.5 --seed "$CRASH_SEED" \
  > /dev/null
# rcache serve smoke: cached reads under a mid-traffic crash (the
# cache is volatile, so recovery restarts it empty); exits non-zero
# if the recovered store loses any acked write or any cached read
# diverges from the ledger.
step="serve rcache crash smoke"
dune exec bin/main.exe -- serve --shards 2 --clients 8 --rate 40000 \
  --duration 0.005 --read-pct 60 --scan-pct 10 --rcache-entries 64 \
  --crash-at 0.5 --seed "$CRASH_SEED" > /dev/null

step="done"
echo "check: lint + build + tests + crashcheck (incl. 2PC + batching + MVCC + tcache + carve + rcache gates) + serve/txn/failover/mvcc/tcache/rcache smokes + trace validity + determinism + batch/mvcc/tcache/rcache CLI-default identity OK"
