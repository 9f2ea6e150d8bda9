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

# mutation gate: the checker must flag a seeded bug with exit status 1
# (counterexamples found).  Any other status fails the gate: 0 means
# the bug went unseen, 2 an unknown scenario name (a typo) and 125 an
# exception, e.g. a scenario that raises in set-up — neither is a
# verdict.  Usage: mutation_gate SCENARIO "BUG" [crashcheck flags...]
mutation_gate() {
  scn="$1"
  bug="$2"
  shift 2
  step="crashcheck mutation gate ($scn)"
  status=0
  dune exec bin/main.exe -- crashcheck --scenario "$scn" "$@" \
    --seed "$CRASH_SEED" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 1 ]; then
    echo "check: crashcheck FAILED to detect the seeded $bug" \
      "(exit $status, want 1)" >&2
    exit 1
  fi
}

# crashcheck smoke: a strided sample of crash points per operation so
# tier-1 stays fast (the exhaustive sweep runs in test_crashcheck and
# via `bin/main.exe crashcheck` with no budget).
step="crashcheck smoke"
dune exec bin/main.exe -- crashcheck --max-points 6 --subsets 1 \
  --seed "$CRASH_SEED" > /dev/null
# mutation sanity: the checker must flag the deliberately-broken
# missing-flush protocol (exit 1 = counterexamples found).
mutation_gate broken "missing-flush bug" --max-points 2 --subsets 0
# service crash-point sweep: the KV write path's chunk protocol,
# strided for tier-1 speed (exhaustive in test_crashcheck / manual runs).
step="crashcheck kv-put sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-put --max-points 8 \
  --subsets 1 --seed "$CRASH_SEED" > /dev/null
# B+-tree crash-repair sweeps, EXHAUSTIVE: a put that shifts a whole
# leaf and its delete (kv-shift), a put that splits a full leaf
# (kv-split), and an append that splits a full rightmost leaf 27 / 4,
# then shifts in both halves (kv-append-split).  After recovery the
# oracle deletes every key and none may survive: a duplicate or stale
# leaf entry left by a crash inside the shift or the split's publish
# would outlive its delete.
for scn in kv-shift kv-split kv-append-split; do
  step="crashcheck $scn exhaustive sweep"
  dune exec bin/main.exe -- crashcheck --scenario "$scn" \
    --seed "$CRASH_SEED" > /dev/null
done
# chunk-commit mutation gate, EXHAUSTIVE: the store runs on an
# allocator that defers each commit to its next call, so a chunk's
# decided word persists ahead of the allocator commit; the no-dangling
# check MUST flag the redo of a slot whose blocks the heap's replay
# freed (exit 1), or the checker has lost the commit point's
# order.
mutation_gate kv-commit-broken "allocator commit after the commit point"
# reply mutation gate, EXHAUSTIVE: the sweep driver acks each put at
# its chunk's allocator commit, one fence before the decided word; the
# acked-prefix oracle MUST flag the acked put a crash there rolls back
# (exit 1), or it can no longer see that a reply waits for the commit
# point.  The honest driver acks inside group_commit's on_chunk, where
# the server replies, so every correct KV sweep holds an acked op at
# each fence of the apply that follows the reply.
mutation_gate kv-ack-broken "ack before the decided word"
# cross-shard transaction sweep, EXHAUSTIVE: every fence-to-fence crash
# point of 2PC on the shards' own slots (prepare slots, the lowest
# participant's decided word, apply, recovery) must keep each
# transaction all-or-nothing, also when its commit word is one the
# shard's own chunks move.  Cheap enough (~0.5 s) to run unstrided in
# tier-1.
step="crashcheck kv-txn exhaustive sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-txn \
  --seed "$CRASH_SEED" > /dev/null
# 2PC mutation gate: same sweep with every transaction applied and no
# decide first, so no decided word names it; the checker MUST produce
# a counterexample (exit 1), or it has lost the power to see the commit
# point.
mutation_gate kv-txn-broken "2PC apply without a decided word"
# commit-word mutation gate: same sweep with a chunk committed on each
# transaction's lowest participant between its decide and its apply,
# so the chunk moves the word that commits the transaction while its
# slots are armed; the checker MUST produce a counterexample (exit 1),
# or it can no longer see that the lowest participant's lock is held
# until every slot is cleared.
mutation_gate kv-coord-broken "chunk inside a transaction's decide-apply window"
# batched replication sweep: group-committed puts shipped as doorbell
# frames with cumulative batched acks, strided like kv-put; recovery
# is judged by the windowed prefix oracle (ack-before-flush would
# leave the backup behind every admissible prefix).
step="crashcheck kv-batched-put sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-batched-put \
  --max-points 8 --subsets 1 --seed "$CRASH_SEED" > /dev/null
# batching mutation gate: the same sweep against a shipper that acks
# clients BEFORE the doorbell flush; the oracle MUST flag it (exit 1),
# or it can no longer see the ack-after-persist ordering the
# group-commit guarantee rests on.
mutation_gate kv-batched-broken "ack-before-flush batching bug" \
  --max-points 6 --subsets 1
# MVCC snapshot-read sweep, EXHAUSTIVE: after every completed op the
# scenario audits a minted snapshot (snapshot_get over the key
# universe + one multi-shard snapshot_scan) against the
# completed-prefix model, and recovery must match the no-MVCC sweeps
# (version chains are volatile).  Cheap enough to run unstrided.
step="crashcheck kv-snapshot exhaustive sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-snapshot \
  --seed "$CRASH_SEED" > /dev/null
# MVCC mutation gate: a staged transaction that applies (publishes)
# its versions BEFORE its decide; the snapshot-reads oracle MUST flag
# the uncommitted observation (exit 1), or it has lost the power to
# see the publish-at-decision rule snapshot isolation rests on.
mutation_gate mvcc-broken "publish-before-decide MVCC bug" \
  --max-points 6 --subsets 1
# magazine-cache sweep, EXHAUSTIVE: every fence-to-fence crash point
# of the cached KV write path (batched carve under ledger leases,
# publish-at-commit, stash-then-recycle frees) must leave the
# recovered heap with exactly one live value block per present key —
# leased bin residue is reclaimed, nothing leaks.  Cheap enough to run
# unstrided in tier-1.
step="crashcheck kv-tcache-put exhaustive sweep"
dune exec bin/main.exe -- crashcheck --scenario kv-tcache-put \
  --seed "$CRASH_SEED" > /dev/null
# magazine-refill sweeps, EXHAUSTIVE: one carve of eight blocks split
# into runs (a three-block hole whose live right neighbour is relinked,
# then the wilderness) plus its publish; and one carve whose records
# land in tombstone slots, every field of each logged under the run's
# one barrier.  A crash anywhere in a carve must recover to the
# pre-carve live bytes, and recovery must leave no reclaim lease armed.
for scn in carve carve-tombstones; do
  step="crashcheck $scn exhaustive sweep"
  dune exec bin/main.exe -- crashcheck --scenario "$scn" \
    --seed "$CRASH_SEED" > /dev/null
done
# cache mutation gate: the same sweep against a cache that recycles
# freed blocks with no reclaim lease and no persistent free; the
# value-census oracle MUST flag the orphaned blocks (exit 1),
# or it has lost the power to see the reclaim-before-recycle rule the
# cache's crash safety rests on.
mutation_gate tcache-broken "leaseless-recycle cache bug" \
  --max-points 8 --subsets 1
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
# stale window (exit 1), or it has lost the power to see the
# write-through rule the cache's coherence rests on.
mutation_gate rcache-broken "late-invalidation cache bug" \
  --max-points 8 --subsets 1
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
# long-wire failover smoke: a 500 us wire keeps sync replies parked on
# the primary across the cut, so a reply sent before the backup's
# covering ack names a write the promoted store never got, and the run
# exits non-zero.  On the default wire such an early reply almost
# never falls inside the cut.
step="serve long-wire failover smoke"
dune exec bin/main.exe -- serve --replicate --shards 2 --clients 8 \
  --rate 30000 --duration 0.005 --wire-ns 500000 --crash-at 0.5 \
  --seed "$CRASH_SEED" > /dev/null
# lossy-link failover smoke: the link drops and duplicates records,
# frames and acks, so go-back-N retransmission must carry every
# record across before the primary is lost at the midpoint.  Loss
# also delivers one participant's stream of a transaction ahead of
# another's, so the backup must hold a shard behind an unpublished
# transaction: at window 1 through the per-record applier, at window 4
# through the batched one.  Exits non-zero if any sync-acked write is
# missing from the promoted store.
for window in 1 4; do
  step="serve lossy-link failover smoke (window $window)"
  dune exec bin/main.exe -- serve --replicate --shards 2 --clients 8 \
    --rate 40000 --duration 0.005 --txn-pct 20 --batch-window "$window" \
    --drop-pct 20 --dup-pct 10 --crash-at 0.5 --seed "$CRASH_SEED" \
    > /dev/null
done
# inspect smoke: the counter dump runs with a magazine cache over
# Poseidon and reads its traffic from the cache (exit 0); a baseline
# has no cache support, so the same flag on PMDK-sim is refused with
# exit 2.
step="inspect smoke"
dune exec bin/main.exe -- inspect -a poseidon --tcache-mag 8 > /dev/null
step="inspect baseline cache refusal"
status=0
dune exec bin/main.exe -- inspect -a pmdk --tcache-mag 8 > /dev/null 2>&1 \
  || status=$?
if [ "$status" -ne 2 ]; then
  echo "check: inspect -a pmdk --tcache-mag 8 exited $status, want 2" >&2
  exit 1
fi
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
dune exec bench/main.exe -- --suite smoke --json-out "$tmpdir/a.json" > /dev/null
dune exec bench/main.exe -- --suite smoke --json-out "$tmpdir/b.json" > /dev/null
sed 's/"rev":[^,}]*//' "$tmpdir/a.json" > "$tmpdir/a.norm"
sed 's/"rev":[^,}]*//' "$tmpdir/b.json" > "$tmpdir/b.norm"
if ! diff -u "$tmpdir/a.norm" "$tmpdir/b.norm" > /dev/null; then
  echo "check: bench --suite smoke is NOT deterministic across identical runs:" >&2
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
echo "check: lint + build + tests + crashcheck (incl. shift/split repair + chunk-commit + early-ack + 2PC + commit-word + batching + MVCC + tcache + carve + carve-tombstones + rcache gates) + serve/txn/failover/long-wire failover/lossy-link failover/mvcc/tcache/rcache smokes + inspect smoke + trace validity + determinism + batch/mvcc/tcache/rcache CLI-default identity OK"
