(** poseidon-kv: a sharded persistent key-value store over any
    {!Alloc_intf} allocator.

    Keys (ints ≥ 1) are partitioned across [shards] persistent
    B+-trees by a hash; each shard is intended to be driven by one
    simulated CPU (the paper's per-CPU sub-heap affinity), though the
    data structure itself does not enforce it.  Values are
    fixed-size blocks whose contents are derived deterministically
    from a 63-bit [vseed], so a verifier can recompute the expected
    checksum of any acked write without storing the bytes.

    {2 Durability protocol}

    Every mutation commits on persistent {e slots}: one per shard, a
    checksummed write-ahead record in the superroot object of up to
    {!max_txn_ops} entries of key/new/old.  A single-shard mutation
    commits as a {e chunk} on its shard's slot: {!put} and {!delete}
    are chunks of one; {!group_commit} packs up to {!max_txn_ops} ops
    into a chunk.  A chunk: allocates its values under an open
    allocator transaction and clwb's them, writes the slot and fences
    it (covering the values), commits the allocator transaction (the
    slot now owns the blocks), then persists the shard's 8-byte
    {e decided word} = the slot's id in its own fence — the chunk's
    single commit point — and publishes into the B+-tree, frees the
    overwritten values and clears the slot.  Each value and each slot
    image is written with one bulk store.

    {2 Value index}

    Every mutation looks up its key's old value block under the shard
    lock (a chunk's slot entry records it).  That lookup reads a
    per-shard DRAM {e value index}, key → packed value block (null =
    absent), charged as one DRAM probe.  A miss descends the tree once
    and caches the answer, absence included.  The index is written only
    where the trees change, right after each tree insert or delete of a
    slot's apply, so it mirrors the tree exactly; the descent itself
    runs in that apply, after the reply.  It is volatile: {!create} and
    {!attach} start it empty, and the redo of {!attach} fills it like
    any apply.  Reads ({!get}, snapshots, scans) never consult it.

    One commit rule covers chunks and the cross-shard transactions
    below: a slot is committed exactly when some shard's decided word
    holds its id.  {!attach} first repairs the tree paths of every armed
    slot's keys ({!Btree.repair}), then redoes every slot whose id a
    decided word holds and rolls back every other (frees its orphan
    values — idempotent only because the allocator detects
    invalid/double frees, i.e. Poseidon's safe free is load-bearing
    here).  Every crash point therefore resolves to "fully applied" or
    "never happened", with no leak and no dangling pointer. *)

type t

type recovery = {
  replayed : int;
      (** slots redone: a decided word held their id, so their chunk
          or transaction had committed and must surface *)
  rolled_back : int;
      (** slots undone, torn ones included: no decided word held their
          id (presumed abort) *)
}

val create :
  ?mvcc_window:int ->
  ?rcache_entries:int ->
  Alloc_intf.instance ->
  shards:int ->
  value_size:int ->
  t
(** Allocates the superroot (magic, geometry, one 64-byte shard record
    each holding the tree root and the decided word, and one 256-byte
    slot per shard), publishes it as the allocator root and creates
    the per-shard trees.  [value_size] is rounded up to a multiple of
    8 (min 8).  [mvcc_window] (default 0 = off) is the number of
    committed versions retained per mutated key for
    {!snapshot_get}/{!snapshot_scan}; it is volatile DRAM state, not
    part of the persistent format.  [rcache_entries]
    (default 0 = off) is the per-shard slot count of the DRAM read
    cache ({!Rcache}) layered in front of the trees — also pure
    volatile state; 0 keeps the store byte-identical to a cacheless
    one.  Raises [Failure] when the heap cannot fit the superroot. *)

val attach :
  ?mvcc_window:int -> ?rcache_entries:int -> Alloc_intf.instance -> t * recovery
(** Reopens the store of an already-attached allocator instance,
    repairs the trees and redoes or rolls back every armed slot by the
    one commit rule — the restart path.  The
    version chains and the read cache restart empty (both are volatile
    by construction); the recovered trees are the floor every snapshot
    reads until keys are mutated again. *)

val shards : t -> int
val value_size : t -> int

val shard_of_key : t -> int -> int
(** Hash partition: which shard owns this key (stable across restarts). *)

val shard_of : shards:int -> int -> int
(** The same hash partition as a pure function of the shard count —
    lets planners place keys without a store in hand. *)

val shard_lock : t -> int -> Machine.Lock.lock
(** The shard's mutual-exclusion lock (simulation-only; a no-op
    outside {!Simcore.Sched} runs).  {!put}/{!delete}/{!get} do NOT
    take it themselves — single-threaded callers need no locking and
    existing call sites keep their exact timing — but any caller
    running concurrent mutators (e.g. {!Server}) must hold it around
    single-key operations so they serialize against {!txn}, which
    acquires every participant's lock internally. *)

val put : t -> key:int -> vseed:int -> bool
(** Insert or overwrite, as a chunk of one; [false] when
    allocation fails (heap full). *)

val get : t -> key:int -> int option
(** Checksum of the stored value, or [None].  A read-cache hit answers
    from DRAM at probe cost; a miss reads every word of the value from
    the tree and fills the cache (cacheless without [rcache_entries]). *)

val delete : t -> key:int -> bool
(** Remove, as a chunk of one; [false] when the key was
    absent (no state change). *)

val scan : t -> from_key:int -> n:int -> int
(** Visits up to [n] entries with key ≥ [from_key] in the owning
    shard's tree; returns the number visited. *)

val value_checksum : t -> vseed:int -> int
(** The checksum {!get} returns for a value written with [vseed],
    computed without touching memory — the verifier's oracle. *)

val count_keys : t -> int

val check : t -> unit
(** Structural check of every shard tree, and of the value index: every
    index entry must equal its key's tree value (null for an absent
    key).  Raises [Failure] on the first violation. *)

val vindex_stats : t -> int * int
(** Cumulative [(hits, misses)] of the value index's old-value lookups
    since this handle was made. *)

val vindex_entries : t -> int
(** Keys the value index currently holds across all shards, cached
    absences included. *)

(** {2 Snapshot reads (MVCC)}

    A volatile per-shard version store ({!Mvcc}) layered over the
    trees: mutations publish [(commit ts, value digest)] versions for
    their keys (cross-shard transactions publish all participants
    before any becomes visible), and a read-only transaction mints the
    current safe timestamp once, then resolves every key to the newest
    version ≤ that timestamp — {e without taking any shard lock}.
    Writers seed a key's pre-image before first touching its tree
    entry, so a lock-free reader never observes the tree mid-update
    for a mutated key; chainless keys read the tree directly and
    re-validate against the chain afterwards.  Commit timestamps are a
    store-local monotone commit {e sequence} (minted at each
    publication), not the simulated clock — snapshot semantics hold
    identically outside the simulator, where a clock-based stamp would
    pin every commit at 0 and silently degrade snapshots to
    read-latest.  With [mvcc_window = 0] (the default) every hook is
    off and the calls below degrade to the plain read path. *)

val mvcc_window : t -> int

val snapshot : t -> int
(** Mint a read-only transaction's timestamp: the newest commit whose
    versions are all published.  Costs nothing (one volatile load). *)

val snapshot_get : t -> ts:int -> key:int -> int option
(** The key's value digest as of snapshot [ts], lock-free.  A snapshot
    older than the key's oldest retained version is answered with that
    oldest version — a version committed {e after} the snapshot, i.e.
    a consistency loss, not mere staleness (bounded history: the
    window caps chain memory) — and counted in
    {!mvcc_truncated_reads} so the caller can detect it. *)

val mvcc_truncated_reads : t -> int
(** Snapshot reads so far whose timestamp predated every retained
    version of their key, so the answer came from after the snapshot
    (the bounded-window degradation).  0 means every snapshot read was
    exact. *)

val snapshot_scan : t -> ts:int -> from_key:int -> n:int -> (int -> int -> unit) -> int
(** Visits up to [n] entries with key ≥ [from_key] {e across all
    shards} in ascending key order, each resolved at snapshot [ts],
    lock-free; [f key digest] per entry; returns the number visited.
    Unlike {!scan} (one shard's tree, live state) this is a global
    ordered view consistent at one timestamp — per shard it merges
    the tree cursor with the shard's version chains, then K-way
    merges the shard streams. *)

val mvcc_chain_length : t -> key:int -> int
(** Versions currently retained for the key (pre-image included);
    0 when unmutated or MVCC is off.  Test/diagnostic use. *)

val mvcc_shard_chains : t -> (int * int) array
(** Per-shard version-chain census [(chains, versions)]: how many keys
    retain a chain on each shard and the total versions they hold —
    the MVCC memory footprint the serve metrics surface as per-shard
    gauges.  All zeros when MVCC is off. *)

(** {2 DRAM read cache}

    A bounded per-shard volatile cache of [key -> newest committed
    digest] ({!Rcache}) in front of the trees.  Every mutation path —
    {!put}, {!delete}, {!txn}, {!group_commit} chunks, the backup's
    replicated applies and deferred {!txn_backup_decide} — removes its
    keys in the same pure OCaml step as its MVCC publication, so a
    present entry always digests the newest committed value and a
    lock-free snapshot reader can never pair a new watermark with a
    stale cached digest.  Each entry carries the commit timestamp of
    the value it caches; {!snapshot_get} consumes a hit only when that
    timestamp satisfies its snapshot, and fills on a miss only inside
    a pure step that also proves the resolved version is still the
    key's newest — a lock-free fill that lost a race with a writer
    would otherwise pin the old digest for every later snapshot.
    {!txn_resolve_indoubt} (promotion) resets the cache like the
    version chains. *)

val rcache_entries : t -> int
(** The per-shard capacity the store was created with (0 = off). *)

val rcache_stats : t -> int * int * int * int
(** Cumulative [(hits, misses, evictions, invalidations)] — the serve
    gauges.  All zeros when the cache is off. *)

val rcache_cached : t -> int
(** Entries currently cached across all shards. *)

val rcache_mem : t -> key:int -> bool
(** Whether the key is currently cached (uncounted; tests). *)

val rcache : t -> Rcache.t
(** The store's read cache itself, for checkers that observe it or
    plant a fault in it from outside.  Writing to it ({!Rcache.insert},
    {!Rcache.invalidate}) breaks the coherence contract above: a digest
    inserted behind the store's back can outlive the value it names.
    The [rcache-broken] crashcheck scenario does exactly that on
    purpose. *)

(** {2 Cross-shard transactions}

    Two-phase commit on the shards' own slots (DESIGN §10).  A
    transaction is a list of puts and deletes over distinct keys that
    may land on different shards.  {!txn} runs its three staged steps
    under the participant locks:

    + {b prepare} — the new values are allocated and clwb'd under one
      open allocator transaction, each participant's slice is persisted
      into its shard's slot (the first slot's fence covers every value),
      and the allocator transaction commits, handing the blocks to the
      slots.
    + {b decide} — the transaction's id is persisted in its {e lowest}
      participant's decided word: the commit point.
    + {b apply} — the versions are published, and each slot is applied
      to its B+-tree and cleared.

    {!attach} resolves a crash anywhere by the one commit rule: redo if
    the decided word holds the id, else presumed abort, sound because
    the reply is only sent after the word persists.  {!txn} holds the
    lowest participant's lock until every slot is cleared, so no chunk
    moves the word meanwhile.  Nothing is store-wide: transactions with
    disjoint participants commit in parallel.

    Under replication a committed transaction rides the per-shard
    sequenced streams as one [Txn_prepare] + [Txn_decide] record pair
    per participant ({!Replica.op}, applied by {!apply_replicated}).  A
    promoting backup first replays the sealed log
    ({!Replica.Applier.seal_and_replay}), then calls
    {!txn_resolve_indoubt} to discard the prepares whose decide died on
    the wire — none of those was ever acked. *)

val max_txn_ops : int
(** Operations one slot can hold — the per-shard cap on a chunk and on
    a transaction's footprint (8). *)

type txn_op = Replica.txn_op =
  | Tput of { key : int; vseed : int }
  | Tdel of { key : int }
(** Shared with the replication wire format so a participant's slice
    ships unconverted. *)

type txn_abort =
  | Txn_empty
  | Txn_too_many_ops  (** more than {!max_txn_ops} keys on one shard *)
  | Txn_duplicate_key
  | Txn_absent_key of int  (** strict deletes: [Tdel] of a missing key *)
  | Txn_no_memory  (** allocation failed during prepare *)

type txn_result = {
  txn_id : int; (** 0 when aborted before a slot was claimed *)
  committed : bool;
  abort : txn_abort option;
  fin : int;
      (** simulated time of the decided word's persist — the commit
          point; 0 on abort or outside the simulation *)
  participants : (int * txn_op list) list;
      (** ascending shard order; ops in submission order per shard *)
}

val txn :
  ?on_commit:(txn_result -> unit) ->
  ?trace:int ->
  ?span:int ->
  t ->
  txn_op list ->
  txn_result
(** Executes the operations as one atomic transaction: after a crash
    at any fence, either every operation is visible or none is.
    Acquires every participant's {!shard_lock} in ascending order (so
    concurrent transactions cannot deadlock), prepares, then runs
    {!txn_decide} and {!txn_apply}.  [on_commit] runs {e inside} the
    participant locks right after apply — the hook the replicated
    server uses to stage and flush the
    transaction's {!txn_records} in mutation order.  The locks are
    released as it returns: nothing waits for the backup under them.
    Aborts ([committed = false]) leave no durable trace.
    [trace]/[span] (default -1 = off) attach
    {!Obs.Span.Txn_prepare} / {!Obs.Span.Txn_decide} detail spans under
    the caller's transaction span. *)

type prepared = private {
  txn : int;  (** the claimed transaction id *)
  parts : (int * txn_op list) list;  (** as {!txn_result}'s [participants] *)
}
(** A prepared transaction: what {!txn_decide} and {!txn_apply} act on. *)

val txn_prepare : t -> txn_op list -> (prepared, txn_abort) result
(** Phase 1 without locking (single-threaded tests and checkers):
    persist the values and the participants' slots and commit the
    allocator transaction.  A crash now leaves the transaction in doubt;
    {!attach} presumed-aborts it. *)

val txn_decide : t -> prepared -> int
(** Phase 2: seed the MVCC pre-images of the written keys and persist
    the lowest participant's decided word = the transaction's id — the
    commit point.  Returns its simulated time ({!txn_result}'s [fin]).
    A crash after this redoes the transaction, unless a chunk of that
    shard moved the word before {!txn_apply} (as the seeded
    [kv-coord-broken] scenario does). *)

val txn_apply : t -> prepared -> unit
(** Phase 3: publish the versions and kill the cached digests in one
    pure step, then apply and clear every participant's slot.  Only
    after {!txn_decide}: the seeded [kv-txn-broken] and [mvcc-broken]
    crashcheck scenarios skip or postpone the decide on purpose. *)

val group_commit :
  ?on_chunk:(fin:int -> txn_op list -> unit) ->
  t ->
  shard:int ->
  txn_op list ->
  (bool * int) list
(** Group commit: execute a run of single-key mutations, all bound for
    [shard] ({!shard_of_key}), as chunks of up to {!max_txn_ops} ops
    each — one covering slot fence (which also commits the chunk's
    fence-free clwb'd values), one allocator commit and one
    decided-word fence per {e chunk}.  Acquires the shard lock itself,
    and no other.  A chunk closes early when the next op's key is
    already in it; an absent delete is a no-op that never enters a
    chunk (its result reflects every earlier op of the group).  When the heap runs out mid-chunk, the
    chunk is retried as one-op chunks, so only a put that still cannot
    allocate fails.  Returns one [(ok, fin)] per input op, in order:
    [ok] as {!put}/{!delete} would have reported, [fin] the simulated
    time of the chunk's decided-word persist (the op's durability
    point).  [on_chunk] runs inside the shard lock at each chunk's
    commit point, with the chunk's ops in order: after the
    decided-word fence, the MVCC publication and the read-cache kills,
    and {e before} the tree apply, the old-value frees and the slot
    clear.  The chunk is durable there, so the server replies and
    ships from it.  Every read still sees the write.  A locked reader
    waits for the shard lock, which the apply still holds.  A
    lock-free snapshot reader resolves the keys through their
    already-published chains.  And {!attach} redoes a slot that its
    decided word names.  A crash loses at most the chunks (and never a
    committed chunk) of the in-flight group.  Transactions differ:
    {!txn}'s [on_commit] runs after the apply, because their versions
    publish there. *)

val apply_after_commit_ns : t -> shard:int -> int
(** Simulated ns that [shard]'s chunks have spent, since this handle
    was made, between their commit point ([on_chunk]'s return) and the
    end of their apply: the work a reply at the commit point no
    longer waits for. *)

val txn_resolve_indoubt : t -> int
(** Resolve every occupied slot by the one commit rule and clear every
    hold ({!backup_held}); returns the slots rolled back.  The
    promoting backup calls this after
    {!Replica.Applier.seal_and_replay}: each slot still armed is a
    prepare whose last decide died with the primary, never acked, so
    it is presumed-aborted. *)

(** {2 Backup side} *)

val apply_replicated : t -> shard:int -> Replica.op -> unit
(** Apply one shipped record: [Put]/[Del] through {!put}/{!delete},
    [Txn_prepare] through {!txn_backup_prepare} and [Txn_decide]
    through {!txn_backup_decide}. *)

val apply_replicated_group : t -> shard:int -> Replica.op list -> unit
(** Apply a drained burst of in-order single-op records as one
    {!group_commit} chunk chain — one chunk per up to {!max_txn_ops}
    records instead of one per record.  Raises [Invalid_argument] on a
    transaction record: the applier handles those per record (they are
    group barriers). *)

val txn_backup_prepare : t -> txn:int -> shard:int -> ops:txn_op list -> unit
(** Apply a shipped [Txn_prepare] record: persist the slice into the
    shard's slot before the applier acks, under an id this store mints
    at the transaction's first prepare (the primary's [txn] could equal
    one of this store's chunk ids).  Raises [Failure] if the slot is
    occupied — an invariant, since a held shard's records park
    ({!backup_held}) — or the heap is exhausted. *)

val txn_backup_decide : t -> txn:int -> shard:int -> nparts:int -> unit
(** Apply a shipped [Txn_decide] record.  The commit is {e deferred}
    until the decides of all [nparts] participants have arrived, since
    publishing slice-by-slice would let a crash or promotion between
    slices surface half a transaction.  The last one persists its own
    shard's decided word = the minted id, then publishes as
    {!txn_apply} does (each version digested from its prepared block)
    and clears every slot.  Until then every shard whose decide has
    arrived is held ({!backup_held}).  A duplicate decide is a
    no-op. *)

val backup_held : t -> shard:int -> bool
(** Whether [shard] has applied the committed decide of a transaction
    that has not published yet — the applier's hold query
    ({!Replica.Applier.create}'s [held]).  Volatile, read with no NVMM
    access; {!txn_resolve_indoubt} clears it. *)

val txn_records : txn_result -> (int * Replica.op) list
(** A committed transaction's replication records in shipping order:
    for each participant, in ascending shard order, its [Txn_prepare]
    slice and then its [Txn_decide] (with the participant count). *)

val iter_values : t -> (key:int -> Alloc_intf.nvmptr -> unit) -> unit
(** Every value pointer in every shard tree, each leaf entry in leaf
    chain order (a duplicate or stale entry included) — the crash
    checker's no-dangling oracle. *)
