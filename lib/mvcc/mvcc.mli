(** Volatile per-shard version chains: the MVCC substrate of
    poseidon-kv's snapshot reads.

    Each shard keeps a DRAM hashtable mapping keys to newest-first
    version chains of [(ts, value digest option)]; the persistent
    B+-tree is the {e floor} version for keys never mutated since the
    store was built.  Writers {!seed} a key's pre-image before first
    touching its tree entry and {!publish} the new version at the
    commit timestamp; readers {!snapshot} the current safe timestamp
    and {!lookup} the newest version [<= ts] without any locking.

    Consistency rests on the publication discipline, not on locks:
    chain appends and the {!snapshot} watermark advance happen in one
    OCaml step with no simulated-machine call in between, so under the
    cooperative scheduler a minted snapshot always names a fully
    published prefix of commits, and {!publish_group} installs every
    participant of a cross-shard transaction before moving any shard's
    watermark — a snapshot sees all of a transaction or none of it.

    Everything is volatile by construction: crash recovery rebuilds
    the chains empty over the recovered trees. *)

type t

val create : shards:int -> window:int -> t
(** [window] is K, the committed versions retained per mutated key
    (one older entry is kept besides as the in-chain floor).
    [window = 0] disables the store: every operation is a no-op and
    {!lookup} always falls through, so the caller's plain read path
    runs unchanged. *)

val window : t -> int
val enabled : t -> bool
(** [window > 0]. *)

val shards : t -> int

val snapshot : t -> int
(** Mint a read-only transaction's timestamp: the newest commit whose
    versions are all published.  Monotone; 0 before any publication. *)

val watermark : t -> shard:int -> int
(** Newest fully-published commit timestamp on one shard. *)

val seed : t -> shard:int -> key:int -> value:int option -> unit
(** Install the key's floor pre-image ([None] = absent) unless it
    already has a chain.  Writers call this with the pre-mutation
    digest {e before} touching the key's tree entry, so a concurrent
    snapshot reader never reads the tree mid-mutation for this key. *)

val has_chain : t -> shard:int -> key:int -> bool
val chain_length : t -> shard:int -> key:int -> int
(** Versions retained (pre-image included); bounded by [window + 1]. *)

val newest_ts : t -> shard:int -> key:int -> int option
(** Commit timestamp at the head of the key's chain ([Some 0] when
    only the seeded floor pre-image exists); [None] without a chain.
    Read-cache fills stamp their entry's version timestamp with this:
    a chainless key's cached value predates every mutation since
    attach, so it is valid for every snapshot. *)

val publish : t -> shard:int -> ts:int -> (int * int option) list -> unit
(** Append one commit's versions ([key, digest option]; [None] =
    delete) on one shard and advance its watermark to [ts]. *)

val publish_group : t -> ts:int -> (int * (int * int option) list) list -> unit
(** Cross-shard atomic publication: install every participant's
    versions, then advance all their watermarks — a snapshot can never
    observe half of the group. *)

type resolution =
  | No_chain
      (** The key has no chain — the persistent tree is its version
          for every timestamp. *)
  | Resolved of int option
      (** The chain resolves the key at [ts] ([None] = absent at that
          snapshot). *)
  | Truncated of int option
      (** Every retained version postdates [ts]: trimming dropped the
          version the snapshot should observe, and the carried value
          (the oldest survivor) is a {e forward} read — a version
          committed after the snapshot.  The O(K) memory bound traded
          away this snapshot's consistency; callers must not present
          it as merely stale. *)

val lookup : t -> shard:int -> key:int -> ts:int -> resolution
(** Resolve the key to the newest version [<= ts], lock-free. *)

val next_chain_key : t -> shard:int -> from_key:int -> int option
(** The smallest key [>= from_key] with a chain on one shard, from an
    ordered key set kept beside the chains, in O(log n) — the chain
    side a merged snapshot scan interleaves with the tree cursor.  A
    key enters the set with its first chain ({!seed} or {!publish}) and
    leaves it only by {!reset}, so a scan that asks at every step also
    sees a chain seeded behind its back (a concurrent delete). *)

val census : t -> shard:int -> int * int
(** [(chains, versions)] on one shard: the keys holding a chain and the
    versions they retain. *)

val reset : t -> unit
(** Drop every chain and watermark (the attach/promotion path). *)
