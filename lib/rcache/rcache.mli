(** DRAM-resident read cache over the persistent KV shards.

    A bounded per-shard map from key to the digest of its latest
    committed value, with CLOCK (second-chance) eviction.  The cache
    is pure OCaml state — no simulated-machine calls — so every probe,
    fill and invalidation is one atomic step under the cooperative
    scheduler, and the whole structure is volatile by construction: a
    crash drops it, re-attach starts empty, and crash recovery needs
    no new persistence reasoning.

    Correctness contract (enforced by the {!Service.Kv} call sites):

    - {e write-through invalidation}: every mutation removes its keys
      in the same pure OCaml step as its MVCC version publish, so a
      present entry always digests the key's newest committed value;
    - each entry carries [vts], the commit timestamp of the value it
      caches ([0] for a value that predates every mutation since
      attach), so a snapshot read at [ts] may consume a hit only when
      [vts <= ts] — the newest committed version is then exactly the
      version the snapshot must observe ({!find_at}). *)

type t

val create : shards:int -> entries:int -> t
(** [entries] is the per-shard slot count; [0] disables the cache —
    every operation below becomes a no-op and no statistics move, so
    the disabled store is byte-identical to a cacheless one. *)

val enabled : t -> bool
val entries : t -> int
(** The per-shard capacity [create] was given (the knob value). *)

val find : t -> shard:int -> key:int -> int option
(** Probe for the latest committed digest of [key].  Counts a hit or
    a miss; a hit marks the slot recently used. *)

val find_at : t -> shard:int -> key:int -> ts:int -> int option
(** Snapshot probe: a hit only if the entry is present {e and} its
    [vts <= ts].  An entry newer than the snapshot is a miss (the
    caller must resolve through the version chains). *)

val insert : t -> shard:int -> key:int -> digest:int -> vts:int -> unit
(** Fill after a locked tree read.  Evicts via CLOCK when the shard
    is full (counted); replaces in place if [key] is already cached. *)

val invalidate : t -> shard:int -> key:int -> unit
(** Write-through invalidation.  Only an actual removal counts. *)

val mem : t -> shard:int -> key:int -> bool
(** Uncounted presence probe (checkers, tests and gauges). *)

val cached : t -> int
(** Entries currently cached across all shards (uncounted). *)

val reset : t -> unit
(** Drop every entry (backup promotion, like the MVCC chains).
    Cumulative statistics stay. *)

val stats : t -> int * int * int * int
(** [(hits, misses, evictions, invalidations)]. *)
