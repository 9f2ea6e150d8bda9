(** Per-CPU sub-heap: allocation, deallocation, splitting, merging and
    defragmentation (paper §4.1, §5.2–§5.5).

    All operations here assume the caller (the heap layer) holds the
    sub-heap lock and has granted itself write permission on the
    metadata region via MPK.  Every metadata mutation runs inside an
    undo-logged operation, so a crash at any point rolls back to a
    consistent state. *)

type t = {
  mach : Machine.t;
  heap_id : int;
  index : int; (** sub-heap id = directory slot = CPU *)
  cpu : int;
  meta_base : int;
  data_base : int;
  data_size : int;
  ht : Hashtable.t;
  undo : Persist.Pundo.log;
      (** the undo-log area and the next generation of its
          operations *)
  lock : Machine.Lock.lock;
  mutable stat_invalid_free : int;
  mutable stat_double_free : int;
  mutable stat_merges : int;
  mutable stat_defrag_passes : int;
  mutable stat_hash_extends : int;
  mutable stat_tx_commits : int; (** maintained by the heap layer *)
  mutable stat_tx_aborts : int; (** maintained by the heap layer *)
  mutable stat_recovery_replays : int;
      (** undo-log replays, micro-log entries rolled back and
          thread-cache leases reclaimed by {!recover} over the
          sub-heap's lifetime in this process *)
  mutable stat_hint_hits : int;
      (** magazine-cache frees (stash, flush) whose block was found
          through its record-hint table entry, skipping the hash
          probe *)
  mutable stat_hint_misses : int;
      (** magazine-cache frees that probed the hash table: no entry,
          or a stale one *)
  hints : int;
      (** base of the volatile record-hint table: a DRAM region, one
          word per granule of the data region, mapping a block's
          offset to its record address.  Filled by {!carve}, read and
          validated by {!find_record}. *)
  mutable tc_free_slots : int list;
      (** volatile free-slot stack of the thread-cache reclaim ledger
          (maintained by the heap layer under the sub-heap lock) *)
  mutable tc_free_count : int;  (** length of [tc_free_slots] *)
  mutable tc_slots_ready : bool;
}

val format :
  Machine.t ->
  heap_id:int ->
  index:int ->
  cpu:int ->
  meta_base:int ->
  data_base:int ->
  data_size:int ->
  base_buckets:int ->
  t
(** Writes a virgin sub-heap: header, one hash level, and a single
    free block covering the whole data region.  The caller makes
    creation crash-atomic by publishing the directory entry only after
    this returns (§5.1). *)

val attach : Machine.t -> heap_id:int -> index:int -> meta_base:int -> t
(** Rebuilds the volatile handle of an existing sub-heap (restart);
    raises [Failure] on a bad magic. *)

(** {2 Operations (lock and MPK held by the caller)} *)

val allocate : t -> int -> int option
(** [allocate sh size] returns the block offset, or [None] when no
    block can be found even after defragmentation.  Sizes round up to
    the size-class boundary (§5.2). *)

val allocate_tx : t -> int -> int option
(** Like {!allocate}, additionally persisting the pointer in the micro
    log before the undo log truncates (§5.3). *)

val commit_tx : t -> unit
(** Truncates the micro log — the transaction commit point. *)

type free_result = Freed | Invalid_free | Double_free

val deallocate : t -> int -> free_result
(** Validates the offset against the memblock hash table: unknown
    offsets and non-allocated statuses are rejected (§4.4, §5.5). *)

val find_record : t -> int -> int option
(** [find_record sh off]: record address of the live block at [off].
    Tries the record-hint table first — an entry {!Hashtable.hint_valid}
    accepts is exactly what the probe would find, for one record read —
    and probes the hash table otherwise.  Counts into [stat_hint_hits]
    / [stat_hint_misses].  Used by the magazine cache's frees. *)

val deallocate_many : t -> int list -> int
(** Frees a whole batch under one undo operation (a magazine flush),
    one logged batch (one barrier) per block: first-touch logging
    amortizes the class-list entries and the commit across the batch,
    and each block is found through {!find_record}.  Returns
    how many offsets actually freed; invalid and double frees are
    absorbed into the stats as in {!deallocate}. *)

(** {2 Thread-cache reclaim ledger}

    Persistent per-sub-heap slot array backing the volatile magazine
    caches (lib/tcache): a non-zero slot holds [off + 1] of a block
    that is allocated in the metadata but owned only by DRAM — carved
    ahead of use, or freed into a bin — and {!recover} deallocates it.
    Slot bookkeeping runs under the sub-heap lock like every other
    operation here. *)

val tc_slot_acquire : t -> int option
(** Claims a free ledger slot ([None] when the ledger is full — the
    caller degrades to the uncached path). *)

val tc_slot_release : t -> int -> unit
(** Returns a slot whose lease has been durably cleared. *)

val tc_lease_set : t -> int -> int -> unit
(** [tc_lease_set sh slot off] durably records the reclaim intent for
    [off] (write + one fence) — the write-ahead that makes a freed
    block safe to recycle from a volatile bin. *)

val tc_lease_clear_async : t -> int -> unit
(** Stages (clwb, no fence) the release of a lease; the caller batches
    clears under one trailing [sfence] before its own commit point. *)

val carve : t -> rsize:int -> count:int -> (int * int) list
(** Carves up to [count] blocks of exactly [rsize] bytes (pre-rounded)
    in one undo operation, each covered by a ledger lease written
    under the same operation (one logged batch per run's leases) —
    the batch is crash-atomic.  Blocks are
    split off free blocks in runs, one pass per free block, each run
    no longer than the free ledger slots.  Returns [(off, slot)] pairs;
    may return fewer than [count] (pool or ledger exhausted). *)

val recover : t -> unit
(** §5.8: replays the undo log, then frees every address in the micro
    log (the uncommitted transaction) and truncates it.  Idempotent. *)

val try_shrink : t -> unit
(** Hole-punches empty top hash levels (§5.6). *)

(** {2 Introspection (read-only)} *)

val iter_blocks :
  t -> (off:int -> size:int -> rec_addr:int -> status:int -> unit) -> unit
(** Walks the data region in address order through the adjacency
    links; raises [Failure] if the chain is broken. *)

val live_bytes : t -> int
val free_bytes : t -> int

exception Invariant_violation of string

val check_invariants : t -> unit
(** Full structural check: undo log empty at rest; the data region
    exactly tiled by blocks with consistent adjacency links; class
    lists well-formed, correctly classed, and in bijection with the
    free blocks; hash level live counters exact. *)
