(** The Poseidon heap: the paper's public API (Fig. 5) plus
    reproduction-specific controls.

    A heap lives in one contiguous window of the simulated NVMM
    address space and consists of a superblock plus per-CPU sub-heaps
    created on first allocation from each CPU (§4.1).  All metadata is
    fully segregated from user data and protected with simulated Intel
    MPK (§4.2–4.3): it is read-only for every thread except inside an
    allocator operation of the thread executing it.

    Crash consistency: every operation is undo-logged; transactional
    allocations are additionally recorded in a per-sub-heap micro log
    whose truncation is the commit point (§4.5).  {!attach} performs
    the recovery protocol of §5.8 (idempotent; safe to crash during).

    Thread model: simulated threads are pinned to CPUs; allocation
    uses the calling CPU's sub-heap, deallocation goes to the owning
    sub-heap wherever the caller runs (§5.7). *)

type t

val create :
  Machine.t ->
  base:int ->
  size:int ->
  heap_id:int ->
  ?sub_data_size:int ->
  ?base_buckets:int ->
  ?protected:bool ->
  ?single_subheap:bool ->
  unit ->
  t
(** Formats a fresh heap in the window [base, base+size).
    [sub_data_size] is each sub-heap's user-data capacity (sparsely
    backed; default 64 MiB); [base_buckets] sizes hash level 0.
    [protected:false] disables MPK (ablation A3); [single_subheap]
    shares one sub-heap between all CPUs (ablation A2). *)

val attach : Machine.t -> base:int -> ?protected:bool -> unit -> t
(** Loads an existing heap (§5.1): re-allocates an MPK key, re-tags
    the metadata regions, replays every sub-heap's undo log and rolls
    back uncommitted transactions from the micro logs (§5.8). *)

val finish : t -> unit
(** Clean shutdown; releases the MPK key. *)

(** {2 Allocation (Fig. 5)} *)

val alloc : t -> int -> Alloc_intf.nvmptr option
(** Singleton allocation; [None] when no space can be found (sizes
    round up to the next power-of-two class, min 32 B). *)

val tx_alloc : t -> int -> is_end:bool -> Alloc_intf.nvmptr option
(** Transactional allocation (§5.3): the pointer is persisted in the
    micro log before the operation's undo log truncates; a successful
    [is_end:true] call commits the transaction.  After a crash before
    commit, recovery frees every allocation of the transaction. *)

val tx_commit : t -> unit
(** Explicit commit of the in-flight transaction (truncates the micro
    log), equivalent to a successful [is_end:true] allocation. *)

val tx_abort : t -> unit
(** Frees every address in the calling CPU's micro log and truncates
    it — explicit abort of the in-flight transaction. *)

val free : t -> Alloc_intf.nvmptr -> unit
(** Deallocation.  Invalid frees (unknown address, foreign heap,
    interior pointer) and double frees are detected via the memblock
    hash table and ignored, with counters (§4.4). *)

(** {2 Pointers and root (Fig. 5)} *)

val get_rawptr : t -> Alloc_intf.nvmptr -> int
(** Absolute simulated address; raises [Invalid_argument] on null or
    foreign pointers and on offsets outside the sub-heap's data region
    (a negative one would address its metadata). *)

val get_nvmptr : t -> int -> Alloc_intf.nvmptr
(** Inverse of {!get_rawptr}. *)

val get_root : t -> Alloc_intf.nvmptr
val set_root : t -> Alloc_intf.nvmptr -> unit

(** {2 Maintenance, security, introspection} *)

val lockdown : t -> unit
(** Enables the §8 wrpkru-lockdown countermeasure: guards the heap's
    protection key and seals the machine's MPK unit, so only this
    heap (holding the capability) can grant metadata access; a
    hijacked [wrpkru] raises [Mpk.Wrpkru_denied]. *)

val shrink_metadata : t -> unit
(** Hole-punches empty top hash-table levels of every sub-heap back
    to the filesystem (§5.6). *)

val machine : t -> Machine.t
val heap_id : t -> int
val pkey : t -> int
val base : t -> int

val iter_subheaps : t -> (Subheap.t -> unit) -> unit

(** {2 Oracle accessors}

    Read-only views used by crash-consistency oracles
    (the {!Crashcheck} model checker). *)

val data_capacity : t -> int
(** Sum of the data-region sizes of every active sub-heap. *)

val tx_pending : t -> int
(** Total micro-log entries across sub-heaps — the number of
    allocations belonging to transactions that have not committed.
    Zero after a completed recovery. *)

val logs_quiescent : t -> bool
(** Every sub-heap's undo log and micro log is empty — no operation
    in flight and no uncommitted transaction.  Recovery must always
    leave the heap in this state. *)

val check_invariants : t -> unit
(** Full structural validation of every sub-heap; raises
    [Subheap.Invariant_violation]. *)

val cache_ops : t -> Alloc_intf.cache_ops option
(** Magazine-cache support hooks (always [Some] for Poseidon): batched
    carving, reclaim-ledger leases, deferred bulk frees.  See
    DESIGN.md §14 and lib/tcache. *)

type stats = {
  subheaps_active : int;
  invalid_frees : int;
  double_frees : int;
  merges : int;
  defrag_passes : int;
  hash_extends : int;
  tx_commits : int; (** committed transactions (explicit or [is_end]) *)
  tx_aborts : int; (** explicit {!tx_abort} calls *)
  recovery_replays : int;
      (** undo-log replays + micro-log rollback entries processed by
          {!attach} recovery *)
  live_bytes : int;
  free_bytes : int;
  hint_hits : int;
      (** magazine-cache frees (stashes and flushed blocks) whose
          block was found through the sub-heap's DRAM record-hint
          table — no hash probe *)
  hint_misses : int;
      (** magazine-cache frees that probed the hash table: no hint
          entry, or a stale one *)
  hash_slot_reads : int;
      (** NVMM bucket reads made by record-slot searches (buckets the
          occupancy summary knows live are skipped unread) *)
}

val stats : t -> stats

