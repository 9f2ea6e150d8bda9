(** Common interface implemented by all three persistent allocators
    (Poseidon, the PMDK-like baseline, the Makalu-like baseline), so
    that every workload and benchmark runs unchanged against each.

    The shape mirrors the paper's Fig. 5 API: persistent pointers,
    singleton and transactional allocation, pointer conversion and the
    heap root. *)

(** Persistent pointer: 8-byte heap id, 2-byte sub-heap id, 6-byte
    offset within the sub-heap (paper §4.6). *)
type nvmptr = { heap_id : int; subheap : int; off : int }

let null = { heap_id = 0; subheap = 0xFFFF; off = (1 lsl 48) - 1 }
let is_null p = p.subheap = 0xFFFF && p.off = (1 lsl 48) - 1

let pp_nvmptr ppf p =
  if is_null p then Format.fprintf ppf "<null>"
  else Format.fprintf ppf "<%d:%d:%#x>" p.heap_id p.subheap p.off

let equal_nvmptr a b =
  a.heap_id = b.heap_id && a.subheap = b.subheap && a.off = b.off

(** Packed on-NVMM representation: subheap in bits 48.., offset in
    bits 0..47 (the heap id is implicit — pointers in a heap refer to
    that heap).  The null pointer packs to -1, which no valid pointer
    can produce (sub-heap ids are small, so the sign bit stays clear
    in OCaml's 63-bit ints). *)
let packed_null = -1

let pack p =
  if is_null p then packed_null
  else (p.subheap lsl 48) lor (p.off land ((1 lsl 48) - 1))

let unpack ~heap_id w =
  if w = packed_null then null
  else { heap_id; subheap = (w lsr 48) land 0xFFFF; off = w land ((1 lsl 48) - 1) }

(** {2 Magazine-cache support surface}

    A DRAM-resident thread cache (lib/tcache) layers volatile per-CPU,
    per-size-class bins over an allocator.  The allocator exposes the
    persistent half of the protocol through these hooks; allocators
    without deferred-reclaim support (the baselines) expose [None],
    and the cache refuses to wrap them: a comparison across
    allocators runs each one uncached. *)

(** A block held by (or leaving) a volatile bin: the pointer plus its
    reclaim-ledger lease slot.  While the lease is set, recovery
    deallocates the block — it is allocated in the persistent metadata
    but referenced only from DRAM. *)
type cache_block = { cb_ptr : nvmptr; cb_lease : int }

type cache_event = Cache_hit | Cache_miss | Cache_refill | Cache_flush

type cache_ops = {
  cache_max_size : int;  (** largest cacheable block size, bytes *)
  cache_round : int -> int;  (** request size -> rounded block size *)
  cache_carve : size:int -> count:int -> cache_block list;
      (** batched refill: up to [count] blocks of exactly [size]
          (pre-rounded) bytes carved from the calling CPU's sub-heap
          under ONE allocator transaction, each covered by a reclaim
          lease.  May return fewer, or [[]] (caller falls back). *)
  cache_publish : cache_block list -> unit;
      (** durably clears the leases of blocks handed out to the
          application (one trailing fence for the whole batch) — the
          point they stop being recovery-reclaimable.  Must run before
          the embedding store persists its own commit record. *)
  cache_stash : nvmptr -> (int * int) option;
      (** deferred free: validates the pointer and durably records its
          reclaim intent (one fence), returning [(lease, size)].
          [None] = not stashable (invalid/double free, uncacheable
          size, ledger full) — the caller must use a plain [free]. *)
  cache_reclaim : cache_block list -> unit;
      (** bulk free of stashed blocks (one allocator transaction per
          sub-heap batch), then lease release — a magazine flush. *)
  cache_note : cache_event -> unit;  (** hit/miss/refill/flush stats *)
}

module type S = sig
  type heap

  val allocator_name : string

  val create :
    Machine.t -> base:int -> size:int -> heap_id:int -> heap
  (** Formats a fresh heap in the address window [base, base+size).
      The window must be unused.  [size] bounds metadata + user data. *)

  val attach : Machine.t -> base:int -> heap
  (** Re-opens (and recovers) a heap previously created at [base] —
      the restart-after-crash path. *)

  val finish : heap -> unit
  (** Clean shutdown; releases runtime resources (e.g. the MPK key). *)

  val alloc : heap -> int -> nvmptr option
  (** Singleton allocation; [None] when no space can be found. *)

  val tx_alloc : heap -> int -> is_end:bool -> nvmptr option
  (** Transactional allocation (paper §5.3): allocations accumulate in
      a per-heap transaction; the [is_end:true] call commits it.  After
      a crash before commit, recovery rolls every one of them back. *)

  val tx_commit : heap -> unit
  (** Commits the calling CPU's in-flight allocation transaction
      without a further allocation — the point a client of
      {!tx_alloc}[ ~is_end:false] reaches once its own durable state
      references the new blocks.  A no-op when no transaction is
      pending (and always for allocators without a redo/undo log). *)

  val free : heap -> nvmptr -> unit
  (** Deallocation. Implementations differ on invalid/double frees:
      Poseidon rejects them; the baselines corrupt, as in the paper. *)

  val get_rawptr : heap -> nvmptr -> int
  (** Absolute simulated address of the pointed-to object. *)

  val get_nvmptr : heap -> int -> nvmptr
  (** Inverse of {!get_rawptr}; raises [Invalid_argument] if the
      address lies outside every sub-heap's data region. *)

  val get_root : heap -> nvmptr
  val set_root : heap -> nvmptr -> unit

  val machine : heap -> Machine.t

  val cache_ops : heap -> cache_ops option
  (** Magazine-cache support hooks; [None] when the allocator cannot
      defer reclamation crash-safely (the cache refuses to wrap it). *)
end

(** An allocator packaged with one of its heaps — what workloads take. *)
type instance = Instance : (module S with type heap = 'h) * 'h -> instance

let instance_machine (Instance ((module A), h)) = A.machine h
let i_alloc (Instance ((module A), h)) size = A.alloc h size
let i_tx_alloc (Instance ((module A), h)) size ~is_end = A.tx_alloc h size ~is_end
let i_tx_commit (Instance ((module A), h)) = A.tx_commit h
let i_free (Instance ((module A), h)) p = A.free h p
let i_get_rawptr (Instance ((module A), h)) p = A.get_rawptr h p
let i_get_nvmptr (Instance ((module A), h)) a = A.get_nvmptr h a
let i_get_root (Instance ((module A), h)) = A.get_root h
let i_set_root (Instance ((module A), h)) p = A.set_root h p
let i_cache_ops (Instance ((module A), h)) = A.cache_ops h
