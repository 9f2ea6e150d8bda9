(** DRAM-resident magazine caches over a persistent allocator
    (DESIGN.md §14).

    [wrap ~mag inner] layers volatile per-CPU, per-size-class bins
    over [inner]: allocation pops a bin (no NVMM traffic, no lock, no
    fence on the common path), a miss carves [mag] blocks in one inner
    transaction, frees stash into a bin and flush in bulk.  Crash
    safety rides the inner allocator's reclaim-ledger leases exposed
    through {!Alloc_intf.cache_ops}: a cache-handed-out block becomes
    durably allocated only when its lease publish (fence) completes —
    ordered before the embedding store's own commit persist — and a
    freed block is recyclable only after its reclaim lease persisted.
    The cache has one mode; the uncached path is the bare instance. *)

type handle

val wrap : mag:int -> Alloc_intf.instance -> Alloc_intf.instance * handle
(** Wraps an instance with magazine size [mag] (blocks carved per
    refill; bins flush when they exceed twice that).  The handle
    controls the cache out of band.  Raises [Invalid_argument] for
    [mag < 1] and for an allocator whose [cache_ops] is [None]. *)

val reset : handle -> unit
(** Flushes every bin and pending list back to the inner allocator
    (bulk reclaim) and clears the cache state — used when an instance
    changes role (e.g. a replica promoting to primary re-attaches the
    heap; leftover DRAM state would go stale). *)

val top_up : handle -> int
(** Idle-time refill on the calling CPU: every bin that has missed at
    least once and holds at most half a magazine gets one carve of one
    magazine.  Does nothing while a transactional allocation is
    pending on this CPU (between a [tx_alloc] and its commit point).
    Returns the bins refilled.  A serving handler calls it when its
    inbox is empty, so the next misses find blocks; a miss on the
    request path still carves as before. *)

val stats : handle -> int * int * int * int
(** Traffic counters [(hits, misses, refills, flushes)] since
    construction, the refills being request-path misses' carves; each
    event also reaches the inner allocator's [cache_note]. *)

val idle_refills : handle -> int
(** Bins refilled by {!top_up} since construction. *)
