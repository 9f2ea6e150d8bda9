(** Multi-level hash table of memblock records (paper §4.4, §5.2).

    Buckets store 64-byte records inline; the key is the block's
    offset in the sub-heap data region.  Lookup and insertion probe a
    fixed window of [Layout.probe_window] slots per level, so both are
    constant-time in heap size and occupancy.  When every window is
    full the caller first defragments within the windows (merging a
    free block into its left neighbour releases the block's slot,
    §5.4 case 2) and finally the table grows a new level twice the
    size of the previous one (dynamic re-sizing, F2FS-style).  Empty
    top levels are released by hole punching (§5.6).

    All mutation goes through the caller's undo-logging context.

    Each handle also keeps a DRAM summary of bucket occupancy: one
    byte per bucket saying "live", valid only under the handle's
    epoch, which no earlier handle used.  It is advice, never
    persisted, logged, fenced or MPK-protected: it must never call a
    reusable bucket live, and it may forget anything.  Slot searches
    fill it lazily; the owner keeps it up to date through
    {!note_live} and {!note_dead}, and {!punch_levels} starts a fresh
    epoch. *)

type t

val make : Machine.t -> meta_base:int -> base_buckets:int -> numa:int -> t
(** Volatile handle over a formatted sub-heap's metadata region, with
    an empty summary (a fresh epoch) in a DRAM region on NUMA node
    [numa]. *)

(** {2 Geometry} *)

val levels : t -> int
val level_buckets : t -> int -> int
val level_live : t -> int -> int
val bucket_addr : t -> level:int -> idx:int -> int

val level_of_rec : t -> int -> int
(** Level containing the record at this address. *)

val window : t -> level:int -> off:int -> int list
(** Bucket addresses of the probe window for this offset at [level],
    in probe order. *)

(** {2 Lookup and insertion} *)

val lookup : t -> int -> int option
(** Record address of the live (free or allocated) block with exactly
    this offset. *)

val hint_valid : t -> off:int -> int -> bool
(** [hint_valid t ~off rec_addr]: [rec_addr] is a bucket of a current
    level holding the live record of offset [off] — i.e. exactly what
    {!lookup} would return, checked with one record read and no probe.
    False for any stale, misaligned, out-of-table or forged address. *)

val find_insert_slot : t -> int -> (int * int) option
(** First reusable slot (empty or tombstone) in any level's probe
    window for this offset, as [(level, record address)]: the slot a
    probe of every window would find.  Levels whose live counter
    equals their bucket count hold no such slot and are skipped
    unread; in the other levels, buckets the summary knows live are
    skipped unread, and every other bucket costs one NVMM status read
    (counted in {!slot_reads}), a live one being noted in the
    summary.  The search changes no persistent state and reserves
    nothing: an inserter calls {!note_live} on the slot it takes. *)

val note_live : t -> int -> unit
(** [note_live t rec_addr]: the bucket now holds a live record (or one
    about to be written, as in a batched insert): later searches pass
    over it unread. *)

val note_dead : t -> int -> unit
(** The bucket's record was tombstoned: the summary forgets it. *)

val slot_reads : t -> int
(** NVMM bucket reads made by {!find_insert_slot} through this
    handle. *)

val full_levels : t -> int
(** Number of levels whose live counter equals their bucket count —
    every bucket holds a live record — so {!find_insert_slot} skips
    them without touching the summary or NVMM. *)

val iter_windows : t -> int -> (int -> unit) -> unit
(** Applies the function to every live record in the offset's probe
    windows across all levels (window defragmentation). *)

val live_add : t -> int -> int -> int * int
(** [live_add t level n]: the [(address, value)] write that adds [n]
    to the level's live counter, for the caller's undo-logged batch. *)

val live_decr : t -> int -> int * int

(** {2 Growth and release} *)

val extend : Persist.Pundo.ctx -> t -> bool
(** Adds one level; [false] at [Layout.max_levels]. *)

val shrink : Persist.Pundo.ctx -> t -> (int * int) option
(** Drops empty top levels; returns [(new_levels, old_levels)] so the
    caller can {!punch_levels} after committing. *)

val punch_levels : t -> from_level:int -> to_level:int -> unit
(** Hole-punches the bucket areas of levels
    [from_level .. to_level-1] (§5.6) and starts a fresh summary
    epoch. *)
