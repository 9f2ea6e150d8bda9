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

    All mutation goes through the caller's undo-logging context. *)

type t

val make : Machine.t -> meta_base:int -> base_buckets:int -> t
(** Volatile handle over a formatted sub-heap's metadata region. *)

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
    window for this offset, as [(level, record address)].  Levels
    whose live counter equals their bucket count hold no such slot
    and are skipped unread. *)

val full_levels : t -> int
(** Number of levels whose every bucket holds a live record — the
    levels {!find_insert_slot} skips. *)

val iter_windows : t -> int -> (int -> unit) -> unit
(** Applies the function to every live record in the offset's probe
    windows across all levels (window defragmentation). *)

val live_incr : t -> int -> int * int
(** [live_incr t level]: the [(address, value)] write that bumps the
    level's live counter, for the caller's undo-logged batch. *)

val live_decr : t -> int -> int * int

(** {2 Growth and release} *)

val extend : Undolog.ctx -> t -> bool
(** Adds one level; [false] at [Layout.max_levels]. *)

val shrink : Undolog.ctx -> t -> (int * int) option
(** Drops empty top levels; returns [(new_levels, old_levels)] so the
    caller can {!punch_levels} after committing. *)

val punch_levels : t -> from_level:int -> to_level:int -> unit
(** Hole-punches the bucket areas of levels
    [from_level .. to_level-1] (§5.6). *)
