(** Per-sub-heap undo logging (paper §4.5, §5.2, §5.8): Poseidon's
    instantiation of the generic {!Persist.Pundo} log over the log
    area in the sub-heap header.  See {!Persist.Pundo} for the
    protocol (eager checksummed entries, one barrier per batch of
    first-touched words, generation-tagged entries, commit by
    truncation, idempotent reverse replay).  The sub-heap steps log
    one batch each: [Buddy]'s list operations and [Record.init]
    return their writes for the caller to join. *)

type log = Persist.Pundo.log
(** The sub-heap's log area and its DRAM generation counter. *)

type ctx = Persist.Pundo.ctx

exception Overflow

val create : Machine.t -> meta_base:int -> log
(** At format (the header's count word is zero). *)

val attach : Machine.t -> meta_base:int -> log
(** At restart. *)

val begin_op : log -> ctx

val write : ctx -> int -> int -> unit
val write_all : ctx -> (int * int) list -> unit
val mark_dirty : ctx -> int -> unit
val machine : ctx -> Machine.t

val commit : ?before_truncate:(unit -> unit) -> ctx -> unit

val recover : Machine.t -> meta_base:int -> bool
val is_empty : Machine.t -> meta_base:int -> bool
