(** Memblock-information records (paper Fig. 4).

    One 64-byte record per memory block, stored inline in the hash
    table buckets of the sub-heap metadata region: offset, size,
    status, address-adjacency links (for merging) and class-list links
    (for the buddy lists).  Reads go straight to the machine; writes
    are [(field address, value)] pairs of an undo-logged batch
    ({!Persist.Pundo.write_all}). *)

val get_offset : Machine.t -> int -> int
val get_size : Machine.t -> int -> int
val get_status : Machine.t -> int -> int
val get_prev : Machine.t -> int -> int
(** Offset of the address-adjacent left block ([Layout.nil_off] at the
    start of the data region). *)

val get_next : Machine.t -> int -> int
val get_next_free : Machine.t -> int -> int
(** Record address of the next block in the class list (0 = end). *)

val get_prev_free : Machine.t -> int -> int

(** {2 Field addresses} *)

val size_at : int -> int
(** [size_at rec_addr]: address of the record's size word. *)

val status_at : int -> int
val prev_at : int -> int
val next_at : int -> int
val next_free_at : int -> int
val prev_free_at : int -> int

val is_live : Machine.t -> int -> bool
(** Status is free or allocated (not empty/tombstone). *)

val init :
  Persist.Pundo.ctx ->
  int ->
  off:int ->
  size:int ->
  status:int ->
  prev:int ->
  next:int ->
  (int * int) list
(** Initialises a fresh record in an empty or tombstone slot and
    returns the writes the caller must log, status last.  For a
    previously-empty slot that is the status word alone (rolling it
    back kills the record): the other fields are stored at once,
    unlogged.  A tombstone slot — possibly tombstoned earlier in the
    same operation — gets every field in the list, so a rollback
    cannot resurrect a hybrid. *)
