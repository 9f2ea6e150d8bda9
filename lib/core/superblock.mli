(** Heap superblock: magic, root pointer and the sub-heap directory
    (paper §4.1, §4.6).

    Superblock updates are individually crash-atomic without logging:
    the root pointer is a single aligned word, and sub-heap creation
    persists the directory entry's fields before flipping (and
    persisting) its "active" state word last.  A crash between the two
    leaks a carved virtual range at worst, never consistency. *)

val format :
  Machine.t -> base:int -> window_size:int -> heap_id:int -> num_slots:int -> unit
(** Writes a fresh superblock; persisting the magic last is the
    creation commit point. *)

val is_formatted : Machine.t -> base:int -> bool

val check : Machine.t -> base:int -> unit
(** Raises [Failure] on bad magic or unsupported version. *)

val heap_id : Machine.t -> base:int -> int
val window_size : Machine.t -> base:int -> int
val num_slots : Machine.t -> base:int -> int

val root : Machine.t -> base:int -> int
(** Packed nvmptr ({!Alloc_intf.pack}). *)

val set_root : Machine.t -> base:int -> int -> unit
(** Atomic persisted single-word store. *)

val next_va : Machine.t -> base:int -> int
(** Bump pointer for carving sub-heap regions from the window. *)

val set_next_va : Machine.t -> base:int -> int -> unit

val last_pkey : Machine.t -> base:int -> int
(** Hint: the MPK key of the previous process incarnation, freed and
    re-allocated by {!Heap.attach} (keys are runtime, not persistent,
    state). *)

val set_last_pkey : Machine.t -> base:int -> int -> unit

(** {2 Sub-heap directory} *)

val slot_active : Machine.t -> base:int -> int -> bool
val slot_meta_base : Machine.t -> base:int -> int -> int
val slot_data_size : Machine.t -> base:int -> int -> int

val publish_slot :
  Machine.t ->
  base:int ->
  int ->
  meta_base:int ->
  data_base:int ->
  data_size:int ->
  unit
(** Publishes a formatted sub-heap: fields first (persisted), state
    last (persisted) — the activation commit point (§5.1). *)
