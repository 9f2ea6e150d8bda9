(** Monomorphic binary min-heap of scheduled tasks.

    Tasks are ordered by (time, sequence-number) so that equal-time tasks
    run in insertion order, which keeps the discrete-event scheduler
    deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:int -> 'a -> unit

val pop : 'a t -> (int * 'a) option
(** Removes and returns the earliest task, or [None] if empty. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
