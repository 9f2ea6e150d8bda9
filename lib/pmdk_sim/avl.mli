(** Volatile AVL tree of free chunks keyed by (size, addr) — the
    DRAM-side index the PMDK allocator uses for large free blocks
    (paper §3.1, Fig. 2).

    Guarded by a single global lock in the allocator, which the paper
    identifies as a scalability bottleneck; [on_visit] lets the owner
    charge simulated DRAM latency per node touched, giving tree depth
    a cost. *)

type t

val create : ?on_visit:(unit -> unit) -> unit -> t

val count : t -> int

val insert : t -> size:int -> addr:int -> unit
(** Raises [Invalid_argument] on a duplicate (size, addr) key. *)

val remove : t -> size:int -> addr:int -> bool
(** Returns whether the key was present. *)

val find_best_fit : t -> size:int -> (int * int) option
(** Smallest (size, addr) with size ≥ the request — best fit. *)

val remove_best_fit : t -> size:int -> (int * int) option
(** {!find_best_fit} + {!remove}, atomically from the caller's view. *)

val check : t -> unit
(** Validates AVL balance and BST ordering; raises [Failure].
    Test/diagnostic use. *)
