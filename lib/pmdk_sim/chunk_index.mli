(** Volatile index of chunks by address — the DRAM-side lookup PMDK
    performs with address arithmetic on its uniformly-aligned zones;
    our chunks are variable-sized, so the index is a sorted array with
    binary search and a hot-path memo.  Rebuilt from NVMM by walking
    the chunk chain at attach time. *)

type entry = { base : int; mutable size : int }

type t

val create : unit -> t

val add : t -> base:int -> size:int -> unit

val find : t -> int -> entry option
(** Entry whose [base, base+size) range contains the address. *)

val resize : t -> base:int -> size:int -> unit
(** Shrinks the entry starting exactly at [base] (chunk split). *)

val count : t -> int
