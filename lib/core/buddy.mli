(** Per-size-class free lists ("buddy list" of paper §4.1, §5.2).

    Each sub-heap keeps [Layout.num_classes] doubly-linked lists of
    free blocks, linked through the [next_free]/[prev_free] fields of
    the blocks' hash-table records.  Heads and tails live in the
    sub-heap header; 0 is the list-end sentinel.  Frees push at the
    tail to delay reuse of just-freed memory (§5.5); allocations pop
    at the head.  All arguments named [rec_addr] are record
    addresses.

    {!push_head}, {!push_tail} and {!unlink} write nothing: each
    returns the [(address, value)] writes of the list update, all
    computed from the lists' state before it, for one
    {!Persist.Pundo.write_all} batch of the caller's.  Two updates of the
    same step whose writes depend on each other go in successive
    batches. *)

val head : Machine.t -> int -> int -> int
(** [head mach meta_base cls]. *)

val tail : Machine.t -> int -> int -> int

val push_head : Machine.t -> int -> int -> int -> (int * int) list
(** [push_head mach meta_base cls rec_addr]: the record's links, the
    old head's [prev_free] (or the tail, on an empty list) and the
    head. *)

val push_tail : Machine.t -> int -> int -> int -> (int * int) list

val unlink : Machine.t -> int -> int -> int -> (int * int) list
(** Removes the record from its class list (any position): its two
    neighbours' links (or the head and tail) and its own links. *)

val first_fit : Machine.t -> int -> int -> min_size:int -> max_steps:int -> int option
(** Walks the class list from the head for a block of at least
    [min_size] bytes, visiting at most [max_steps] nodes. *)
