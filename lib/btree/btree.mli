(** FAST-FAIR-style persistent B+-tree over a persistent allocator
    (the YCSB substrate of paper §7.5, after Hwang et al., FAST '18).

    Nodes are 512-byte persistent objects allocated from the allocator
    under test, so every insert exercises the allocation path.  Keys
    and values are 63-bit non-negative integers; keys must be ≥ 1
    (key 0 is the internal leftmost-spine sentinel).  Values are
    commonly packed persistent pointers ({!Alloc_intf.pack}).

    Concurrency model (simulated threads): searches traverse without
    locks; writers lock the target leaf; structure modifications
    additionally take a global SMO lock.  Node updates use FAST-style
    shifting writes, written back once per cache line, and FAIR-style
    publication ordering, so a crash at any persistence point leaves a
    tree that {!attach} can reopen and {!repair} can clean.
    Lock-free readers ({!find}, cursors) read each node
    preemption-free (one consistent node state per step, the atomicity
    FAST's shifting writes give real-hardware readers by construction)
    and re-chase the leaf sibling chain before concluding absence or
    advancing, so a split racing the traversal can neither hide a
    relocated key nor make a cursor repeat or skip entries. *)

type t

type root_cell = {
  load : unit -> Alloc_intf.nvmptr;
  store : Alloc_intf.nvmptr -> unit;
}
(** Where the tree's root pointer durably lives.  {!create}/{!attach}
    use the allocator's root slot (one tree per heap); embedders with
    several trees in one heap (e.g. a sharded KV service) supply a
    persistent cell per tree via {!create_in}/{!attach_in}.  [store]
    must persist the pointer before returning. *)

val create : Alloc_intf.instance -> t
(** Allocates an empty tree and publishes its root as the allocator's
    root object. *)

val attach : Alloc_intf.instance -> t
(** Reopens the tree stored at the allocator's root pointer (restart
    path; the allocator must already be attached/recovered).  Raises
    [Invalid_argument] if the root is null. *)

val create_in : Alloc_intf.instance -> root_cell -> t
(** {!create}, but publishing the root through the given cell. *)

val attach_in : Alloc_intf.instance -> root_cell -> t
(** {!attach}, but loading the root from the given cell. *)

val insert : t -> key:int -> value:int -> unit
(** Inserts or updates (updates are in-place 8-byte atomic stores).
    Raises [Invalid_argument] on [key < 1]. *)

val find : t -> int -> int option

val delete : t -> int -> bool
(** Removes the key from its leaf (no rebalancing, as in FAST-FAIR);
    returns whether it was present. *)

val repair : t -> int -> unit
(** Crash repair of the path to a key, for recovery before it redoes
    an interrupted insert or delete of that key.  A crash inside a
    shift leaves an adjacent duplicate entry, and a crash inside a
    split's publish leaves the left node holding copies of the entries
    moved right; neither hides a key from {!find}, but a later
    {!delete} would remove one copy and free the value the other still
    names.  On every node of the path, before and after each sibling
    chase, drops adjacent duplicates and trims entries at or past the
    sibling's first key.  Idempotent. *)

val scan : t -> from_key:int -> n:int -> (int -> int -> unit) -> unit
(** In-order traversal of up to [n] entries with key ≥ [from_key],
    following the leaf sibling chain. *)

val fold_range : t -> from_key:int -> to_key:int -> init:'a -> ('a -> int -> int -> 'a) -> 'a
(** In-order fold over every entry with [from_key <= key <= to_key],
    following the leaf sibling chain; stops at the first key past
    [to_key]. *)

type cursor
(** A pull-based in-order iterator: where {!scan}/{!fold_range} drive
    one tree to completion, a cursor yields one entry per call so
    several trees (e.g. the shards of a KV store) can be merged
    key-by-key.  Reads the live tree — entries inserted behind the
    cursor's position are not revisited.  The cursor tracks its
    logical position (the lower bound of the next key), not a slot
    index, and revalidates the leaf on every step, so concurrent
    splits, inserts and deletes can neither make it yield a key twice
    nor skip a key that stays present: keys are yielded in strictly
    ascending order, and every key live for the cursor's whole
    lifetime is yielded exactly once. *)

val cursor_open : t -> from_key:int -> cursor
(** Position a cursor at the first key [>= from_key]. *)

val cursor_next : cursor -> (int * int) option
(** The entry under the cursor (advancing past it), or [None] once the
    leaf chain is exhausted. *)

val tree_depth : t -> int
val count_keys : t -> int

val check : t -> unit
(** Structural validation (sortedness, leaf-chain order); raises
    [Failure] on violation.  Test/diagnostic use. *)
