(** Per-size-class free lists ("buddy list" of paper §4.1, §5.2).

    Each sub-heap keeps [Layout.num_classes] doubly-linked lists of
    free blocks, linked through the [next_free]/[prev_free] fields of
    the blocks' hash-table records.  Heads and tails are stored in the
    sub-heap header; value [0] is the list-end sentinel (no record ever
    lives at address 0).  Frees push at the tail to delay reuse of
    just-freed memory (paper §5.5); allocations pop at the head.

    The three list operations do not write: each returns its
    [(address, value)] writes, every one computed from the lists'
    state before them, for the caller's undo-logged batch. *)

let head_addr meta_base cls = meta_base + Layout.sh_off_buddy_heads + (cls * Layout.word)
let tail_addr meta_base cls = meta_base + Layout.sh_off_buddy_tails + (cls * Layout.word)

let head mach meta_base cls = Machine.read_u64 mach (head_addr meta_base cls)
let tail mach meta_base cls = Machine.read_u64 mach (tail_addr meta_base cls)

let push_head mach meta_base cls rec_addr =
  let old = head mach meta_base cls in
  [ (Record.next_free_at rec_addr, old);
    (Record.prev_free_at rec_addr, 0);
    (if old <> 0 then (Record.prev_free_at old, rec_addr)
     else (tail_addr meta_base cls, rec_addr));
    (head_addr meta_base cls, rec_addr) ]

let push_tail mach meta_base cls rec_addr =
  let old = tail mach meta_base cls in
  [ (Record.prev_free_at rec_addr, old);
    (Record.next_free_at rec_addr, 0);
    (if old <> 0 then (Record.next_free_at old, rec_addr)
     else (head_addr meta_base cls, rec_addr));
    (tail_addr meta_base cls, rec_addr) ]

let unlink mach meta_base cls rec_addr =
  let nf = Record.get_next_free mach rec_addr in
  let pf = Record.get_prev_free mach rec_addr in
  [ (if pf = 0 then (head_addr meta_base cls, nf)
     else (Record.next_free_at pf, nf));
    (if nf = 0 then (tail_addr meta_base cls, pf)
     else (Record.prev_free_at nf, pf));
    (Record.next_free_at rec_addr, 0);
    (Record.prev_free_at rec_addr, 0) ]

(** Walks the class list from the head looking for a block of at least
    [min_size] bytes, visiting at most [max_steps] nodes. *)
let first_fit mach meta_base cls ~min_size ~max_steps =
  let rec go rec_addr steps =
    if rec_addr = 0 || steps >= max_steps then None
    else if Record.get_size mach rec_addr >= min_size then Some rec_addr
    else go (Record.get_next_free mach rec_addr) (steps + 1)
  in
  go (head mach meta_base cls) 0
