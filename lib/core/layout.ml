(** On-NVMM layout of a Poseidon heap (paper Fig. 4).

    A heap occupies one contiguous address window:

    {v
    base ................ superblock           (1 page)
    base + 4096 ......... carving area: per-CPU sub-heaps, each
                          [metadata region][user-data region]
    v}

    The sub-heap metadata region (MPK-protected) holds, in order: the
    sub-heap header, the undo log, the micro log, the buddy-list heads
    and tails, the hash-table header, and the multi-level hash-table
    bucket areas.  The user-data region (key 0, always writable by the
    application) follows it.  All metadata words are 8-byte
    little-endian integers; all structures are 8-byte aligned. *)

let word = 8
let page = 4096
let cache_line = 64

let min_block = 32
(** Allocation granularity and minimum block size. *)

let num_classes = 40
(** Size class [i] holds free blocks with [min_block * 2^i <= size <
    min_block * 2^(i+1)]. *)

let nil_off = (1 lsl 48) - 1
(** Sentinel "no block" offset (valid offsets are < 2^48). *)

(* ---------- superblock ---------- *)

let sb_magic = 0x504F534549444FL |> Int64.to_int (* "POSEIDO" *)

let sb_off_magic = 0
let sb_off_version = 8
let sb_off_heap_id = 16
let sb_off_window_size = 24
let sb_off_num_slots = 32
let sb_off_root = 40
let sb_off_next_va = 48
let sb_off_last_pkey = 56
let sb_off_sub_data_size = 64
let sb_off_base_buckets = 72
let sb_off_dir = 80

(* sub-heap directory entry *)
let dir_entry_size = 32
let dir_off_state = 0 (* 0 = absent, 1 = active *)
let dir_off_meta_base = 8
let dir_off_data_base = 16
let dir_off_data_size = 24

let sb_size num_slots = ((sb_off_dir + (num_slots * dir_entry_size) + page - 1) / page) * page

(* ---------- sub-heap header ---------- *)

let sh_magic = 0x5355424845415021L |> Int64.to_int (* "SUBHEAP!" *)

let undo_cap = 1024 (* entries of {addr, old value, checksum} *)
let micro_cap = 1024 (* entries of packed nvmptr *)

let sh_off_magic = 0
let sh_off_cpu = 8
let sh_off_data_base = 16
let sh_off_data_size = 24
let sh_off_undo_count = 32
let sh_off_micro_count =
  sh_off_undo_count + word + (undo_cap * Persist.Pundo.entry_size)
let sh_off_micro_entries = sh_off_micro_count + word
let sh_off_buddy_heads = sh_off_micro_entries + (micro_cap * word)
let sh_off_buddy_tails = sh_off_buddy_heads + (num_classes * word)
let sh_off_hash_levels = sh_off_buddy_tails + (num_classes * word)
let sh_off_level_live = sh_off_hash_levels + word

let max_levels = 12

let sh_off_base_buckets = sh_off_level_live + (max_levels * word)

(* Thread-cache reclaim ledger (one word per slot): offset+1 of a
   block that is allocated in the metadata but owned by a volatile
   magazine cache — either carved ahead of use or freed into a bin —
   so recovery must deallocate it.  0 = slot free.  The area lives in
   the header page's existing padding, so heaps formatted before the
   cache existed attach unchanged (their ledger reads all-zero). *)
let tc_ledger_cap = 256
let sh_off_tc_ledger = sh_off_base_buckets + word

let sh_header_size =
  let last = sh_off_tc_ledger + (tc_ledger_cap * word) in
  ((last + page - 1) / page) * page

(* The sub-heap's two logs (§4.5): the undo log's count word, which
   {!Persist.Pundo} follows with its entries, and the micro log's
   area. *)
let undo_count meta_base = meta_base + sh_off_undo_count

let micro_area meta_base =
  { Persist.Plog.count_addr = meta_base + sh_off_micro_count;
    entries_addr = meta_base + sh_off_micro_entries;
    cap = micro_cap }

(* ---------- hash table ---------- *)

let probe_window = 8
(** Linear-probing window before defragmentation / level extension. *)

let record_size = 64
(** One memblock-information record per bucket (paper Fig. 4), one
    cache line each. *)

let rec_off_offset = 0    (* block offset in the data region *)
let rec_off_size = 8      (* block size in bytes *)
let rec_off_status = 16   (* see statuses below *)
let rec_off_prev = 24     (* offset of the address-adjacent left block *)
let rec_off_next = 32     (* offset of the address-adjacent right block *)
let rec_off_next_free = 40 (* record address of next block in the class list *)
let rec_off_prev_free = 48 (* record address of previous block in the class list *)

let st_empty = 0
let st_free = 1
let st_alloc = 2
let st_tombstone = 3

let level_buckets ~base_buckets level = base_buckets lsl level

(** Byte offset (from the metadata base) of hash level [l]'s bucket
    array: levels are laid out back to back, level [l] having
    [base_buckets * 2^l] buckets. *)
let level_area_off ~base_buckets level =
  sh_header_size + (record_size * base_buckets * ((1 lsl level) - 1))

let meta_size ~base_buckets ~levels =
  let sz = sh_header_size + (record_size * base_buckets * ((1 lsl levels) - 1)) in
  ((sz + page - 1) / page) * page

(* ---------- size classes ---------- *)

(** Allocation sizes are rounded to the size-class boundary (the next
    power of two at or above [min_block]) — buddy-style sizing, so a
    freed block exactly matches future requests of its class and the
    hot path never needs to split. *)
let round_up n =
  let n = max n min_block in
  let rec go p = if p >= n then p else go (2 * p) in
  go min_block

(** Class of a block of [size] bytes: floor log2(size / min_block). *)
let class_of_size size =
  if size < min_block then invalid_arg "Layout.class_of_size";
  let rec go c s = if s >= 2 * min_block && c < num_classes - 1 then go (c + 1) (s / 2) else c in
  go 0 size
