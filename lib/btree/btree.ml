(** FAST-FAIR-style persistent B+-tree over a persistent allocator
    (the YCSB substrate of paper §7.5, after Hwang et al., FAST '18).

    Nodes are 512-byte persistent objects allocated from the
    allocator under test, so every insert exercises the allocation
    path.  Keys are sorted within a node; inserts and deletes shift
    entries with one write-back per cache line (FAST's failure-atomic
    shift: a line is fenced before the first store into the next
    one), and node splits write the new sibling completely, with one
    fence, before publishing it (FAIR-style failure atomicity).

    A split halves its node (15/16), except an append at the right
    edge of a level, which keeps 27 of 31 entries on the left: an
    ascending load leaves nodes 27 full instead of 15, at the price of
    longer shifts later in those nodes (see [split_node]).

    Concurrency: searches traverse without locks (reads of a node are
    atomic at simulated-thread granularity); writers lock the leaf,
    and structure modifications (splits) additionally take a global
    SMO lock — splits are ~1/[fanout] of inserts, so the common path
    stays leaf-local.

    Node layout (little-endian u64 words):
    {v
    0   meta: (count lsl 1) lor is_leaf
    8   sibling (packed nvmptr of the right neighbour; null at a level's end)
    16  entries: fanout x {key, value}   — value = child ptr in inner
    v}
    fanout 31 -> node size = 16 + 31*16 = 512 bytes. *)

(** Where the tree's root pointer durably lives.  The classic layout
    stores it in the allocator's root slot (one tree per heap); a
    service embedding several trees in one heap points each tree at a
    persistent cell of its own (e.g. a slot in a superroot object).
    [store] must persist the pointer before returning. *)
type root_cell = {
  load : unit -> Alloc_intf.nvmptr;
  store : Alloc_intf.nvmptr -> unit;
}

type t = {
  inst : Alloc_intf.instance;
  mach : Machine.t;
  cell : root_cell;
  hid : int; (* heap id all of this tree's pointers carry *)
  smo_lock : Machine.Lock.lock;
  leaf_locks : (int, Machine.Lock.lock) Hashtbl.t; (* node addr -> lock *)
  leaf_locks_guard : Machine.Lock.lock;
  mutable root : Alloc_intf.nvmptr;
}

let fanout = 31
let node_size = 16 + (fanout * 16)

let meta_off = 0
let sibling_off = 8
let entry_off i = 16 + (i * 16)

(* ---------- node primitives ---------- *)

let read_meta mach addr = Machine.read_u64 mach (addr + meta_off)
let count_of meta = meta lsr 1
let is_leaf_of meta = meta land 1 = 1

let meta_word ~count ~leaf = (count lsl 1) lor (if leaf then 1 else 0)

let write_meta t addr ~count ~leaf =
  Machine.write_u64 t.mach (addr + meta_off) (meta_word ~count ~leaf);
  Machine.persist t.mach (addr + meta_off) 8

let key_at mach addr i = Machine.read_u64 mach (addr + entry_off i)
let value_at mach addr i = Machine.read_u64 mach (addr + entry_off i + 8)

(* ---------- line-ordered write-back ---------- *)

(* FAST writes back per cache line, not per entry.  A writer holds at
   most one line with unfenced stores; the first store into another
   line first persists that one.  So at every fence exactly one line is
   in flight and every earlier store is durable: a crash inside a shift
   leaves one adjacent duplicate entry, never a hole or a torn order. *)
type writer = { wt : t; mutable wline : int (* line with unfenced stores; -1 = none *) }

let writer t = { wt = t; wline = -1 }

let w_flush w =
  if w.wline >= 0 then begin
    Machine.persist w.wt.mach (w.wline lsl 6) 64;
    w.wline <- -1
  end

let w_store w addr v =
  let line = addr asr 6 in
  if line <> w.wline then begin
    w_flush w;
    w.wline <- line
  end;
  Machine.write_u64 w.wt.mach addr v

let w_entry w addr i ~key ~value =
  w_store w (addr + entry_off i) key;
  w_store w (addr + entry_off i + 8) value

let w_meta w addr ~count ~leaf = w_store w (addr + meta_off) (meta_word ~count ~leaf)

(* drop entry [pos] of a node holding [count]: shift the tail left,
   lowest first, then shrink the count — the delete path, and recovery's
   removal of a duplicate a crashed shift left behind *)
let remove_at t addr ~count ~pos ~leaf =
  let w = writer t in
  for i = pos to count - 2 do
    w_entry w addr i ~key:(key_at t.mach addr (i + 1))
      ~value:(value_at t.mach addr (i + 1))
  done;
  w_meta w addr ~count:(count - 1) ~leaf;
  w_flush w

(* position of the first key >= k *)
let lower_bound mach addr count k =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if key_at mach addr mid < k then go (mid + 1) hi else go lo mid
  in
  go 0 count

(* ---------- allocation ---------- *)

let raw_of t p = Alloc_intf.i_get_rawptr t.inst p

let alloc_node t ~leaf =
  match Alloc_intf.i_alloc t.inst node_size with
  | None -> failwith "Btree: allocator out of memory"
  | Some p ->
    let addr = raw_of t p in
    Machine.write_u64 t.mach (addr + sibling_off) Alloc_intf.packed_null;
    write_meta t addr ~count:0 ~leaf;
    p

(* ---------- construction ---------- *)

let create_in inst cell =
  let mach = Alloc_intf.instance_machine inst in
  let t =
    { inst;
      mach;
      cell;
      hid = 0; (* placeholder until the root node exists *)
      smo_lock = Machine.Lock.create mach ~name:"btree-smo" ();
      leaf_locks = Hashtbl.create 1024;
      leaf_locks_guard = Machine.Lock.create mach ~name:"btree-locktab" ();
      root = Alloc_intf.null }
  in
  let root = alloc_node t ~leaf:true in
  let t = { t with hid = root.Alloc_intf.heap_id } in
  t.root <- root;
  t.cell.store root;
  t

let attach_in inst cell =
  let mach = Alloc_intf.instance_machine inst in
  let root = cell.load () in
  if Alloc_intf.is_null root then invalid_arg "Btree.attach: no tree at root";
  { inst;
    mach;
    cell;
    hid = root.Alloc_intf.heap_id;
    smo_lock = Machine.Lock.create mach ~name:"btree-smo" ();
    leaf_locks = Hashtbl.create 1024;
    leaf_locks_guard = Machine.Lock.create mach ~name:"btree-locktab" ();
    root }

(* one-tree-per-heap layout: the allocator root slot is the cell *)
let allocator_cell inst =
  { load = (fun () -> Alloc_intf.i_get_root inst);
    store = (fun p -> Alloc_intf.i_set_root inst p) }

let create inst = create_in inst (allocator_cell inst)

(** Reopens the tree stored at the allocator's root pointer (restart
    path; the allocator must already be attached/recovered). *)
let attach inst = attach_in inst (allocator_cell inst)

let node_lock t addr =
  match Hashtbl.find_opt t.leaf_locks addr with
  | Some l -> l
  | None ->
    Machine.Lock.with_lock t.leaf_locks_guard (fun () ->
        match Hashtbl.find_opt t.leaf_locks addr with
        | Some l -> l
        | None ->
          let l = Machine.Lock.create t.mach ~name:"btree-node" () in
          Hashtbl.replace t.leaf_locks addr l;
          l)

(* ---------- search ---------- *)

let ptr_of_packed t packed = Alloc_intf.unpack ~heap_id:t.hid packed

(* If [k]'s range moved to a right sibling (a split whose separator
   has not reached the parent — e.g. after a crash, or a split that
   raced a lock-free reader), follow the sibling chain (FAST-FAIR).
   Each sibling inspection runs preemption-free so the count/first-key
   pair it decides on is one consistent node state. *)
let rec chase_sibling t addr k =
  let next =
    Machine.critical t.mach (fun () ->
        let sib = Machine.read_u64 t.mach (addr + sibling_off) in
        if sib = Alloc_intf.packed_null then None
        else begin
          let right = raw_of t (ptr_of_packed t sib) in
          let rmeta = read_meta t.mach right in
          if count_of rmeta > 0 && k >= key_at t.mach right 0 then Some right
          else None
        end)
  in
  match next with
  | Some right -> chase_sibling t right k
  | None -> addr

(* descend to the leaf that should hold [k]; returns its address.
   Each routing step reads its node preemption-free: a concurrent
   inner-node insert shifting entries mid-search could otherwise route
   to a child RIGHT of [k]'s range, which the (rightward-only) sibling
   chase can never recover from. *)
let rec descend t addr k =
  let addr = chase_sibling t addr k in
  if is_leaf_of (read_meta t.mach addr) then addr
  else begin
    let child =
      Machine.critical t.mach (fun () ->
          let count = count_of (read_meta t.mach addr) in
          (* inner node: entry i covers keys in [key_i, key_{i+1});
             key_0 is the smallest key of the subtree *)
          let pos = lower_bound t.mach addr count k in
          let child_idx =
            if pos < count && key_at t.mach addr pos = k then pos
            else max 0 (pos - 1)
          in
          ptr_of_packed t (value_at t.mach addr child_idx)
      )
    in
    descend t (raw_of t child) k
  end

(* Probe one leaf for [k] preemption-free, re-chasing the sibling
   chain on a miss: a split that raced the lock-free descent relocates
   an untouched neighbor key to the right sibling AND shrinks the left
   count, so concluding absence from the stale leaf alone would deny a
   present key (the FAST-FAIR reader retry). *)
let find t k =
  let leaf = descend t (raw_of t t.root) k in
  Machine.critical t.mach (fun () ->
      let rec probe leaf =
        let count = count_of (read_meta t.mach leaf) in
        let pos = lower_bound t.mach leaf count k in
        if pos < count && key_at t.mach leaf pos = k then
          Some (value_at t.mach leaf pos)
        else begin
          let sib = Machine.read_u64 t.mach (leaf + sibling_off) in
          if sib = Alloc_intf.packed_null then None
          else begin
            let right = raw_of t (ptr_of_packed t sib) in
            let rmeta = read_meta t.mach right in
            if count_of rmeta > 0 && k >= key_at t.mach right 0 then
              probe right
            else None
          end
        end
      in
      probe leaf)

(* ---------- insertion ---------- *)

(* insert into a node known to have space; caller holds its lock (or
   the SMO lock for inner nodes).  Runs preemption-free so concurrent
   readers never observe a half-shifted node — the reader-safety FAST
   provides by construction on real hardware. *)
let insert_into t addr ~leaf ~key ~value =
  Machine.critical t.mach (fun () ->
      let meta = read_meta t.mach addr in
      let count = count_of meta in
      assert (count < fanout);
      let pos = lower_bound t.mach addr count key in
      if leaf && pos < count && key_at t.mach addr pos = key then
        (* update in place: a single 8-byte atomic store + write-back *)
        begin
          Machine.write_u64 t.mach (addr + entry_off pos + 8) value;
          Machine.persist t.mach (addr + entry_off pos + 8) 8
        end
      else begin
        (* crash-atomic insert (FAST-style), one fence per line:
           (1) duplicate the last entry into the new slot (an append
           writes its entry there instead); (2) grow the count — the
           array is sorted-with-duplicate and every committed key
           visible; (3) shift the rest right, highest first; (4)
           overwrite the duplicate at [pos] with the new entry.  A
           crash at any fence leaves at most one adjacent duplicate
           and loses no committed key. *)
        let w = writer t in
        if pos = count then w_entry w addr pos ~key ~value
        else
          w_entry w addr count
            ~key:(key_at t.mach addr (count - 1))
            ~value:(value_at t.mach addr (count - 1));
        w_meta w addr ~count:(count + 1) ~leaf;
        if pos < count then begin
          for i = count - 2 downto pos do
            w_entry w addr (i + 1) ~key:(key_at t.mach addr i)
              ~value:(value_at t.mach addr i)
          done;
          w_entry w addr pos ~key ~value
        end;
        w_flush w
      end)

(* split [addr] into itself plus [right_ptr] (pre-allocated by the
   caller: no allocation inside the critical section); returns the
   separator key.  [key] is the key whose insert forced the split.
   Caller holds the SMO lock and the node's lock.

   Where to split.  An append at the right edge — [addr] is the last
   node of its level (null sibling) and [key] sorts after its last
   entry — keeps 9/10 of the entries (27 of 31) on the left: an
   ascending load then fills each node it leaves behind to 27 instead
   of 15, and its right neighbour takes only the appends that follow.
   Every other split halves the node (15/16), as random inserts land
   anywhere.  The four free slots absorb stragglers that arrive just
   below the edge; keeping 30 saves a little more space but makes the
   next few of them split again.  The price of fuller nodes is longer
   FAST shifts: a delete or an insert in the middle of a node moves
   about twice as many lines, each with its own fence. *)
let split_node t addr ~leaf ~key ~right_ptr =
  Machine.critical t.mach (fun () ->
      let count = count_of (read_meta t.mach addr) in
      let sibling = Machine.read_u64 t.mach (addr + sibling_off) in
      let keep =
        if sibling = Alloc_intf.packed_null && key > key_at t.mach addr (count - 1)
        then count * 9 / 10
        else count / 2
      in
      let right = raw_of t right_ptr in
      (* write the complete right node — entries, sibling, count — and
         persist it with one fence: nothing points at it yet, so its
         lines need no order among themselves.  Sibling links exist at
         every level (FAST-FAIR): a reader that arrives at a node whose
         keys moved right follows the sibling, so a crash between
         sibling publication and the parent update loses nothing *)
      for i = keep to count - 1 do
        Machine.write_u64 t.mach (right + entry_off (i - keep)) (key_at t.mach addr i);
        Machine.write_u64 t.mach (right + entry_off (i - keep) + 8) (value_at t.mach addr i)
      done;
      Machine.write_u64 t.mach (right + sibling_off) sibling;
      Machine.write_u64 t.mach (right + meta_off) (meta_word ~count:(count - keep) ~leaf);
      Machine.persist t.mach right (entry_off (count - keep));
      (* publish: link the sibling, then shrink the left count — each
         an atomic 8-byte persisted store (FAIR) *)
      Machine.write_u64 t.mach (addr + sibling_off) (Alloc_intf.pack right_ptr);
      Machine.persist t.mach (addr + sibling_off) 8;
      write_meta t addr ~count:keep ~leaf;
      key_at t.mach right 0)

(* root-to-leaf path for [k], root first *)
let path_to t k =
  let rec go addr acc =
    let addr = chase_sibling t addr k in
    let meta = read_meta t.mach addr in
    let acc = addr :: acc in
    if is_leaf_of meta then List.rev acc
    else begin
      let count = count_of meta in
      let pos = lower_bound t.mach addr count k in
      let child_idx =
        if pos < count && key_at t.mach addr pos = k then pos
        else max 0 (pos - 1)
      in
      go (raw_of t (ptr_of_packed t (value_at t.mach addr child_idx))) acc
    end
  in
  go (raw_of t t.root) []

(* Splits the topmost full node on the path to [key], under the SMO
   lock.  Inner nodes are modified only under the SMO lock, so a
   top-down sweep always inserts the separator into a parent it has
   already guaranteed non-full.  One call performs one split; the
   caller loops until the leaf has room. *)
let split_one t key =
  Machine.Lock.with_lock t.smo_lock (fun () ->
      let path = path_to t key in
      let rec find_full parent = function
        | [] -> None
        | addr :: rest ->
          if count_of (read_meta t.mach addr) = fanout then Some (parent, addr)
          else find_full (Some addr) rest
      in
      match find_full None path with
      | None -> () (* raced: someone already made room *)
      | Some (parent, addr) ->
        let leaf = is_leaf_of (read_meta t.mach addr) in
        let right_ptr = alloc_node t ~leaf in
        let lock = node_lock t addr in
        let sep =
          Machine.Lock.with_lock lock (fun () ->
              split_node t addr ~leaf ~key ~right_ptr)
        in
        (match parent with
         | Some parent ->
           (* non-full by construction (topmost full node was [addr]) *)
           insert_into t parent ~leaf:false ~key:sep
             ~value:(Alloc_intf.pack right_ptr)
         | None ->
           (* the root split: grow the tree by one level.  Entry 0
              carries the sentinel key 0: nodes on the leftmost spine
              must sort below every real key (>= 1), so that a
              separator produced by splitting the leftmost child can
              never land at position 0 and orphan it. *)
           let new_root_ptr = alloc_node t ~leaf:false in
           let new_root = raw_of t new_root_ptr in
           Machine.critical t.mach (fun () ->
               let w = writer t in
               w_entry w new_root 0 ~key:0 ~value:(Alloc_intf.pack t.root);
               w_entry w new_root 1 ~key:sep ~value:(Alloc_intf.pack right_ptr);
               w_meta w new_root ~count:2 ~leaf:false;
               w_flush w);
           t.root <- new_root_ptr;
           t.cell.store new_root_ptr))

let rec insert t ~key ~value =
  if key < 1 then invalid_arg "Btree.insert: keys must be >= 1";
  let leaf = descend t (raw_of t t.root) key in
  let lock = node_lock t leaf in
  Machine.Lock.acquire lock;
  let meta = read_meta t.mach leaf in
  let count = count_of meta in
  (* revalidate: the leaf may have split between descend and lock *)
  let sibling = Machine.read_u64 t.mach (leaf + sibling_off) in
  let stale =
    sibling <> Alloc_intf.packed_null
    && count > 0
    && key >= key_at t.mach (raw_of t (ptr_of_packed t sibling)) 0
  in
  if stale then begin
    Machine.Lock.release lock;
    insert t ~key ~value
  end
  else if count = fanout then begin
    Machine.Lock.release lock;
    split_one t key;
    insert t ~key ~value
  end
  else
    Fun.protect
      ~finally:(fun () -> Machine.Lock.release lock)
      (fun () -> insert_into t leaf ~leaf:true ~key ~value)

(* ---------- deletion (leaf-local; no rebalancing, as FAST-FAIR) ---------- *)

let delete t k =
  let leaf = descend t (raw_of t t.root) k in
  let lock = node_lock t leaf in
  Machine.Lock.with_lock lock (fun () ->
      let meta = read_meta t.mach leaf in
      let count = count_of meta in
      let pos = lower_bound t.mach leaf count k in
      if pos < count && key_at t.mach leaf pos = k then begin
        Machine.critical t.mach (fun () ->
            remove_at t leaf ~count ~pos ~leaf:true);
        true
      end
      else false)

(* ---------- crash repair (recovery only) ---------- *)

(* A crash inside a FAST shift leaves one adjacent duplicate entry, and
   a crash inside a FAIR split between the sibling link and the left
   count shrink leaves the left node still holding the entries it
   copied right.  Lookups are blind to both (the duplicate is
   adjacent; the stale copies sit behind the sibling chase), but a
   later delete removes one copy and frees the value the other still
   names.  [repair t k] fixes every node on [k]'s path — each node
   before and after each sibling chase: it trims the entries at or past
   the sibling's first key, then drops adjacent duplicates.  Every step
   is a count store or a line-ordered left shift, so a crash inside the
   repair leaves a state the next repair fixes. *)
let repair_node t addr =
  let meta = read_meta t.mach addr in
  let leaf = is_leaf_of meta in
  let count = count_of meta in
  let sib = Machine.read_u64 t.mach (addr + sibling_off) in
  let count =
    if sib = Alloc_intf.packed_null then count
    else begin
      let right = raw_of t (ptr_of_packed t sib) in
      if count_of (read_meta t.mach right) = 0 then count
      else begin
        let keep = lower_bound t.mach addr count (key_at t.mach right 0) in
        if keep < count then write_meta t addr ~count:keep ~leaf;
        keep
      end
    end
  in
  let rec dedupe count i =
    if i + 1 < count then
      if key_at t.mach addr i = key_at t.mach addr (i + 1) then begin
        remove_at t addr ~count ~pos:(i + 1) ~leaf;
        dedupe (count - 1) i
      end
      else dedupe count (i + 1)
  in
  dedupe count 0

let repair t k =
  let rec visit addr =
    repair_node t addr;
    let next = chase_sibling t addr k in
    if next <> addr then visit next
    else begin
      let meta = read_meta t.mach addr in
      if not (is_leaf_of meta) then begin
        let count = count_of meta in
        let pos = lower_bound t.mach addr count k in
        let child_idx =
          if pos < count && key_at t.mach addr pos = k then pos
          else max 0 (pos - 1)
        in
        visit (raw_of t (ptr_of_packed t (value_at t.mach addr child_idx)))
      end
    end
  in
  visit (raw_of t t.root)

(* ---------- range scan ---------- *)

let scan t ~from_key ~n f =
  let leaf = ref (descend t (raw_of t t.root) from_key) in
  let remaining = ref n in
  let continue = ref true in
  while !continue && !remaining > 0 do
    let meta = read_meta t.mach !leaf in
    let count = count_of meta in
    let pos = lower_bound t.mach !leaf count from_key in
    let start = if !remaining = n then pos else 0 in
    let i = ref start in
    while !i < count && !remaining > 0 do
      f (key_at t.mach !leaf !i) (value_at t.mach !leaf !i);
      decr remaining;
      incr i
    done;
    let sib = Machine.read_u64 t.mach (!leaf + sibling_off) in
    if sib = Alloc_intf.packed_null then continue := false
    else leaf := raw_of t (ptr_of_packed t sib)
  done

let fold_range t ~from_key ~to_key ~init f =
  let acc = ref init in
  let leaf = ref (descend t (raw_of t t.root) from_key) in
  let first = ref true in
  let continue = ref true in
  while !continue do
    let meta = read_meta t.mach !leaf in
    let count = count_of meta in
    let start =
      if !first then lower_bound t.mach !leaf count from_key else 0
    in
    first := false;
    let i = ref start in
    while !continue && !i < count do
      let k = key_at t.mach !leaf !i in
      if k > to_key then continue := false
      else begin
        acc := f !acc k (value_at t.mach !leaf !i);
        incr i
      end
    done;
    if !continue then begin
      let sib = Machine.read_u64 t.mach (!leaf + sibling_off) in
      if sib = Alloc_intf.packed_null then continue := false
      else leaf := raw_of t (ptr_of_packed t sib)
    end
  done;
  !acc

(* ---------- pull-based cursor (merged multi-tree scans) ---------- *)

(* The cursor remembers WHERE it is logically ([cnext], the lower
   bound for the next key to yield) rather than a physical slot index:
   concurrent inserts/deletes shift entries within a leaf and splits
   halve it, so a cached (leaf, idx, count) triple goes stale the
   moment a writer touches the leaf — walking it would re-yield
   relocated keys or skip shifted ones.  Every step re-reads the leaf
   preemption-free and re-positions with [lower_bound cnext]; since
   committed keys only ever move RIGHT (splits), chasing the sibling
   chain from the cached leaf always reaches them. *)
type cursor = {
  ct : t;
  mutable cleaf : int; (* raw leaf addr the search resumes at; -1 = done *)
  mutable cnext : int; (* smallest key the cursor may still yield *)
}

let cursor_open t ~from_key =
  { ct = t; cleaf = descend t (raw_of t t.root) from_key; cnext = from_key }

let rec cursor_next c =
  if c.cleaf < 0 then None
  else begin
    let t = c.ct in
    let step =
      Machine.critical t.mach (fun () ->
          let leaf = chase_sibling t c.cleaf c.cnext in
          let count = count_of (read_meta t.mach leaf) in
          let pos = lower_bound t.mach leaf count c.cnext in
          if pos < count then begin
            c.cleaf <- leaf;
            let k = key_at t.mach leaf pos in
            c.cnext <- k + 1;
            Some (Some (k, value_at t.mach leaf pos))
          end
          else begin
            (* leaf exhausted (possibly emptied by deletes): move on *)
            let sib = Machine.read_u64 t.mach (leaf + sibling_off) in
            if sib = Alloc_intf.packed_null then begin
              c.cleaf <- -1;
              Some None
            end
            else begin
              c.cleaf <- raw_of t (ptr_of_packed t sib);
              None (* retry in the sibling *)
            end
          end)
    in
    match step with
    | Some r -> r
    | None -> cursor_next c
  end

(* ---------- introspection ---------- *)

let rec depth t addr =
  let meta = read_meta t.mach addr in
  if is_leaf_of meta then 1
  else 1 + depth t (raw_of t (ptr_of_packed t (value_at t.mach addr 0)))

let tree_depth t = depth t (raw_of t t.root)

let count_keys t =
  let total = ref 0 in
  (* leftmost leaf *)
  let rec leftmost addr =
    let meta = read_meta t.mach addr in
    if is_leaf_of meta then addr
    else leftmost (raw_of t (ptr_of_packed t (value_at t.mach addr 0)))
  in
  let leaf = ref (leftmost (raw_of t t.root)) in
  let continue = ref true in
  while !continue do
    let meta = read_meta t.mach !leaf in
    total := !total + count_of meta;
    let sib = Machine.read_u64 t.mach (!leaf + sibling_off) in
    if sib = Alloc_intf.packed_null then continue := false
    else leaf := raw_of t (ptr_of_packed t sib)
  done;
  !total

(** Structural check for tests: sortedness within nodes, leaf chain
    in ascending order. *)
let check t =
  let rec walk addr lo =
    let meta = read_meta t.mach addr in
    let count = count_of meta in
    let prev = ref lo in
    for i = 0 to count - 1 do
      let k = key_at t.mach addr i in
      (match !prev with
       | Some p when p > k -> failwith "Btree.check: unsorted keys"
       | _ -> ());
      prev := Some (key_at t.mach addr i);
      if not (is_leaf_of meta) then
        walk (raw_of t (ptr_of_packed t (value_at t.mach addr i))) None
    done
  in
  walk (raw_of t t.root) None
