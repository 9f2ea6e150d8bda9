(** The PMDK-like baseline allocator (paper §3, Fig. 2).

    Faithfully reproduces the design properties the paper analyses:

    - {e in-place metadata}: a 16-byte header with the allocation size
      sits immediately before every object in user-writable memory,
      and [free] trusts it — heap overwrites therefore corrupt the
      allocator (§3.2, Fig. 3);
    - 12 arenas with per-arena locks; small objects (≤ ~2 KB) come
      from 256 KiB chunks with allocation bitmaps; DRAM free-lists are
      {e rebuilt by rescanning NVMM bitmaps} when empty, serialised by
      a global rebuild lock (§3.3);
    - large objects are indexed by a {e global, lock-protected DRAM
      AVL tree} of free chunks (§3.3);
    - small frees are batched through a {e global action log} (§7.2);
    - the pool's memory is mapped by the main thread, so every region
      lives on NUMA node 0 (§7.4, N-Queens discussion);
    - crash consistency of allocator metadata via per-lane undo logs,
      and transactional allocation via per-lane tx logs.

    Optionally, [~canary:true] enables the §8 mitigation: frees whose
    in-place header magic is damaged are skipped. *)

module L = Layout

type freelist_entry = { fchunk : int; funit : int; flen : int }

type arena = {
  aid : int;
  alock : Machine.Lock.lock;
  mutable achunks : int list; (* small chunk bases, newest first *)
  freelists : freelist_entry list array; (* index = run length in units *)
}

type t = {
  mach : Machine.t;
  base : int;
  heap_id : int;
  window_size : int;
  lanes : int;
  undo_logs : Persist.Pundo.log array; (* one per lane *)
  canary : bool;
  arenas : arena array;
  avl : Avl.t;
  avl_lock : Machine.Lock.lock; (* global: AVL + chunk carving *)
  rebuild_lock : Machine.Lock.lock; (* global: free-list rebuilds *)
  action_lock : Machine.Lock.lock; (* global: batched frees *)
  index : Chunk_index.t;
  mutable stat_rebuilds : int;
  mutable stat_chunks_scanned : int;
  mutable stat_action_applies : int;
  mutable stat_skipped_corrupt_free : int;
  mutable stat_walk_damaged : bool;
}

let machine t = t.mach
let heap_id t = t.heap_id

(* ---------- small helpers ---------- *)

let header_size t = L.header_size ~lanes:t.lanes

let chunks_base t = t.base + header_size t

let lane_of () = Machine.current_cpu ()

let begin_lane_op t = Persist.Pundo.begin_op t.undo_logs.(lane_of ())

let tx_area t lane =
  { Persist.Plog.count_addr = t.base + L.lane_tx_count lane;
    entries_addr = t.base + L.lane_tx_entries lane;
    cap = L.lane_tx_cap }

let action_area t =
  { Persist.Plog.count_addr = t.base + L.hd_off_action_count;
    entries_addr = t.base + L.hd_off_action_entries;
    cap = L.action_cap }

(* charge a DRAM-resident structure traversal step *)
let dram_step t = Machine.compute t.mach (Machine.cfg t.mach).Machine.Config.dram_read_ns

(* ---------- object headers (in place, user-corruptible) ---------- *)

let write_obj_header ctx ~run_start ~size =
  Persist.Pundo.write ctx run_start size;
  Persist.Pundo.write ctx (run_start + 8) L.obj_magic

let obj_size t p = Machine.read_u64 t.mach (p + L.obj_off_size)
let obj_magic_ok t p = Machine.read_u64 t.mach (p + L.obj_off_magic) = L.obj_magic

(* ---------- bitmap of a small chunk ---------- *)

(* 32 units per 64-bit word: OCaml ints are 63-bit, so a 64-bit
   packing could never represent bit 63 (1 lsl 63 = 0) *)
let units_per_word = 32

let bitmap_word_addr chunk i =
  chunk + L.ck_off_bitmap + (i / units_per_word * 8)

let set_run ctx t chunk u n =
  let i = ref u in
  while !i < u + n do
    let word_addr = bitmap_word_addr chunk !i in
    let upto =
      min (u + n) ((!i / units_per_word * units_per_word) + units_per_word)
    in
    let v = ref (Machine.read_u64 t.mach word_addr) in
    for b = !i to upto - 1 do
      v := !v lor (1 lsl (b land (units_per_word - 1)))
    done;
    Persist.Pundo.write ctx word_addr !v;
    i := upto
  done

(* Clears run bits with plain (volatile) stores; persistence is
   deferred to the action log batch (§7.2: PMDK "batches free
   operations together ... to amortize the overhead involved in
   flushing data").  [persist] additionally write-backs each word. *)
let clear_run_volatile ?(persist = false) t chunk u n =
  let n = min n (max 0 (L.small_units - u)) in
  (* clamp: do not scribble past the chunk *)
  let i = ref u in
  while !i < u + n do
    let word_addr = bitmap_word_addr chunk !i in
    let upto =
      min (u + n) ((!i / units_per_word * units_per_word) + units_per_word)
    in
    let v = ref (Machine.read_u64 t.mach word_addr) in
    for b = !i to upto - 1 do
      v := !v land lnot (1 lsl (b land (units_per_word - 1)))
    done;
    Machine.write_u64 t.mach word_addr !v;
    if persist then Machine.clwb t.mach word_addr;
    i := upto
  done

let unit_is_set t chunk u =
  Machine.read_u64 t.mach (bitmap_word_addr chunk u)
  land (1 lsl (u land (units_per_word - 1)))
  <> 0

(* ---------- free lists (DRAM) ---------- *)

let pop_entry t arena nunits =
  let rec scan len =
    if len > L.small_max_units then None
    else begin
      dram_step t;
      match arena.freelists.(len) with
      | [] -> scan (len + 1)
      | e :: rest ->
        arena.freelists.(len) <- rest;
        if e.flen > nunits then begin
          let rem = e.flen - nunits in
          arena.freelists.(min rem L.small_max_units) <-
            { fchunk = e.fchunk; funit = e.funit + nunits; flen = rem }
            :: arena.freelists.(min rem L.small_max_units)
        end;
        Some (e.fchunk, e.funit)
    end
  in
  scan nunits

(* Rebuilds the arena's free lists by rescanning the allocation
   bitmaps of all its chunks in NVMM — the serial, global-locked
   operation the paper blames for PMDK's poor scalability (§3.3). *)
let rebuild t arena =
  Machine.Lock.with_lock t.rebuild_lock (fun () ->
   Machine.Lock.with_lock arena.alock (fun () ->
      t.stat_rebuilds <- t.stat_rebuilds + 1;
      Array.fill arena.freelists 0 (Array.length arena.freelists) [];
      List.iter
        (fun chunk ->
          t.stat_chunks_scanned <- t.stat_chunks_scanned + 1;
          (* find maximal clear runs *)
          let run_start = ref (-1) in
          let flush_run last =
            if !run_start >= 0 then begin
              let u = ref !run_start in
              let total = last - !run_start in
              let left = ref total in
              while !left > 0 do
                let len = min !left L.small_max_units in
                arena.freelists.(len) <-
                  { fchunk = chunk; funit = !u; flen = len }
                  :: arena.freelists.(len);
                u := !u + len;
                left := !left - len
              done;
              run_start := -1
            end
          in
          for u = 0 to L.small_units - 1 do
            if unit_is_set t chunk u then flush_run u
            else if !run_start < 0 then run_start := u
          done;
          flush_run L.small_units)
        arena.achunks))

(* ---------- chunk carving (global) ---------- *)

(* caller holds avl_lock.  A provisional free-chunk header is
   persisted before the bump pointer moves, so the chunk walk at
   attach time never meets an unformatted chunk (a crash right after
   the bump recovers the chunk as free). *)
let carve t need =
  let va = Machine.read_u64 t.mach (t.base + L.hd_off_next_va) in
  if va + need > t.base + t.window_size then None
  else begin
    Machine.write_u64 t.mach (va + L.ck_off_magic) L.chunk_magic;
    Machine.write_u64 t.mach (va + L.ck_off_kind) L.kind_free;
    Machine.write_u64 t.mach (va + L.ck_off_size) need;
    Machine.persist t.mach (va + L.ck_off_magic) 24;
    Machine.write_u64 t.mach (t.base + L.hd_off_next_va) (va + need);
    Machine.persist t.mach (t.base + L.hd_off_next_va) L.word;
    Some va
  end

(* caller holds avl_lock; returns a raw chunk of exactly [need] bytes
   (splitting a larger free chunk when possible) *)
let take_chunk t ctx need =
  match Avl.remove_best_fit t.avl ~size:need with
  | Some (csize, chunk) ->
    if csize - need >= L.small_chunk_size then begin
      let rem = chunk + need in
      Persist.Pundo.write ctx (rem + L.ck_off_magic) L.chunk_magic;
      Persist.Pundo.write ctx (rem + L.ck_off_kind) L.kind_free;
      Persist.Pundo.write ctx (rem + L.ck_off_size) (csize - need);
      Avl.insert t.avl ~size:(csize - need) ~addr:rem;
      Chunk_index.resize t.index ~base:chunk ~size:need;
      Chunk_index.add t.index ~base:rem ~size:(csize - need);
      Persist.Pundo.write ctx (chunk + L.ck_off_size) need;
      Some (chunk, need)
    end
    else Some (chunk, csize)
  | None ->
    (match carve t need with
     | Some chunk ->
       Chunk_index.add t.index ~base:chunk ~size:need;
       Some (chunk, need)
     | None -> None)

(* ---------- small allocation ---------- *)

let new_small_chunk t ctx arena =
  Machine.Lock.with_lock t.avl_lock (fun () ->
      match take_chunk t ctx L.small_chunk_size with
      | None -> None
      | Some (chunk, size) ->
        assert (size = L.small_chunk_size);
        Persist.Pundo.write ctx (chunk + L.ck_off_magic) L.chunk_magic;
        Persist.Pundo.write ctx (chunk + L.ck_off_kind) L.kind_small;
        Persist.Pundo.write ctx (chunk + L.ck_off_size) size;
        Persist.Pundo.write ctx (chunk + L.ck_off_arena) arena.aid;
        (* virgin bitmap is all-clear; chunks reused from the AVL must
           be cleared explicitly *)
        for w = 0 to ((L.small_units + units_per_word - 1) / units_per_word) - 1 do
          Persist.Pundo.write ctx (chunk + L.ck_off_bitmap + (w * 8)) 0
        done;
        arena.achunks <- chunk :: arena.achunks;
        (* one big run covering the whole chunk *)
        let u = ref 0 in
        while !u < L.small_units do
          let len = min (L.small_units - !u) L.small_max_units in
          arena.freelists.(len) <-
            { fchunk = chunk; funit = !u; flen = len } :: arena.freelists.(len);
          u := !u + len
        done;
        Some chunk)

(* forward declaration: defined with the deallocation code below *)
let apply_actions_ref = ref (fun (_ : t) -> ())

let take_from_freelist t arena nunits ~size ~on_commit =
  Machine.Lock.with_lock arena.alock (fun () ->
      match pop_entry t arena nunits with
      | None -> None
      | Some (chunk, u) ->
        let ctx = begin_lane_op t in
        set_run ctx t chunk u nunits;
        let run_start = chunk + L.chunk_header_size + (u * L.unit_size) in
        write_obj_header ctx ~run_start ~size;
        let p = run_start + L.obj_header_size in
        Persist.Pundo.commit ctx ?before_truncate:(on_commit p);
        Some p)

let alloc_small t size ~on_commit =
  let nunits = L.units_for size in
  let arena = t.arenas.(Machine.current_cpu () mod L.num_arenas) in
  match take_from_freelist t arena nunits ~size ~on_commit with
  | Some p -> Some p
  | None ->
    (* flush pending batched frees so the rebuild can see them, then
       rescan this arena's bitmaps (the §3.3 serial rebuild) *)
    Machine.Lock.with_lock t.action_lock (fun () -> !apply_actions_ref t);
    rebuild t arena;
    (match take_from_freelist t arena nunits ~size ~on_commit with
     | Some p -> Some p
     | None ->
       (* grow: a fresh 256 KiB chunk for this arena *)
       let ctx = begin_lane_op t in
       let grown =
         Machine.Lock.with_lock arena.alock (fun () ->
             new_small_chunk t ctx arena)
       in
       Persist.Pundo.commit ctx;
       (match grown with
        | Some _ -> take_from_freelist t arena nunits ~size ~on_commit
        | None -> None))

(* ---------- large allocation ---------- *)

let alloc_large t size ~on_commit =
  let need = L.large_chunk_bytes size in
  (* the global lock covers only the tree/carve step; header writes
     happen outside it (a crash in between re-discovers the chunk as
     free at the next attach, so nothing is lost) *)
  let taken =
    Machine.Lock.with_lock t.avl_lock (fun () ->
        let ctx = begin_lane_op t in
        let r = take_chunk t ctx need in
        Persist.Pundo.commit ctx;
        r)
  in
  match taken with
  | None -> None
  | Some (chunk, csize) ->
    let ctx = begin_lane_op t in
    Persist.Pundo.write ctx (chunk + L.ck_off_magic) L.chunk_magic;
    Persist.Pundo.write ctx (chunk + L.ck_off_kind) L.kind_large;
    Persist.Pundo.write ctx (chunk + L.ck_off_size) csize;
    let run_start = chunk + L.chunk_header_size in
    write_obj_header ctx ~run_start ~size;
    let p = run_start + L.obj_header_size in
    Persist.Pundo.commit ctx ?before_truncate:(on_commit p);
    Some p

(* ---------- allocation entry points ---------- *)

let alloc_raw t size ~on_commit =
  if size <= 0 then None
  else if size <= L.small_max_size then alloc_small t size ~on_commit
  else alloc_large t size ~on_commit

let no_commit _p = None

let alloc t size = alloc_raw t size ~on_commit:no_commit

let tx_alloc t size ~is_end =
  let lane = lane_of () in
  let on_commit p = Some (fun () -> Persist.Plog.append t.mach (tx_area t lane) p) in
  let r = alloc_raw t size ~on_commit in
  if is_end && r <> None then Persist.Plog.truncate t.mach (tx_area t lane);
  r

(* Commit without a trailing allocation: truncating the lane's redo
   log is the commit point, exactly as the [is_end:true] path above. *)
let tx_commit t = Persist.Plog.truncate t.mach (tx_area t (lane_of ()))

(* ---------- deallocation ---------- *)

(* One batched free: clear the run's bits, trusting the in-place
   header for the length — the Fig. 3 corruption vector. *)
let clear_for t run_start ~persist =
  match Chunk_index.find t.index run_start with
  | Some e when Machine.read_u64 t.mach (e.Chunk_index.base + L.ck_off_kind)
                = L.kind_small ->
    let chunk = e.Chunk_index.base in
    let arena =
      t.arenas.(Machine.read_u64 t.mach (chunk + L.ck_off_arena)
                mod L.num_arenas)
    in
    Machine.Lock.with_lock arena.alock (fun () ->
        let size = Machine.read_u64 t.mach run_start in
        let nunits = L.units_for size in
        let u = (run_start - chunk - L.chunk_header_size) / L.unit_size in
        if u >= 0 && u < L.small_units then
          clear_run_volatile ~persist t chunk u nunits)
  | _ -> () (* damaged pointer: silently dropped, as PMDK would *)

(* Write-backs every pending free and truncates the action log.
   Caller holds the action lock.  Re-clearing already clear bits is
   idempotent, so crash replay is safe. *)
let apply_actions t =
  t.stat_action_applies <- t.stat_action_applies + 1;
  let entries = Persist.Plog.entries t.mach (action_area t) in
  List.iter (fun run_start -> clear_for t run_start ~persist:true) entries;
  Machine.sfence t.mach;
  Persist.Plog.truncate t.mach (action_area t)

let () = apply_actions_ref := apply_actions

let free_small t p =
  (* the batched-free path (§7.2): the free is visible at once
     (volatile bitmap clear) but its persistence is deferred to the
     global action log, whose lock every free must take *)
  Machine.Lock.with_lock t.action_lock (fun () ->
      let run_start = p - L.obj_header_size in
      Persist.Plog.append t.mach (action_area t) run_start;
      if Persist.Plog.is_full t.mach (action_area t) then apply_actions t
      else clear_for t run_start ~persist:false)

let free_large t p =
  let chunk = p - L.obj_header_size - L.chunk_header_size in
  (* trusts the (possibly corrupted) in-place size: freeing less than
     was allocated leaks the tail forever; freeing more creates a free
     chunk overlapping live neighbours *)
  let size = obj_size t p in
  let csize = L.large_chunk_bytes size in
  let ctx = begin_lane_op t in
  Persist.Pundo.write ctx (chunk + L.ck_off_kind) L.kind_free;
  Persist.Pundo.write ctx (chunk + L.ck_off_size) csize;
  Persist.Pundo.commit ctx;
  Machine.Lock.with_lock t.avl_lock (fun () ->
      Avl.insert t.avl ~size:csize ~addr:chunk)

let free t p =
  if t.canary && not (obj_magic_ok t p) then
    (* §8 mitigation: stop the corruption from propagating *)
    t.stat_skipped_corrupt_free <- t.stat_skipped_corrupt_free + 1
  else begin
    let size = obj_size t p in
    if size <= L.small_max_size then free_small t p else free_large t p
  end

(* ---------- heap lifecycle ---------- *)

let mk_arenas mach =
  Array.init L.num_arenas (fun aid ->
      { aid;
        alock = Machine.Lock.create mach ~name:(Printf.sprintf "arena-%d" aid) ();
        achunks = [];
        freelists = Array.make (L.small_max_units + 1) [] })

(* [undo_log] is {!Persist.Pundo.create} on a fresh pool and
   {!Persist.Pundo.attach} on a restart. *)
let mk_t mach ~base ~size ~heap_id ~canary ~undo_log =
  let avl_visit () =
    Machine.compute mach (Machine.cfg mach).Machine.Config.dram_read_ns
  in
  let lanes = (Machine.cfg mach).Machine.Config.num_cpus in
  { mach;
    base;
    heap_id;
    window_size = size;
    lanes;
    undo_logs =
      Array.init lanes (fun lane ->
          undo_log mach ~count_addr:(base + L.lane_undo_count lane)
            ~cap:L.lane_undo_cap);
    canary;
    arenas = mk_arenas mach;
    avl = Avl.create ~on_visit:avl_visit ();
    avl_lock = Machine.Lock.create mach ~name:"pmdk-avl" ();
    rebuild_lock = Machine.Lock.create mach ~name:"pmdk-rebuild" ();
    action_lock = Machine.Lock.create mach ~name:"pmdk-action" ();
    index = Chunk_index.create ();
    stat_rebuilds = 0;
    stat_chunks_scanned = 0;
    stat_action_applies = 0;
    stat_skipped_corrupt_free = 0;
    stat_walk_damaged = false }

let create mach ~base ~size ~heap_id ?(canary = false) () =
  if size < L.header_size ~lanes:(Machine.cfg mach).Machine.Config.num_cpus
            + L.small_chunk_size
  then invalid_arg "Pmdk_sim.create: window too small";
  (* The pool is created (and mapped) by the main thread: everything
     lands on NUMA node 0 — the behaviour §7.4 points out. *)
  if not (Machine.has_region mach base) then
    Machine.add_region mach ~base ~size ~kind:Nvmm.Memdev.Nvmm ~numa:0;
  let t =
    mk_t mach ~base ~size ~heap_id ~canary ~undo_log:Persist.Pundo.create
  in
  Machine.write_u64 mach (base + L.hd_off_heap_id) heap_id;
  Machine.write_u64 mach (base + L.hd_off_window_size) size;
  Machine.write_u64 mach (base + L.hd_off_root) Alloc_intf.packed_null;
  Machine.write_u64 mach (base + L.hd_off_next_va) (chunks_base t);
  Machine.persist mach base (header_size t);
  Machine.write_u64 mach (base + L.hd_off_magic) L.magic;
  Machine.persist mach (base + L.hd_off_magic) L.word;
  t

(* Rebuild volatile state and recover logs after a restart. *)
let attach mach ~base ?(canary = false) () =
  if Machine.read_u64 mach (base + L.hd_off_magic) <> L.magic then
    failwith "Pmdk_sim.attach: bad magic";
  let size = Machine.read_u64 mach (base + L.hd_off_window_size) in
  let heap_id = Machine.read_u64 mach (base + L.hd_off_heap_id) in
  let t =
    mk_t mach ~base ~size ~heap_id ~canary ~undo_log:Persist.Pundo.attach
  in
  (* undo logs first: metadata back to operation boundaries *)
  for lane = 0 to t.lanes - 1 do
    ignore
      (Persist.Pundo.recover mach ~count_addr:(base + L.lane_undo_count lane))
  done;
  (* walk the chunk chain to rebuild DRAM state *)
  let next_va = Machine.read_u64 mach (base + L.hd_off_next_va) in
  let va = ref (chunks_base t) in
  (try
     while !va < next_va do
       if Machine.read_u64 mach (!va + L.ck_off_magic) <> L.chunk_magic then begin
         (* the chain is damaged (e.g. by a corrupted-size free):
            everything beyond this point is unreachable *)
         t.stat_walk_damaged <- true;
         raise Exit
       end;
       let kind = Machine.read_u64 mach (!va + L.ck_off_kind) in
       let csize = Machine.read_u64 mach (!va + L.ck_off_size) in
       if csize <= 0 then begin
         t.stat_walk_damaged <- true;
         raise Exit
       end;
       Chunk_index.add t.index ~base:!va ~size:csize;
       if kind = L.kind_small then begin
         let aid = Machine.read_u64 mach (!va + L.ck_off_arena) mod L.num_arenas in
         t.arenas.(aid).achunks <- !va :: t.arenas.(aid).achunks
       end
       else if kind = L.kind_free then
         Avl.insert t.avl ~size:csize ~addr:!va;
       va := !va + csize
     done
   with Exit -> ());
  (* pending batched frees *)
  Machine.Lock.with_lock t.action_lock (fun () -> apply_actions t);
  (* roll back uncommitted transactional allocations *)
  for lane = 0 to t.lanes - 1 do
    List.iter (fun p -> free t p) (Persist.Plog.entries mach (tx_area t lane));
    Persist.Plog.truncate mach (tx_area t lane)
  done;
  t

let finish _t = ()

(* ---------- root & pointers ---------- *)

let get_root_packed t = Machine.read_u64 t.mach (t.base + L.hd_off_root)

let set_root_packed t packed =
  Machine.write_u64 t.mach (t.base + L.hd_off_root) packed;
  Machine.persist t.mach (t.base + L.hd_off_root) L.word

type stats = {
  rebuilds : int;
  chunks_scanned : int;
  action_applies : int;
  skipped_corrupt_free : int;
  walk_damaged : bool;
  avl_nodes : int;
}

let stats t =
  { rebuilds = t.stat_rebuilds;
    chunks_scanned = t.stat_chunks_scanned;
    action_applies = t.stat_action_applies;
    skipped_corrupt_free = t.stat_skipped_corrupt_free;
    walk_damaged = t.stat_walk_damaged;
    avl_nodes = Avl.count t.avl }
