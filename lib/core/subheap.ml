(** Per-CPU sub-heap: allocation, deallocation, splitting, merging and
    defragmentation (paper §4.1, §5.2–§5.5).

    All functions here assume the caller (the heap layer) holds the
    sub-heap lock and has granted itself write permission on the
    metadata region via MPK.  Every metadata mutation runs inside an
    undo-logged operation, so a crash at any point rolls back to a
    consistent state. *)

type t = {
  mach : Machine.t;
  heap_id : int;
  index : int; (* sub-heap id = directory slot = CPU *)
  cpu : int;
  meta_base : int;
  data_base : int;
  data_size : int;
  ht : Hashtable.t;
  undo : Persist.Pundo.log;
  lock : Machine.Lock.lock;
  mutable stat_invalid_free : int;
  mutable stat_double_free : int;
  mutable stat_merges : int;
  mutable stat_defrag_passes : int;
  mutable stat_hash_extends : int;
  mutable stat_tx_commits : int;
  mutable stat_tx_aborts : int;
  mutable stat_recovery_replays : int;
  mutable stat_hint_hits : int;
  mutable stat_hint_misses : int;
  hints : int; (* base of the DRAM record-hint table *)
  (* volatile free-slot stack of the thread-cache reclaim ledger,
     rebuilt lazily from the persistent area (all-zero after recovery) *)
  mutable tc_free_slots : int list;
  mutable tc_free_count : int; (* length of [tc_free_slots] *)
  mutable tc_slots_ready : bool;
}

let nil = Layout.nil_off

(* ---------- header accessors ---------- *)

let hdr_read mach meta_base off = Machine.read_u64 mach (meta_base + off)
let hdr_write mach meta_base off v = Machine.write_u64 mach (meta_base + off) v

(* ---------- record hints (volatile) ---------- *)

(* A DRAM table from a block's offset to the address of its record,
   one word per granule of the data region: blocks are granule-aligned
   and tile the region, so no two live blocks share an entry.  Only
   blocks carved for a magazine cache are entered, and only the
   cache's frees (stash and flush) consult it: plain frees keep the
   probe, which is cheaper than a DRAM miss on a hot index.  Each
   sub-heap's table is a simulated DRAM region of its own at its
   metadata address plus [hint_space], a quarter of its data size, so
   the tables of distinct sub-heaps never overlap and every access
   pays the machine's cache model.  An entry is only advice: a free
   validates it against the MPK-protected records
   ({!Hashtable.hint_valid}) and probes the hash table when it is
   empty, stale or corrupted, so the table needs neither crash
   consistency nor MPK protection. *)
let hint_space = 1 lsl 56

let hint_addr sh off = sh.hints + (off / Layout.min_block * Layout.word)

let add_hint_region mach ~numa ~meta_base ~data_size =
  let base = hint_space + meta_base in
  if not (Machine.has_region mach base) then
    Machine.add_region mach ~base
      ~size:(data_size / Layout.min_block * Layout.word)
      ~kind:Nvmm.Memdev.Dram ~numa;
  base

(* ---------- construction ---------- *)

let make mach ~heap_id ~index ~cpu ~meta_base ~data_base ~data_size ~base_buckets
    ~undo =
  let numa =
    let cfg = Machine.cfg mach in
    Machine.Config.cpu_numa cfg (cpu mod cfg.Machine.Config.num_cpus)
  in
  { mach;
    heap_id;
    index;
    cpu;
    meta_base;
    data_base;
    data_size;
    ht = Hashtable.make mach ~meta_base ~base_buckets ~numa;
    undo;
    lock = Machine.Lock.create mach ~name:(Printf.sprintf "subheap-%d" index) ();
    stat_invalid_free = 0;
    stat_double_free = 0;
    stat_merges = 0;
    stat_defrag_passes = 0;
    stat_hash_extends = 0;
    stat_tx_commits = 0;
    stat_tx_aborts = 0;
    stat_recovery_replays = 0;
    stat_hint_hits = 0;
    stat_hint_misses = 0;
    hints = add_hint_region mach ~numa ~meta_base ~data_size;
    tc_free_slots = [];
    tc_free_count = 0;
    tc_slots_ready = false }

let attach mach ~heap_id ~index ~meta_base =
  if hdr_read mach meta_base Layout.sh_off_magic <> Layout.sh_magic then
    failwith "Subheap.attach: bad magic";
  make mach ~heap_id ~index
    ~cpu:(hdr_read mach meta_base Layout.sh_off_cpu)
    ~meta_base
    ~data_base:(hdr_read mach meta_base Layout.sh_off_data_base)
    ~data_size:(hdr_read mach meta_base Layout.sh_off_data_size)
    ~base_buckets:(hdr_read mach meta_base Layout.sh_off_base_buckets)
    ~undo:
      (Persist.Pundo.attach mach ~count_addr:(Layout.undo_count meta_base)
         ~cap:Layout.undo_cap)

(* ---------- operations ---------- *)

let op sh f =
  let ctx = Persist.Pundo.begin_op sh.undo in
  let result = f ctx in
  Persist.Pundo.commit ctx;
  result

(* ---------- merging ---------- *)

(* Right neighbour's [prev] fix: the write that points the block at
   offset [next_off] back at [left_off]; none at the region's end. *)
let prev_fix sh ~next_off left_off =
  if next_off = nil then []
  else
    match Hashtable.lookup sh.ht next_off with
    | Some nr -> [ (Record.prev_at nr, left_off) ]
    | None -> assert false

(* Merges the free block [right_rec] into its address-adjacent free
   left neighbour [left_rec]; the right block's record is tombstoned,
   releasing its hash slot.  Three batches: the two unlinks can touch
   the same links (the blocks may be neighbours in one class list),
   and the push reads a head the second unlink may have moved. *)
let merge ctx sh ~left_rec ~right_rec =
  let mach = sh.mach in
  let lsz = Record.get_size mach left_rec in
  let rsz = Record.get_size mach right_rec in
  assert (Record.get_status mach left_rec = Layout.st_free);
  assert (Record.get_status mach right_rec = Layout.st_free);
  assert (Record.get_next mach left_rec = Record.get_offset mach right_rec);
  Persist.Pundo.write_all ctx
    (Buddy.unlink mach sh.meta_base (Layout.class_of_size lsz) left_rec);
  let rnext = Record.get_next mach right_rec in
  Persist.Pundo.write_all ctx
    (Buddy.unlink mach sh.meta_base (Layout.class_of_size rsz) right_rec
     @ [ (Record.size_at left_rec, lsz + rsz);
         (Record.next_at left_rec, rnext);
         (Record.status_at right_rec, Layout.st_tombstone);
         Hashtable.live_decr sh.ht (Hashtable.level_of_rec sh.ht right_rec) ]
     @ prev_fix sh ~next_off:rnext (Record.get_offset mach left_rec));
  Hashtable.note_dead sh.ht right_rec;
  Persist.Pundo.write_all ctx
    (Buddy.push_head mach sh.meta_base (Layout.class_of_size (lsz + rsz)) left_rec);
  sh.stat_merges <- sh.stat_merges + 1;
  Obs.Trace.emit2 Obs.Event.Merge sh.index (lsz + rsz)

(* Hash-window defragmentation (paper §5.4 case 2): free a slot in the
   probe windows of [off] by merging a free block found there into its
   free left neighbour.  Returns whether a slot was released. *)
let defrag_windows ctx sh off =
  let mach = sh.mach in
  let found = ref None in
  (try
     Hashtable.iter_windows sh.ht off (fun rec_addr ->
         if !found = None && Record.get_status mach rec_addr = Layout.st_free
         then begin
           let prev_off = Record.get_prev mach rec_addr in
           if prev_off <> nil then
             match Hashtable.lookup sh.ht prev_off with
             | Some left when Record.get_status mach left = Layout.st_free ->
               found := Some (left, rec_addr);
               raise Exit
             | _ -> ()
         end)
   with Exit -> ());
  match !found with
  | Some (left_rec, right_rec) ->
    merge ctx sh ~left_rec ~right_rec;
    true
  | None -> false

(* ---------- record insertion ---------- *)

(* Fresh records queued for one logged batch: each record's writes,
   newest first, and each record's level. *)
type queue = { recs : (int * int) list list; levels : int list }

let empty_queue = { recs = []; levels = [] }

(* The queued writes in insertion order, then one live-counter write
   per level. *)
let queued_writes sh q =
  List.concat (List.rev q.recs)
  @ List.map
      (fun level ->
        Hashtable.live_add sh.ht level
          (List.length (List.filter (( = ) level) q.levels)))
      (List.sort_uniq compare q.levels)

(* Finds a slot for a fresh record and queues its writes.  The slot is
   noted live in the summary, so the searches of the records queued
   after it pass over it.  When every window is full, logs the queue
   (defragmentation and growth need the records in place), frees a
   slot by window defragmentation or else extends the table (§5.2),
   and searches again. *)
let rec queue_record ?(attempt = 0) ctx sh q ~off ~size ~status ~prev ~next =
  match Hashtable.find_insert_slot sh.ht off with
  | Some (level, slot) ->
    Hashtable.note_live sh.ht slot;
    ( Some slot,
      { recs = Record.init ctx slot ~off ~size ~status ~prev ~next :: q.recs;
        levels = level :: q.levels } )
  | None ->
    Persist.Pundo.write_all ctx (queued_writes sh q);
    let retry attempt =
      queue_record ~attempt ctx sh empty_queue ~off ~size ~status ~prev ~next
    in
    if attempt = 0 && defrag_windows ctx sh off then retry 1
    else if attempt <= 1 && Hashtable.extend ctx sh.ht then begin
      sh.stat_hash_extends <- sh.stat_hash_extends + 1;
      Obs.Trace.emit1 Obs.Event.Hash_extend sh.index;
      retry 2
    end
    else (None, empty_queue)

(* ---------- allocation ---------- *)

(* Free block to split for [rsize] bytes: the first fit in the
   request's class, else the head of the smallest non-empty larger
   class. *)
let find_free sh rsize =
  let mach = sh.mach in
  let cls = Layout.class_of_size rsize in
  match Buddy.first_fit mach sh.meta_base cls ~min_size:rsize ~max_steps:16 with
  | Some r -> Some r
  | None ->
    let rec scan c =
      if c >= Layout.num_classes then None
      else
        let h = Buddy.head mach sh.meta_base c in
        if h <> 0 then Some h else scan (c + 1)
    in
    scan (cls + 1)

(* Splits up to [count] blocks of [rsize] bytes (already rounded to the
   granule) off the front of one free block in one pass, inside an
   operation (§5.2).  The free block's own record becomes the first
   block; each further block gets a fresh allocated record; only the
   final remainder is pushed to a class list, and the right
   neighbour's [prev] is fixed once.  When a record finds no hash
   slot, the last placed block keeps the rest of the free block, so
   its size exceeds [rsize].  Returns the blocks' offsets and record
   addresses in address order; [] when no free block fits.

   Batches: the unlink with the status and, on a split, block 0's size
   and [next]; then every fresh record with one live-counter write per
   level, the right neighbour's [prev] and the remainder's push (none
   of them reads what another writes).  A record that finds no slot
   logs the records queued before it first (see [queue_record]). *)
let alloc_run ctx sh rsize ~count =
  match find_free sh rsize with
  | None -> []
  | Some rec_addr ->
    let mach = sh.mach in
    let bsz = Record.get_size mach rec_addr in
    let off = Record.get_offset mach rec_addr in
    let stop = off + bsz in
    let next_off = Record.get_next mach rec_addr in
    let splits = bsz - rsize >= Layout.min_block in
    (* Marked allocated before any further hash work so that window
       defragmentation triggered by the split cannot merge this block
       away. *)
    Persist.Pundo.write_all ctx
      (Buddy.unlink mach sh.meta_base (Layout.class_of_size bsz) rec_addr
       @ (Record.status_at rec_addr, Layout.st_alloc)
         :: (if splits then
               [ (Record.size_at rec_addr, rsize);
                 (Record.next_at rec_addr, off + rsize) ]
             else []));
    if not splits then [ (off, rec_addr) ]
    else begin
      let n = min count (bsz / rsize) in
      (* blocks 1 .. n-1, newest first, each linked to its successor *)
      let rec place k placed q =
        let boff = off + (k * rsize) in
        if k >= n then (placed, q)
        else
          match
            queue_record ctx sh q ~off:boff ~size:rsize ~status:Layout.st_alloc
              ~prev:(boff - rsize)
              ~next:(if boff + rsize = stop then next_off else boff + rsize)
          with
          | Some r, q -> place (k + 1) ((boff, r) :: placed) q
          | None, q -> (placed, q)
      in
      let placed, q = place 1 [ (off, rec_addr) ] empty_queue in
      let last_off, last_rec = List.hd placed in
      let run_end = last_off + rsize in
      let rem_rec, q =
        if List.length placed = n && stop - run_end >= Layout.min_block then
          queue_record ctx sh q ~off:run_end ~size:(stop - run_end)
            ~status:Layout.st_free ~prev:last_off ~next:next_off
        else (None, q)
      in
      let left_of_next = if rem_rec = None then last_off else run_end in
      let rest =
        match rem_rec with
        | Some r ->
          Buddy.push_head mach sh.meta_base
            (Layout.class_of_size (stop - run_end)) r
        | None when last_off = off ->
          (* nothing placed after block 0: it keeps the whole free
             block after all *)
          [ (Record.size_at rec_addr, bsz); (Record.next_at rec_addr, next_off) ]
        | None ->
          (* no slot for the remainder or a further block: the last
             placed block keeps the rest *)
          if run_end < stop then
            [ (Record.size_at last_rec, stop - last_off);
              (Record.next_at last_rec, next_off) ]
          else []
      in
      Persist.Pundo.write_all ctx
        (queued_writes sh q
         @ (if left_of_next <> off then prev_fix sh ~next_off left_of_next
            else [])
         @ rest);
      List.rev placed
    end

(* One allocation attempt inside an operation: the one-block run. *)
let alloc_once ctx sh rsize =
  match alloc_run ctx sh rsize ~count:1 with
  | [ b ] -> Some b
  | _ -> None

(* ---------- defragmentation, case 1 (§5.4) ---------- *)

(* Merges runs of address-adjacent free blocks in the size classes at
   or below the request's class, trying to manufacture a block of
   [target] bytes.  Each merge runs as its own undo operation, keeping
   every operation's log bounded.  Returns whether anything merged. *)
let defrag_pass sh ~target =
  let mach = sh.mach in
  sh.stat_defrag_passes <- sh.stat_defrag_passes + 1;
  Obs.Trace.emit2 Obs.Event.Defrag sh.index target;
  let budget = ref 256 in
  let merged_any = ref false in
  let max_cls = min (Layout.class_of_size target) (Layout.num_classes - 1) in
  let rec walk_class cls =
    (* returns true when a merge happened (links changed: restart) *)
    let rec walk rec_addr =
      if rec_addr = 0 || !budget = 0 then false
      else begin
        let next_off = Record.get_next mach rec_addr in
        let right =
          if next_off = nil then None
          else
            match Hashtable.lookup sh.ht next_off with
            | Some nr when Record.get_status mach nr = Layout.st_free -> Some nr
            | _ -> None
        in
        match right with
        | Some right_rec ->
          op sh (fun ctx -> merge ctx sh ~left_rec:rec_addr ~right_rec);
          decr budget;
          merged_any := true;
          true
        | None -> walk (Record.get_next_free mach rec_addr)
      end
    in
    if walk (Buddy.head mach sh.meta_base cls) then walk_class cls
  in
  for cls = 0 to max_cls do
    if !budget > 0 then walk_class cls
  done;
  !merged_any

(* ---------- hole punching (§5.6) ---------- *)

let try_shrink sh =
  let shrunk =
    op sh (fun ctx -> Hashtable.shrink ctx sh.ht)
  in
  match shrunk with
  | Some (from_level, to_level) ->
    Hashtable.punch_levels sh.ht ~from_level ~to_level
  | None -> ()

(* ---------- public operations (lock and MPK held by caller) ---------- *)

(* Retries [attempt] as long as defragmentation keeps making progress:
   one pass is merge-budget-bounded (to bound each undo operation), so
   rebuilding a fully fragmented pool can take several passes. *)
let with_defrag_retries sh ~rsize attempt =
  let rec go () =
    match attempt () with
    | Some _ as r -> r
    | None -> if defrag_pass sh ~target:rsize then go () else None
  in
  go ()

let allocate sh size =
  if size <= 0 then None
  else
    let rsize = Layout.round_up size in
    if rsize > sh.data_size then None
    else
      with_defrag_retries sh ~rsize (fun () ->
          op sh (fun ctx -> Option.map fst (alloc_once ctx sh rsize)))

(** Transactional allocation: like {!allocate} but the allocated
    pointer is persisted in the micro log before the undo log of the
    operation is truncated (§5.3). *)
let allocate_tx sh size =
  if size <= 0 then None
  else
    let rsize = Layout.round_up size in
    if rsize > sh.data_size then None
    else begin
      let attempt () =
        let ctx = Persist.Pundo.begin_op sh.undo in
        match alloc_once ctx sh rsize with
        | None ->
          Persist.Pundo.commit ctx;
          None
        | Some (off, _) ->
          let ptr =
            Alloc_intf.{ heap_id = sh.heap_id; subheap = sh.index; off }
          in
          Persist.Pundo.commit ctx ~before_truncate:(fun () ->
              Persist.Plog.append sh.mach (Layout.micro_area sh.meta_base)
                (Alloc_intf.pack ptr));
          Some off
      in
      with_defrag_retries sh ~rsize attempt
    end

let commit_tx sh = Persist.Plog.truncate sh.mach (Layout.micro_area sh.meta_base)

type free_result = Freed | Invalid_free | Double_free

(** Record of the live block at [off]: the hint table's entry when it
    validates, else the hash probe.  Counts which way it went; only the
    magazine cache's frees come here. *)
let find_record sh off =
  let hint =
    if off >= 0 && off < sh.data_size && off mod Layout.min_block = 0 then
      Machine.read_u64 sh.mach (hint_addr sh off)
    else 0
  in
  if hint <> 0 && Hashtable.hint_valid sh.ht ~off hint then begin
    sh.stat_hint_hits <- sh.stat_hint_hits + 1;
    Some hint
  end
  else begin
    sh.stat_hint_misses <- sh.stat_hint_misses + 1;
    Hashtable.lookup sh.ht off
  end

(* Free body shared by the single and the batched path; [ctx] is an
   open operation of the caller, [found] the block's record. *)
let dealloc_in ctx sh found =
  match found with
  | None ->
    sh.stat_invalid_free <- sh.stat_invalid_free + 1;
    Invalid_free
  | Some rec_addr ->
    if Record.get_status sh.mach rec_addr <> Layout.st_alloc then begin
      sh.stat_double_free <- sh.stat_double_free + 1;
      Double_free
    end
    else begin
      let size = Record.get_size sh.mach rec_addr in
      Persist.Pundo.write_all ctx
        ((Record.status_at rec_addr, Layout.st_free)
         :: Buddy.push_tail sh.mach sh.meta_base (Layout.class_of_size size)
              rec_addr);
      Freed
    end

let deallocate sh off =
  (* validate before opening an operation: rejected frees must not
     pay a log truncation *)
  match Hashtable.lookup sh.ht off with
  | None ->
    sh.stat_invalid_free <- sh.stat_invalid_free + 1;
    Invalid_free
  | Some rec_addr ->
    if Record.get_status sh.mach rec_addr <> Layout.st_alloc then begin
      sh.stat_double_free <- sh.stat_double_free + 1;
      Double_free
    end
    else op sh (fun ctx -> dealloc_in ctx sh (Some rec_addr))

(** Frees a whole batch under ONE undo operation, one logged batch per
    block (each block's push reads the tail the previous one moved):
    first-touch logging amortizes the class-list head/tail entries and
    the commit across the batch, so a magazine flush costs far fewer
    fences than [n] singleton frees.
    Returns how many offsets actually freed (invalid and double frees
    are absorbed into the stats, as in {!deallocate}). *)
let deallocate_many sh offs =
  match offs with
  | [] -> 0
  | _ ->
    op sh (fun ctx ->
        List.fold_left
          (fun n off ->
            if dealloc_in ctx sh (find_record sh off) = Freed then n + 1
            else n)
          0 offs)

(* ---------- thread-cache reclaim ledger (DRAM cache support) ---------- *)

let tc_ledger_addr sh slot =
  sh.meta_base + Layout.sh_off_tc_ledger + (slot * Layout.word)

let tc_init_slots sh =
  if not sh.tc_slots_ready then begin
    let free = ref [] and count = ref 0 in
    for slot = Layout.tc_ledger_cap - 1 downto 0 do
      if Machine.read_u64 sh.mach (tc_ledger_addr sh slot) = 0 then begin
        free := slot :: !free;
        incr count
      end
    done;
    sh.tc_free_slots <- !free;
    sh.tc_free_count <- !count;
    sh.tc_slots_ready <- true
  end

let tc_slot_acquire sh =
  tc_init_slots sh;
  match sh.tc_free_slots with
  | [] -> None
  | slot :: rest ->
    sh.tc_free_slots <- rest;
    sh.tc_free_count <- sh.tc_free_count - 1;
    Some slot

let tc_slot_release sh slot =
  tc_init_slots sh;
  sh.tc_free_slots <- slot :: sh.tc_free_slots;
  sh.tc_free_count <- sh.tc_free_count + 1

(** Durably records "offset [off] must be deallocated on recovery" in
    ledger slot [slot] — the write-ahead a magazine free publishes
    BEFORE the block becomes recyclable.  One fence. *)
let tc_lease_set sh slot off =
  Machine.write_u64 sh.mach (tc_ledger_addr sh slot) (off + 1);
  Machine.persist sh.mach (tc_ledger_addr sh slot) Layout.word

(** Stages (clwb, no fence) the release of a lease; the caller batches
    several clears under one trailing [sfence]. *)
let tc_lease_clear_async sh slot =
  Machine.write_u64 sh.mach (tc_ledger_addr sh slot) 0;
  Machine.clwb sh.mach (tc_ledger_addr sh slot)

(** Carves up to [count] blocks of exactly [rsize] bytes (already
    rounded) in ONE undo operation, each with a ledger lease recorded
    under the same operation (one logged batch per run's leases) —
    commit makes the whole batch atomic:
    either every block is allocated and covered by a lease, or the
    rollback returns them all.  Each run splits as many blocks as
    still fit the magazine and the free ledger slots off one free
    block.  Stops early when the pool or the ledger runs dry (the
    caller falls back to the slow path). *)
let carve sh ~rsize ~count =
  if count <= 0 || rsize > sh.data_size then []
  else
    op sh (fun ctx ->
        tc_init_slots sh;
        let rec fill need acc rejects =
          let want = min need sh.tc_free_count in
          match if want = 0 then [] else alloc_run ctx sh rsize ~count:want with
          | [] -> (acc, rejects)
          | blocks ->
            let acc, rejects, leases =
              List.fold_left
                (fun (acc, rejects, leases) (off, rec_addr) ->
                  if Record.get_size sh.mach rec_addr <> rsize then
                    (* the last block kept the rest of its free block:
                       unusable for an exact-size bin; park it and free
                       it after the loop (freeing now would put it
                       straight back at this class's head) *)
                    (acc, rec_addr :: rejects, leases)
                  else begin
                    let slot = Option.get (tc_slot_acquire sh) in
                    (* the record of an allocated block stays put until
                       the block is freed *)
                    Machine.write_u64 sh.mach (hint_addr sh off) rec_addr;
                    ( (off, slot) :: acc,
                      rejects,
                      (tc_ledger_addr sh slot, off + 1) :: leases )
                  end)
                (acc, rejects, []) blocks
            in
            Persist.Pundo.write_all ctx leases;
            fill (need - List.length blocks) acc rejects
        in
        let acc, rejects = fill count [] [] in
        List.iter (fun r -> ignore (dealloc_in ctx sh (Some r))) rejects;
        List.rev acc)

(* ---------- formatting a fresh sub-heap ---------- *)

(** Writes a virgin sub-heap: header fields, one level of hash table,
    and a single free block covering the whole data region.  The
    caller makes creation crash-atomic by persisting the directory
    entry's "active" state only after this returns (§5.1). *)
let format mach ~heap_id ~index ~cpu ~meta_base ~data_base ~data_size ~base_buckets =
  if data_size mod Layout.min_block <> 0 then
    invalid_arg "Subheap.format: data size must be granule-aligned";
  hdr_write mach meta_base Layout.sh_off_magic Layout.sh_magic;
  hdr_write mach meta_base Layout.sh_off_cpu cpu;
  hdr_write mach meta_base Layout.sh_off_data_base data_base;
  hdr_write mach meta_base Layout.sh_off_data_size data_size;
  hdr_write mach meta_base Layout.sh_off_undo_count 0;
  hdr_write mach meta_base Layout.sh_off_micro_count 0;
  hdr_write mach meta_base Layout.sh_off_hash_levels 1;
  hdr_write mach meta_base Layout.sh_off_base_buckets base_buckets;
  for slot = 0 to Layout.tc_ledger_cap - 1 do
    hdr_write mach meta_base (Layout.sh_off_tc_ledger + (slot * Layout.word)) 0
  done;
  Machine.persist mach meta_base Layout.sh_header_size;
  let sh =
    make mach ~heap_id ~index ~cpu ~meta_base ~data_base ~data_size ~base_buckets
      ~undo:
        (Persist.Pundo.create mach ~count_addr:(Layout.undo_count meta_base)
           ~cap:Layout.undo_cap)
  in
  op sh (fun ctx ->
      match
        queue_record ctx sh empty_queue ~off:0 ~size:data_size
          ~status:Layout.st_free ~prev:nil ~next:nil
      with
      | Some rec_addr, q ->
        Persist.Pundo.write_all ctx
          (queued_writes sh q
           @ Buddy.push_head mach sh.meta_base (Layout.class_of_size data_size)
               rec_addr)
      | None, _ -> assert false);
  sh

(* ---------- recovery (§5.8) ---------- *)

(* Replays the undo log, then rolls back the uncommitted transaction
   recorded in the micro log.  Idempotent. *)
let recover sh =
  let undo_replayed =
    Persist.Pundo.recover sh.mach ~count_addr:(Layout.undo_count sh.meta_base)
  in
  let entries = Persist.Plog.entries sh.mach (Layout.micro_area sh.meta_base) in
  sh.stat_recovery_replays <-
    sh.stat_recovery_replays
    + (if undo_replayed then 1 else 0)
    + List.length entries;
  Obs.Trace.emit2 Obs.Event.Undo_replay
    (if undo_replayed then 1 else 0)
    (List.length entries);
  List.iter
    (fun packed ->
      let ptr = Alloc_intf.unpack ~heap_id:sh.heap_id packed in
      (* a rolled-back sub-allocation is already free: the double-free
         check makes replaying this idempotent *)
      ignore (deallocate sh ptr.Alloc_intf.off))
    entries;
  commit_tx sh;
  (* thread-cache reclaim ledger: every leased block died with the
     DRAM magazines — carved-ahead blocks nothing referenced yet, and
     freed blocks whose batched reclaim had not landed.  Deallocate
     them (double frees absorbed: the store's own intent replay may
     free the same offset) and release the slots. *)
  let tc_replayed = ref 0 in
  for slot = 0 to Layout.tc_ledger_cap - 1 do
    let a = tc_ledger_addr sh slot in
    let v = Machine.read_u64 sh.mach a in
    if v <> 0 then begin
      ignore (deallocate sh (v - 1));
      Machine.write_u64 sh.mach a 0;
      Machine.clwb sh.mach a;
      incr tc_replayed
    end
  done;
  if !tc_replayed > 0 then begin
    Machine.sfence sh.mach;
    sh.stat_recovery_replays <- sh.stat_recovery_replays + !tc_replayed
  end;
  sh.tc_free_slots <- [];
  sh.tc_free_count <- 0;
  sh.tc_slots_ready <- false

(* ---------- introspection & invariants (tests, reporting) ---------- *)

let iter_blocks sh f =
  let mach = sh.mach in
  let rec go off =
    if off < sh.data_size then begin
      match Hashtable.lookup sh.ht off with
      | None ->
        failwith
          (Printf.sprintf "subheap %d: no record for block at %#x" sh.index off)
      | Some rec_addr ->
        let size = Record.get_size mach rec_addr in
        f ~off ~size ~rec_addr ~status:(Record.get_status mach rec_addr);
        if size <= 0 then failwith "subheap: zero-size block";
        go (off + size)
    end
  in
  go 0

let live_bytes sh =
  let total = ref 0 in
  iter_blocks sh (fun ~off:_ ~size ~rec_addr:_ ~status ->
      if status = Layout.st_alloc then total := !total + size);
  !total

let free_bytes sh =
  let total = ref 0 in
  iter_blocks sh (fun ~off:_ ~size ~rec_addr:_ ~status ->
      if status = Layout.st_free then total := !total + size);
  !total

exception Invariant_violation of string

let fail_inv fmt = Printf.ksprintf (fun s -> raise (Invariant_violation s)) fmt

(** Full structural check; used heavily by the test suite.

    Verifies: undo log empty; the data region is exactly tiled by
    blocks with consistent prev/next adjacency links; every free block
    is in exactly the right class list; class lists are well-formed
    doubly-linked lists of free blocks; level live counters match the
    real record population. *)
let check_invariants sh =
  let mach = sh.mach in
  if not (Persist.Pundo.is_empty mach ~count_addr:(Layout.undo_count sh.meta_base))
  then
    fail_inv "subheap %d: undo log not empty at rest" sh.index;
  let free_set = Hashtbl.create 64 in
  let level_count = Array.make Layout.max_levels 0 in
  let expected_prev = ref nil in
  let covered = ref 0 in
  iter_blocks sh (fun ~off ~size ~rec_addr ~status ->
      if status <> Layout.st_free && status <> Layout.st_alloc then
        fail_inv "subheap %d: block %#x has status %d" sh.index off status;
      if size mod Layout.min_block <> 0 then
        fail_inv "subheap %d: block %#x has unaligned size %d" sh.index off size;
      let prev = Record.get_prev mach rec_addr in
      if prev <> !expected_prev then
        fail_inv "subheap %d: block %#x prev=%#x expected %#x" sh.index off prev
          !expected_prev;
      let next = Record.get_next mach rec_addr in
      let expected_next = if off + size = sh.data_size then nil else off + size in
      if next <> expected_next then
        fail_inv "subheap %d: block %#x next=%#x expected %#x" sh.index off next
          expected_next;
      if status = Layout.st_free then Hashtbl.replace free_set off rec_addr;
      let level = Hashtable.level_of_rec sh.ht rec_addr in
      level_count.(level) <- level_count.(level) + 1;
      expected_prev := off;
      covered := !covered + size);
  if !covered <> sh.data_size then
    fail_inv "subheap %d: blocks cover %d of %d bytes" sh.index !covered
      sh.data_size;
  (* class lists *)
  let listed = Hashtbl.create 64 in
  for cls = 0 to Layout.num_classes - 1 do
    let rec walk rec_addr prev_rec =
      if rec_addr <> 0 then begin
        let off = Record.get_offset mach rec_addr in
        if Record.get_status mach rec_addr <> Layout.st_free then
          fail_inv "subheap %d: class %d lists non-free block %#x" sh.index cls
            off;
        let size = Record.get_size mach rec_addr in
        if Layout.class_of_size size <> cls then
          fail_inv "subheap %d: block %#x (size %d) in wrong class %d" sh.index
            off size cls;
        if Record.get_prev_free mach rec_addr <> prev_rec then
          fail_inv "subheap %d: class %d broken prev_free at %#x" sh.index cls
            off;
        if not (Hashtbl.mem free_set off) then
          fail_inv "subheap %d: class %d lists unknown free block %#x" sh.index
            cls off;
        if Hashtbl.mem listed off then
          fail_inv "subheap %d: block %#x in two class lists" sh.index off;
        Hashtbl.replace listed off ();
        let next = Record.get_next_free mach rec_addr in
        if next = 0 && Buddy.tail mach sh.meta_base cls <> rec_addr then
          fail_inv "subheap %d: class %d tail mismatch" sh.index cls;
        walk next rec_addr
      end
      else if prev_rec = 0 && Buddy.tail mach sh.meta_base cls <> 0 then
        fail_inv "subheap %d: class %d empty head but non-zero tail" sh.index cls
    in
    walk (Buddy.head mach sh.meta_base cls) 0
  done;
  if Hashtbl.length listed <> Hashtbl.length free_set then
    fail_inv "subheap %d: %d free blocks but %d listed" sh.index
      (Hashtbl.length free_set) (Hashtbl.length listed);
  (* level live counters *)
  let nlevels = Hashtable.levels sh.ht in
  for level = 0 to nlevels - 1 do
    let stored = Hashtable.level_live sh.ht level in
    if stored <> level_count.(level) then
      fail_inv "subheap %d: level %d live=%d but %d records found" sh.index
        level stored level_count.(level)
  done;
  for level = nlevels to Layout.max_levels - 1 do
    if level_count.(level) <> 0 then
      fail_inv "subheap %d: records beyond level count" sh.index
  done
