(** The Poseidon heap: public operations, per-CPU sub-heap management,
    MPK protection windows, locking and recovery (paper §4, §5).

    Thread model: simulated threads are pinned to CPUs; each CPU maps
    to one sub-heap directory slot.  Allocations always go to the
    calling CPU's sub-heap (NUMA-local); frees go to the owning
    sub-heap of the pointer, wherever the caller runs (§5.7).

    MPK discipline (§4.3): the metadata region of every sub-heap and
    the superblock carry the heap's protection key, read-only by
    default for every thread.  Each allocator operation grants the
    executing thread write permission on entry and revokes it on exit;
    a store into metadata from anywhere else faults. *)

type t = {
  mach : Machine.t;
  base : int;
  heap_id : int;
  num_slots : int;
  window_size : int;
  sub_data_size : int;
  base_buckets : int;
  mutable pkey : int;
  mutable cap : Mpk.capability option;
      (* capability for the sealed-wrpkru mode (paper 8 lockdown) *)
  subheaps : Subheap.t option array;
  sb_lock : Machine.Lock.lock;
  protect : bool;
  single : bool; (* ablation A2: one sub-heap shared by every CPU *)
}

let machine h = h.mach
let heap_id h = h.heap_id
let pkey h = h.pkey

let default_sub_data_size = 64 * 1024 * 1024
let default_base_buckets = 1024

(* ---------- MPK windows ---------- *)

let with_metadata_access h f =
  if h.protect then begin
    Machine.wrpkru ?cap:h.cap h.mach h.pkey Mpk.Read_write;
    match f () with
    | r ->
      Machine.wrpkru ?cap:h.cap h.mach h.pkey Mpk.Read_only;
      r
    | exception e ->
      Machine.wrpkru ?cap:h.cap h.mach h.pkey Mpk.Read_only;
      raise e
  end
  else f ()

(* ---------- creation / attach ---------- *)

let sb_region_size num_slots = Layout.sb_size num_slots

let ensure_region h ~base ~size ~numa =
  if not (Machine.has_region h.mach base) then
    Machine.add_region h.mach ~base ~size ~kind:Nvmm.Memdev.Nvmm ~numa

(* The volatile handle over a formatted superblock, with no sub-heap
   attached yet: a fresh MPK key guarding the superblock region (when
   [protected]) and recorded in the superblock. *)
let make mach ~base ~heap_id ~num_slots ~window_size ~sub_data_size
    ~base_buckets ~protected ~single =
  let pkey =
    if protected then begin
      let k = Mpk.alloc_key (Machine.mpk mach) in
      Superblock.set_last_pkey mach ~base k;
      Mpk.assign_range (Machine.mpk mach) k ~base
        ~size:(sb_region_size num_slots);
      Mpk.set_default_perm (Machine.mpk mach) k Mpk.Read_only;
      k
    end
    else 0
  in
  { mach;
    base;
    heap_id;
    num_slots;
    window_size;
    sub_data_size;
    base_buckets;
    pkey;
    cap = None;
    subheaps = Array.make num_slots None;
    sb_lock = Machine.Lock.create mach ~name:"superblock" ();
    protect = protected;
    single }

let create mach ~base ~size ~heap_id ?(sub_data_size = default_sub_data_size)
    ?(base_buckets = default_base_buckets) ?(protected = true)
    ?(single_subheap = false) () =
  if base mod Layout.page <> 0 then invalid_arg "Heap.create: unaligned base";
  if sub_data_size mod Layout.min_block <> 0 then
    invalid_arg "Heap.create: sub_data_size must be granule-aligned";
  let num_slots = (Machine.cfg mach).Machine.Config.num_cpus in
  let sb_size = sb_region_size num_slots in
  if size < sb_size then invalid_arg "Heap.create: window too small";
  if not (Machine.has_region mach base) then
    Machine.add_region mach ~base ~size:sb_size ~kind:Nvmm.Memdev.Nvmm ~numa:0;
  Superblock.format mach ~base ~window_size:size ~heap_id ~num_slots;
  Machine.write_u64 mach (base + Layout.sb_off_sub_data_size) sub_data_size;
  Machine.write_u64 mach (base + Layout.sb_off_base_buckets) base_buckets;
  Machine.persist mach (base + Layout.sb_off_sub_data_size) (2 * Layout.word);
  make mach ~base ~heap_id ~num_slots ~window_size:size ~sub_data_size
    ~base_buckets ~protected ~single:single_subheap

let meta_region_size h =
  Layout.meta_size ~base_buckets:h.base_buckets ~levels:Layout.max_levels

(* Loading the NVM heap (§5.1): allocate a fresh MPK key, re-protect
   every metadata region, then make each sub-heap consistent by
   processing its undo and micro logs. *)
let attach mach ~base ?(protected = true) () =
  Superblock.check mach ~base;
  let heap_id = Superblock.heap_id mach ~base in
  let num_slots = Superblock.num_slots mach ~base in
  let window_size = Superblock.window_size mach ~base in
  let sub_data_size = Machine.read_u64 mach (base + Layout.sb_off_sub_data_size) in
  let base_buckets = Machine.read_u64 mach (base + Layout.sb_off_base_buckets) in
  (* the key of the previous incarnation died with the process *)
  let old_key = Superblock.last_pkey mach ~base in
  if old_key >= 1 && old_key < 16 then Mpk.free_key (Machine.mpk mach) old_key;
  let h =
    make mach ~base ~heap_id ~num_slots ~window_size ~sub_data_size
      ~base_buckets ~protected ~single:false
  in
  let meta_size = meta_region_size h in
  for slot = 0 to num_slots - 1 do
    if Superblock.slot_active mach ~base slot then begin
      let meta_base = Superblock.slot_meta_base mach ~base slot in
      let data_size = Superblock.slot_data_size mach ~base slot in
      let sh = Subheap.attach mach ~heap_id ~index:slot ~meta_base in
      ensure_region h ~base:meta_base ~size:(meta_size + data_size)
        ~numa:(Machine.Config.cpu_numa (Machine.cfg mach) sh.Subheap.cpu);
      if protected then
        Mpk.assign_range (Machine.mpk mach) h.pkey ~base:meta_base
          ~size:meta_size;
      h.subheaps.(slot) <- Some sh
    end
  done;
  (* recovery (§5.8) *)
  Obs.Trace.emit1 Obs.Event.Recovery_begin heap_id;
  with_metadata_access h (fun () ->
      Array.iter
        (function Some sh -> Subheap.recover sh | None -> ())
        h.subheaps);
  Obs.Trace.emit1 Obs.Event.Recovery_end heap_id;
  h

(** Enables the paper's 8 wrpkru-lockdown countermeasure: guards the
    heap's protection key and seals the MPK unit, so only this heap
    (holding the capability) can grant itself metadata access — a
    hijacked wrpkru elsewhere raises [Mpk.Wrpkru_denied]. *)
let lockdown h =
  if h.protect then begin
    h.cap <- Some (Mpk.guard (Machine.mpk h.mach) h.pkey);
    Mpk.seal (Machine.mpk h.mach)
  end

let finish h =
  if h.protect && h.pkey >= 1 then begin
    Mpk.free_key (Machine.mpk h.mach) h.pkey;
    Superblock.set_last_pkey h.mach ~base:h.base 0
  end

(* ---------- sub-heap lookup / creation (§4.1) ---------- *)

(* Creates the calling CPU's sub-heap, carving address space from the
   superblock's bump pointer.  Runs under the superblock lock, with
   metadata access already granted. *)
let create_subheap h slot =
  let mach = h.mach in
  let meta_size = meta_region_size h in
  let total = meta_size + h.sub_data_size in
  let va = Superblock.next_va mach ~base:h.base in
  if va + total > h.base + h.window_size then None
  else begin
    let meta_base = va in
    let data_base = va + meta_size in
    let numa = Machine.Config.cpu_numa (Machine.cfg mach) (slot mod (Machine.cfg mach).Machine.Config.num_cpus) in
    ensure_region h ~base:meta_base ~size:total ~numa;
    if h.protect then
      Mpk.assign_range (Machine.mpk mach) h.pkey ~base:meta_base ~size:meta_size;
    let sh =
      Subheap.format mach ~heap_id:h.heap_id ~index:slot ~cpu:slot
        ~meta_base ~data_base ~data_size:h.sub_data_size
        ~base_buckets:h.base_buckets
    in
    Superblock.set_next_va mach ~base:h.base (va + total);
    Superblock.publish_slot mach ~base:h.base slot ~meta_base ~data_base
      ~data_size:h.sub_data_size;
    h.subheaps.(slot) <- Some sh;
    Obs.Trace.emit2 Obs.Event.Subheap_create slot numa;
    Some sh
  end

(* Sub-heap of the calling CPU, created on first use (§4.1).  Assumes
   metadata access is granted. *)
let subheap_for h =
  let slot = if h.single then 0 else Machine.current_cpu () mod h.num_slots in
  match h.subheaps.(slot) with
  | Some sh -> Some sh
  | None ->
    Machine.Lock.with_lock h.sb_lock (fun () ->
        match h.subheaps.(slot) with
        | Some sh -> Some sh
        | None -> create_subheap h slot)

(* ---------- public API (Fig. 5) ---------- *)

let mk_ptr (h : t) sh off : Alloc_intf.nvmptr =
  { Alloc_intf.heap_id = h.heap_id; subheap = sh.Subheap.index; off }

let alloc h size =
  let r =
    with_metadata_access h (fun () ->
        match subheap_for h with
        | None -> None
        | Some sh ->
          Machine.Lock.with_lock sh.Subheap.lock (fun () ->
              Option.map (mk_ptr h sh) (Subheap.allocate sh size)))
  in
  (match r with
   | Some p -> Obs.Trace.emit2 Obs.Event.Alloc size p.Alloc_intf.subheap
   | None -> ());
  r

let tx_alloc h size ~is_end =
  let r =
    with_metadata_access h (fun () ->
        match subheap_for h with
        | None -> None
        | Some sh ->
          Machine.Lock.with_lock sh.Subheap.lock (fun () ->
              let r = Subheap.allocate_tx sh size in
              (* the last allocation's success commits the transaction
                 by truncating the micro log (§5.3) *)
              if is_end && r <> None then begin
                Subheap.commit_tx sh;
                sh.Subheap.stat_tx_commits <- sh.Subheap.stat_tx_commits + 1;
                Obs.Trace.emit1 Obs.Event.Tx_commit sh.Subheap.index
              end;
              Option.map (mk_ptr h sh) r))
  in
  (match r with
   | Some p -> Obs.Trace.emit2 Obs.Event.Tx_alloc size p.Alloc_intf.subheap
   | None -> ());
  r

(** Commits the in-flight transaction of the calling CPU's sub-heap
    explicitly (equivalent to a successful [is_end:true] allocation):
    truncates the micro log. *)
let tx_commit h =
  with_metadata_access h (fun () ->
      match subheap_for h with
      | None -> ()
      | Some sh ->
        Machine.Lock.with_lock sh.Subheap.lock (fun () ->
            Subheap.commit_tx sh;
            sh.Subheap.stat_tx_commits <- sh.Subheap.stat_tx_commits + 1;
            Obs.Trace.emit1 Obs.Event.Tx_commit sh.Subheap.index))

(** Aborts the in-flight transaction of the calling CPU's sub-heap:
    frees every address in the micro log, then truncates it. *)
let tx_abort h =
  with_metadata_access h (fun () ->
      match subheap_for h with
      | None -> ()
      | Some sh ->
        Machine.Lock.with_lock sh.Subheap.lock (fun () ->
            let entries =
              Persist.Plog.entries h.mach
                (Layout.micro_area sh.Subheap.meta_base)
            in
            List.iter
              (fun packed ->
                let p = Alloc_intf.unpack ~heap_id:h.heap_id packed in
                ignore (Subheap.deallocate sh p.Alloc_intf.off))
              entries;
            Subheap.commit_tx sh;
            sh.Subheap.stat_tx_aborts <- sh.Subheap.stat_tx_aborts + 1;
            Obs.Trace.emit2 Obs.Event.Tx_abort sh.Subheap.index
              (List.length entries)))

let free h (ptr : Alloc_intf.nvmptr) =
  let reject sh =
    match sh with
    | Some s -> s.Subheap.stat_invalid_free <- s.Subheap.stat_invalid_free + 1
    | None -> ()
  in
  if Alloc_intf.is_null ptr || ptr.heap_id <> h.heap_id
     || ptr.subheap < 0 || ptr.subheap >= h.num_slots
  then reject None
  else
    match h.subheaps.(ptr.subheap) with
    | None -> reject None
    | Some sh ->
      with_metadata_access h (fun () ->
          Machine.Lock.with_lock sh.Subheap.lock (fun () ->
              match Subheap.deallocate sh ptr.off with
              | Subheap.Freed -> Obs.Trace.emit2 Obs.Event.Free ptr.off ptr.subheap
              | Subheap.Invalid_free | Subheap.Double_free -> ()))

(* ---------- magazine-cache support (lib/tcache) ---------- *)

(* Largest block size the volatile bins hold: classes 0..7.  Values,
   tree nodes and superroots all fit; big streaming allocations keep
   the legacy path. *)
let tc_max_size = 4096

let subheap_of h (ptr : Alloc_intf.nvmptr) =
  if Alloc_intf.is_null ptr || ptr.heap_id <> h.heap_id
     || ptr.subheap < 0 || ptr.subheap >= h.num_slots
  then None
  else h.subheaps.(ptr.subheap)

(* Clear the leases of a block batch: stage every clear, commit them
   under ONE fence, and only then recycle the slots — a slot reused
   before the fence could leave the old lease as the line's surviving
   snapshot under an adversarial crash. *)
let tc_publish h blocks =
  let cleared = ref false in
  with_metadata_access h (fun () ->
      List.iter
        (fun { Alloc_intf.cb_ptr; cb_lease } ->
          match subheap_of h cb_ptr with
          | None -> ()
          | Some sh ->
            Machine.Lock.with_lock sh.Subheap.lock (fun () ->
                Subheap.tc_lease_clear_async sh cb_lease);
            cleared := true)
        blocks;
      if !cleared then Machine.sfence h.mach;
      List.iter
        (fun { Alloc_intf.cb_ptr; cb_lease } ->
          match subheap_of h cb_ptr with
          | None -> ()
          | Some sh ->
            Machine.Lock.with_lock sh.Subheap.lock (fun () ->
                Subheap.tc_slot_release sh cb_lease))
        blocks)

let tc_carve h ~size ~count =
  with_metadata_access h (fun () ->
      match subheap_for h with
      | None -> []
      | Some sh ->
        Machine.Lock.with_lock sh.Subheap.lock (fun () ->
            List.map
              (fun (off, slot) ->
                { Alloc_intf.cb_ptr = mk_ptr h sh off; cb_lease = slot })
              (Subheap.carve sh ~rsize:size ~count)))

let tc_stash h (ptr : Alloc_intf.nvmptr) =
  match subheap_of h ptr with
  | None -> None
  | Some sh ->
    with_metadata_access h (fun () ->
        Machine.Lock.with_lock sh.Subheap.lock (fun () ->
            match Subheap.find_record sh ptr.off with
            | None -> None
            | Some rec_addr ->
              if Record.get_status h.mach rec_addr <> Layout.st_alloc then
                None
              else
                let size = Record.get_size h.mach rec_addr in
                (* only exact class-sized blocks are bin-recyclable *)
                if size > tc_max_size || size <> Layout.round_up size then
                  None
                else
                  match Subheap.tc_slot_acquire sh with
                  | None -> None
                  | Some slot ->
                    Subheap.tc_lease_set sh slot ptr.off;
                    Obs.Trace.emit2 Obs.Event.Free ptr.off ptr.subheap;
                    Some (slot, size)))

let tc_reclaim h blocks =
  (* group by owning sub-heap so each batch frees under one undo op *)
  let by_sh = Hashtbl.create 4 in
  List.iter
    (fun ({ Alloc_intf.cb_ptr; _ } as b) ->
      match subheap_of h cb_ptr with
      | None -> ()
      | Some sh ->
        Hashtbl.replace by_sh sh.Subheap.index
          (b
          :: (match Hashtbl.find_opt by_sh sh.Subheap.index with
              | Some l -> l
              | None -> [])))
    blocks;
  with_metadata_access h (fun () ->
      let cleared = ref false in
      Hashtbl.iter
        (fun idx batch ->
          match h.subheaps.(idx) with
          | None -> ()
          | Some sh ->
            Machine.Lock.with_lock sh.Subheap.lock (fun () ->
                ignore
                  (Subheap.deallocate_many sh
                     (List.map
                        (fun b -> b.Alloc_intf.cb_ptr.Alloc_intf.off)
                        batch));
                List.iter
                  (fun b ->
                    Subheap.tc_lease_clear_async sh b.Alloc_intf.cb_lease)
                  batch);
            cleared := true)
        by_sh;
      if !cleared then Machine.sfence h.mach;
      Hashtbl.iter
        (fun idx batch ->
          match h.subheaps.(idx) with
          | None -> ()
          | Some sh ->
            Machine.Lock.with_lock sh.Subheap.lock (fun () ->
                List.iter
                  (fun b -> Subheap.tc_slot_release sh b.Alloc_intf.cb_lease)
                  batch))
        by_sh)

let cache_ops h =
  Some
    { Alloc_intf.cache_max_size = tc_max_size;
      cache_round = Layout.round_up;
      cache_carve = (fun ~size ~count -> tc_carve h ~size ~count);
      cache_publish = (fun blocks -> tc_publish h blocks);
      cache_stash = (fun ptr -> tc_stash h ptr);
      cache_reclaim = (fun blocks -> tc_reclaim h blocks);
      (* the cache counts its own traffic (Tcache.stats) *)
      cache_note = ignore }

let get_rawptr h (ptr : Alloc_intf.nvmptr) =
  if Alloc_intf.is_null ptr then invalid_arg "Heap.get_rawptr: null pointer";
  if ptr.heap_id <> h.heap_id || ptr.subheap < 0 || ptr.subheap >= h.num_slots
  then invalid_arg "Heap.get_rawptr: foreign pointer";
  match h.subheaps.(ptr.subheap) with
  | Some sh when ptr.off >= 0 && ptr.off < sh.Subheap.data_size ->
    sh.Subheap.data_base + ptr.off
  | _ -> invalid_arg "Heap.get_rawptr: no such sub-heap"

let get_nvmptr h raw =
  let rec scan slot =
    if slot >= h.num_slots then
      invalid_arg "Heap.get_nvmptr: address outside every sub-heap"
    else
      match h.subheaps.(slot) with
      | Some sh
        when raw >= sh.Subheap.data_base
             && raw < sh.Subheap.data_base + sh.Subheap.data_size ->
        Alloc_intf.
          { heap_id = h.heap_id;
            subheap = slot;
            off = raw - sh.Subheap.data_base }
      | _ -> scan (slot + 1)
  in
  scan 0

let get_root h =
  Alloc_intf.unpack ~heap_id:h.heap_id (Superblock.root h.mach ~base:h.base)

let set_root h ptr =
  with_metadata_access h (fun () ->
      Machine.Lock.with_lock h.sb_lock (fun () ->
          Superblock.set_root h.mach ~base:h.base (Alloc_intf.pack ptr)))

(* ---------- maintenance & introspection ---------- *)

(** Hole-punches empty top hash levels of every sub-heap (§5.6). *)
let shrink_metadata h =
  with_metadata_access h (fun () ->
      Array.iter
        (function
          | Some sh ->
            Machine.Lock.with_lock sh.Subheap.lock (fun () ->
                Subheap.try_shrink sh)
          | None -> ())
        h.subheaps)

let iter_subheaps h f =
  Array.iter (function Some sh -> f sh | None -> ()) h.subheaps

let check_invariants h =
  iter_subheaps h Subheap.check_invariants

(* ---------- oracle accessors (crash checking) ---------- *)

let base h = h.base

let data_capacity h =
  let n = ref 0 in
  iter_subheaps h (fun sh -> n := !n + sh.Subheap.data_size);
  !n

let tx_pending h =
  let n = ref 0 in
  iter_subheaps h (fun sh ->
      let micro = Layout.micro_area sh.Subheap.meta_base in
      n := !n + Persist.Plog.count h.mach micro);
  !n

let logs_quiescent h =
  let ok = ref true in
  iter_subheaps h (fun sh ->
      let undo = Layout.undo_count sh.Subheap.meta_base
      and micro = Layout.micro_area sh.Subheap.meta_base in
      if
        (not (Persist.Pundo.is_empty h.mach ~count_addr:undo))
        || not (Persist.Plog.is_empty h.mach micro)
      then ok := false);
  !ok

type stats = {
  subheaps_active : int;
  invalid_frees : int;
  double_frees : int;
  merges : int;
  defrag_passes : int;
  hash_extends : int;
  tx_commits : int;
  tx_aborts : int;
  recovery_replays : int;
  live_bytes : int;
  free_bytes : int;
  hint_hits : int;
  hint_misses : int;
  hash_slot_reads : int;
}

let stats h =
  let s =
    ref
      { subheaps_active = 0;
        invalid_frees = 0;
        double_frees = 0;
        merges = 0;
        defrag_passes = 0;
        hash_extends = 0;
        tx_commits = 0;
        tx_aborts = 0;
        recovery_replays = 0;
        live_bytes = 0;
        free_bytes = 0;
        hint_hits = 0;
        hint_misses = 0;
        hash_slot_reads = 0 }
  in
  iter_subheaps h (fun sh ->
      s :=
        { subheaps_active = !s.subheaps_active + 1;
          invalid_frees = !s.invalid_frees + sh.Subheap.stat_invalid_free;
          double_frees = !s.double_frees + sh.Subheap.stat_double_free;
          merges = !s.merges + sh.Subheap.stat_merges;
          defrag_passes = !s.defrag_passes + sh.Subheap.stat_defrag_passes;
          hash_extends = !s.hash_extends + sh.Subheap.stat_hash_extends;
          tx_commits = !s.tx_commits + sh.Subheap.stat_tx_commits;
          tx_aborts = !s.tx_aborts + sh.Subheap.stat_tx_aborts;
          recovery_replays =
            !s.recovery_replays + sh.Subheap.stat_recovery_replays;
          live_bytes = !s.live_bytes + Subheap.live_bytes sh;
          free_bytes = !s.free_bytes + Subheap.free_bytes sh;
          hint_hits = !s.hint_hits + sh.Subheap.stat_hint_hits;
          hint_misses = !s.hint_misses + sh.Subheap.stat_hint_misses;
          hash_slot_reads =
            !s.hash_slot_reads + Hashtable.slot_reads sh.Subheap.ht });
  !s

