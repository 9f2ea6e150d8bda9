(** DRAM-resident magazine caches over a persistent allocator.

    The wrapper interposes volatile per-CPU, per-size-class bins
    between the application and an {!Alloc_intf.instance}: the common
    allocation path is a bin pop — no NVMM write, no lock, no fence —
    and frees stash into a local bin and flush to the allocator in
    bulk.  The persistent half of the protocol lives behind
    {!Alloc_intf.cache_ops} (Poseidon's per-sub-heap reclaim ledger):

    - {e Refill}: a bin miss carves [mag] blocks of the class size in
      ONE allocator transaction; each carved block carries a ledger
      {e lease}, so a crash leaves nothing dangling — recovery frees
      every leased block.  {!top_up} does the same from a caller's
      idle time, for bins that have missed and run low.
    - {e Publish}: a block handed to the application is not durably
      allocated until its lease is cleared (clwb + fence).  Singleton
      allocs publish before returning; transactional allocs accumulate
      on a per-CPU pending list published in one batch — one fence —
      at the [is_end]/[tx_commit] point, strictly before the embedding
      store persists its own commit record.
    - {e Stash}: a free durably records a reclaim lease (one fence, a
      write-ahead: the block may be recycled from the bin immediately,
      because crash recovery will free it if the recycled copy's new
      reference never persists) and joins the bin; overlong bins flush
      their overflow through one bulk-free transaction.

    The cache has one mode: {!wrap} rejects a magazine below one block
    and an allocator without cache support ([cache_ops = None] — the
    baselines).  The uncached path is the bare instance. *)

open Alloc_intf

(* Cached classes: 32 B .. cache_max_size, exact powers of two. *)
let max_classes = 8

let class_of_rsize rsize =
  let rec go c s = if s <= 32 then c else go (c + 1) (s / 2) in
  go 0 rsize

type bin = {
  mutable blocks : cache_block list;
  mutable depth : int;
  mutable rsize : int;
      (** the class's rounded block size, set by the bin's first miss;
          0 = never missed, so {!top_up} leaves the bin alone *)
}

type cpu_state = {
  bins : bin array;
  mutable pending : (cache_block * int) list;
      (** blocks handed out by [tx_alloc] whose leases are still set —
          published in one batch at the commit point; the [int] is the
          rounded size, so a pre-commit free (2PC abort) can return
          the block to its bin lease-intact with zero NVMM traffic *)
  mutable inner_tx_used : bool;
      (** the inner allocator's transaction was entered this tx (size
          overflow or carve failure), so commit must be forwarded *)
}

type handle = {
  inner : instance;
  ops : cache_ops;
  mag : int;
  cpus : cpu_state array;
  counts : int array;
      (* hit / miss / refill / flush / idle refill, wrapper-side *)
}

let mk_cpu () =
  { bins =
      Array.init max_classes (fun _ -> { blocks = []; depth = 0; rsize = 0 });
    pending = [];
    inner_tx_used = false }

let cpu_state h =
  let n = Array.length h.cpus in
  h.cpus.((if Simcore.Sched.in_simulation () then Machine.current_cpu () else 0)
          mod n)

(* ---------- alloc-time accounting (the Alloc detail span) ---------- *)

let timed f =
  if Simcore.Sched.in_simulation () && Obs.Span.enabled () then begin
    let t0 = Simcore.Sched.now () in
    let r = f () in
    Obs.Span.note Obs.Span.Alloc (Simcore.Sched.now () - t0);
    r
  end
  else f ()

(* ---------- bins ---------- *)

let bin_push bin b =
  bin.blocks <- b :: bin.blocks;
  bin.depth <- bin.depth + 1

let bin_pop bin =
  match bin.blocks with
  | [] -> None
  | b :: rest ->
    bin.blocks <- rest;
    bin.depth <- bin.depth - 1;
    Some b

(* Pop [n] blocks for a bulk reclaim. *)
let bin_take bin n =
  let rec go acc n =
    if n <= 0 then acc
    else match bin_pop bin with None -> acc | Some b -> go (b :: acc) (n - 1)
  in
  go [] n

let note h ev =
  let i =
    match ev with
    | Cache_hit -> 0
    | Cache_miss -> 1
    | Cache_refill -> 2
    | Cache_flush -> 3
  in
  h.counts.(i) <- h.counts.(i) + 1;
  h.ops.cache_note ev

(* Overflow policy: let a bin grow to twice the magazine, then flush
   it back down to one magazine in a single bulk-free transaction. *)
let maybe_flush h bin =
  if bin.depth > 2 * h.mag then begin
    let excess = bin_take bin (bin.depth - h.mag) in
    h.ops.cache_reclaim excess;
    note h Cache_flush
  end

(* ---------- allocation ---------- *)

(* A block of [bin]: a pop, or on a miss the first block of a fresh
   carve of one magazine, whose rest joins the bin; [None] when the
   carve fails. *)
let take h bin rsize =
  match bin_pop bin with
  | Some b ->
    note h Cache_hit;
    Some b
  | None -> (
    note h Cache_miss;
    bin.rsize <- rsize;
    match h.ops.cache_carve ~size:rsize ~count:h.mag with
    | [] -> None
    | b :: rest ->
      note h Cache_refill;
      List.iter (bin_push bin) rest;
      Some b)

let alloc h size =
  timed (fun () ->
      let rsize = h.ops.cache_round size in
      if rsize > h.ops.cache_max_size then i_alloc h.inner size
      else
        let st = cpu_state h in
        match take h st.bins.(class_of_rsize rsize) rsize with
        | Some b ->
          (* a singleton allocation is durable when it returns *)
          h.ops.cache_publish [ b ];
          Some b.cb_ptr
        | None -> i_alloc h.inner size)

(* Publish every pending lease in one batch (single fence), then
   forward the commit to the inner allocator iff its transaction was
   actually entered — an empty inner commit still costs a fence. *)
let commit_point h st =
  (match st.pending with
   | [] -> ()
   | pending ->
     h.ops.cache_publish (List.map fst pending);
     st.pending <- []);
  if st.inner_tx_used then begin
    st.inner_tx_used <- false;
    i_tx_commit h.inner
  end

let tx_alloc h size ~is_end =
  timed (fun () ->
      let st = cpu_state h in
      let rsize = h.ops.cache_round size in
      (* size overflow or carve failure: the inner allocator's own
         transaction, which a successful [is_end] call commits *)
      let inner () =
        st.inner_tx_used <- true;
        let r = i_tx_alloc h.inner size ~is_end in
        if is_end && r <> None then begin
          st.inner_tx_used <- false;
          commit_point h st
        end;
        r
      in
      if rsize > h.ops.cache_max_size then inner ()
      else
        match take h st.bins.(class_of_rsize rsize) rsize with
        | Some b ->
          st.pending <- (b, rsize) :: st.pending;
          if is_end then commit_point h st;
          Some b.cb_ptr
        | None -> inner ())

let tx_commit h = timed (fun () -> commit_point h (cpu_state h))

(* ---------- deallocation ---------- *)

let free h ptr =
  timed (fun () ->
      let st = cpu_state h in
      (* pre-commit free of a pending block (2PC abort): its lease is
         still set, so it simply returns to a bin — no NVMM op *)
      let rec split acc = function
        | [] -> None
        | ((b, _) as e) :: rest when equal_nvmptr b.cb_ptr ptr ->
          Some (e, List.rev_append acc rest)
        | e :: rest -> split (e :: acc) rest
      in
      match split [] st.pending with
      | Some ((b, rsize), rest) ->
        st.pending <- rest;
        bin_push st.bins.(class_of_rsize rsize) b
      | None -> (
        match h.ops.cache_stash ptr with
        | Some (lease, size) ->
          let bin = st.bins.(class_of_rsize size) in
          bin_push bin { cb_ptr = ptr; cb_lease = lease };
          maybe_flush h bin
        | None ->
          (* invalid/double free, uncacheable size or full ledger *)
          i_free h.inner ptr))

(* ---------- idle-time top-up ---------- *)

(* A bin is topped up when it has missed at least once and holds at
   most half a magazine: one carve of one magazine, so it ends below
   the flush threshold of twice a magazine.  Never while a
   transactional allocation is pending on this CPU: its leases publish
   at the commit point, and no carve may run inside that window. *)
let top_up h =
  let st = cpu_state h in
  if st.pending <> [] || st.inner_tx_used then 0
  else
    Array.fold_left
      (fun n bin ->
        if bin.rsize = 0 || bin.depth > h.mag / 2 then n
        else
          match h.ops.cache_carve ~size:bin.rsize ~count:h.mag with
          | [] -> n
          | blocks ->
            List.iter (bin_push bin) blocks;
            h.counts.(4) <- h.counts.(4) + 1;
            h.ops.cache_note Cache_refill;
            n + 1)
      0 st.bins

(* ---------- wrapper construction & control ---------- *)

let reset h =
  Array.iter
    (fun st ->
      let from_bins =
        Array.to_list st.bins
        |> List.concat_map (fun bin ->
               let bs = bin.blocks in
               bin.blocks <- [];
               bin.depth <- 0;
               bs)
      in
      let blocks = List.map fst st.pending @ from_bins in
      st.pending <- [];
      st.inner_tx_used <- false;
      if blocks <> [] then begin
        h.ops.cache_reclaim blocks;
        note h Cache_flush
      end)
    h.cpus

let stats h = (h.counts.(0), h.counts.(1), h.counts.(2), h.counts.(3))
let idle_refills h = h.counts.(4)

let wrap ~mag inner =
  if mag < 1 then invalid_arg "Tcache.wrap: mag < 1";
  let ops =
    match i_cache_ops inner with
    | Some ops -> ops
    | None -> invalid_arg "Tcache.wrap: the allocator has no cache support"
  in
  let num_cpus =
    (Machine.cfg (instance_machine inner)).Machine.Config.num_cpus
  in
  let h =
    { inner;
      ops;
      mag;
      cpus = Array.init (max num_cpus 1) (fun _ -> mk_cpu ());
      counts = Array.make 5 0 }
  in
  let module W = struct
    type heap = handle

    let allocator_name = "tcache"

    let create _ ~base:_ ~size:_ ~heap_id:_ =
      failwith "Tcache.create: wrap an existing instance"

    let attach _ ~base:_ = failwith "Tcache.attach: wrap an existing instance"
    let finish h = let (Instance ((module A), ih)) = h.inner in A.finish ih
    let alloc = alloc
    let tx_alloc = tx_alloc
    let tx_commit = tx_commit
    let free = free
    let get_rawptr h p = i_get_rawptr h.inner p
    let get_nvmptr h a = i_get_nvmptr h.inner a
    let get_root h = i_get_root h.inner
    let set_root h p = i_set_root h.inner p
    let machine h = instance_machine h.inner

    (* no cache surface of its own: stacking a second cache on top
       would double-lease every block *)
    let cache_ops _ = None
  end in
  (Instance ((module W : Alloc_intf.S with type heap = handle), h), h)
