(* Per-shard CLOCK cache of (key -> latest committed digest), pure
   OCaml throughout: the service layer owns WHEN to probe/fill/kill
   (and what simulated DRAM cost to charge); this module only promises
   each call is a single atomic step under the cooperative scheduler.

   Layout per shard: a slot array of capacity [entries] plus a key ->
   slot index so probes and invalidations are O(1).  The CLOCK hand
   sweeps the array clearing reference bits; the first slot found
   unreferenced (or empty) is the victim. *)

type slot = {
  mutable s_key : int;
  mutable s_digest : int;
  mutable s_vts : int; (* commit ts of the cached value; 0 = floor *)
  mutable s_ref : bool; (* second-chance bit *)
  mutable s_used : bool;
}

type shard_cache = {
  slots : slot array;
  index : (int, int) Hashtbl.t; (* key -> slot *)
  mutable hand : int;
}

type t = {
  entries : int;
  caches : shard_cache array;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ~shards ~entries =
  if shards < 1 then invalid_arg "Rcache.create: shards must be >= 1";
  if entries < 0 then invalid_arg "Rcache.create: entries must be >= 0";
  { entries;
    caches =
      Array.init shards (fun _ ->
          { slots =
              Array.init entries (fun _ ->
                  { s_key = 0; s_digest = 0; s_vts = 0; s_ref = false;
                    s_used = false });
            index = Hashtbl.create (max 16 entries);
            hand = 0 });
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0 }

let enabled t = t.entries > 0
let entries t = t.entries

let find t ~shard ~key =
  if not (enabled t) then None
  else
    let c = t.caches.(shard) in
    match Hashtbl.find_opt c.index key with
    | Some i ->
      let s = c.slots.(i) in
      s.s_ref <- true;
      t.hits <- t.hits + 1;
      Some s.s_digest
    | None ->
      t.misses <- t.misses + 1;
      None

let find_at t ~shard ~key ~ts =
  if not (enabled t) then None
  else
    let c = t.caches.(shard) in
    match Hashtbl.find_opt c.index key with
    | Some i when c.slots.(i).s_vts <= ts ->
      let s = c.slots.(i) in
      s.s_ref <- true;
      t.hits <- t.hits + 1;
      Some s.s_digest
    | Some _ | None ->
      (* present-but-newer counts as a miss: the entry digests a
         version the snapshot must not observe *)
      t.misses <- t.misses + 1;
      None

(* CLOCK victim selection: sweep clearing reference bits; an empty or
   unreferenced slot stops the hand.  Bounded by 2 * entries (after
   one full sweep every bit is clear). *)
let victim c n =
  let rec go steps =
    let i = c.hand in
    c.hand <- (i + 1) mod n;
    let s = c.slots.(i) in
    if (not s.s_used) || not s.s_ref then i
    else begin
      s.s_ref <- false;
      if steps >= 2 * n then i else go (steps + 1)
    end
  in
  go 0

let insert t ~shard ~key ~digest ~vts =
  if enabled t then begin
    let c = t.caches.(shard) in
    match Hashtbl.find_opt c.index key with
    | Some i ->
      let s = c.slots.(i) in
      s.s_digest <- digest;
      s.s_vts <- vts;
      s.s_ref <- true
    | None ->
      let i = victim c t.entries in
      let s = c.slots.(i) in
      if s.s_used then begin
        Hashtbl.remove c.index s.s_key;
        t.evictions <- t.evictions + 1
      end;
      s.s_key <- key;
      s.s_digest <- digest;
      s.s_vts <- vts;
      s.s_ref <- true;
      s.s_used <- true;
      Hashtbl.replace c.index key i
  end

let invalidate t ~shard ~key =
  if enabled t then begin
    let c = t.caches.(shard) in
    match Hashtbl.find_opt c.index key with
    | Some i ->
      c.slots.(i).s_used <- false;
      c.slots.(i).s_ref <- false;
      Hashtbl.remove c.index key;
      t.invalidations <- t.invalidations + 1
    | None -> ()
  end

let mem t ~shard ~key = enabled t && Hashtbl.mem t.caches.(shard).index key

let cached t =
  Array.fold_left (fun acc c -> acc + Hashtbl.length c.index) 0 t.caches

let reset t =
  Array.iter
    (fun c ->
      Hashtbl.reset c.index;
      Array.iter
        (fun s ->
          s.s_used <- false;
          s.s_ref <- false)
        c.slots;
      c.hand <- 0)
    t.caches

let stats t = (t.hits, t.misses, t.evictions, t.invalidations)
