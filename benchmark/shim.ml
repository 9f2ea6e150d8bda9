(** Forwarding shim over a Poseidon heap's allocator instance.

    Every call made inside the simulation is timed with the calling
    thread's simulated clock; the shim never charges time, so a
    shimmed run is bit-identical to an unshimmed one.  Calls made
    outside the simulation (heap format, store create, preload) pass
    straight through.  The first in-simulation call marks the end of
    set-up: the shim records the process CPU time there and snapshots the
    machine's cost profile, device counters and lock statistics, so
    per-layer numbers are differences over the traffic alone.

    Each entry point keeps its own samples.  The alloc class pools
    [alloc], [tx_alloc] and the magazine hooks [cache_carve] and
    [cache_publish] — the allocator work that hands out a block; the
    free class pools [free], [cache_stash] and [cache_reclaim].
    Magazine-cache events ([cache_note]) are counted inside the
    simulation only, so the cache's hit rate covers the traffic and not
    the preload. *)

module A = Alloc_intf
module Sched = Simcore.Sched

type snapshot = {
  prof : Machine.profile;
  dev : Nvmm.Memdev.counters;
  locks : (string * Machine.Lock.stats) list;
}

let snapshot mach =
  let p = Machine.profile mach and c = Nvmm.Memdev.counters (Machine.dev mach) in
  { prof = { p with Machine.p_read_hit = p.Machine.p_read_hit };
    dev = { c with Nvmm.Memdev.loads = c.Nvmm.Memdev.loads };
    locks = Machine.lock_stats mach }

type entry = Alloc | Tx_alloc | Carve | Publish | Free | Stash | Reclaim | Commit

let entries = [ Alloc; Tx_alloc; Carve; Publish; Free; Stash; Reclaim; Commit ]

let entry_name = function
  | Alloc -> "alloc"
  | Tx_alloc -> "tx_alloc"
  | Carve -> "carve"
  | Publish -> "publish"
  | Free -> "free"
  | Stash -> "stash"
  | Reclaim -> "reclaim"
  | Commit -> "commit"

let index = function
  | Alloc -> 0
  | Tx_alloc -> 1
  | Carve -> 2
  | Publish -> 3
  | Free -> 4
  | Stash -> 5
  | Reclaim -> 6
  | Commit -> 7

(** Magazine-cache events seen inside the simulation. *)
type cache_counts = {
  mutable hits : int;
  mutable misses : int;
  mutable refills : int;
  mutable flushes : int;
}

type t = {
  mach : Machine.t;
  heap : Poseidon.Heap.t;
  samples : Samples.t array; (** per entry point, in {!entries} order *)
  cache : cache_counts;
  mutable first : (float * snapshot) option;
      (** CPU time and counters at the first in-simulation call *)
}

let samples t e = t.samples.(index e)

(** Pooled samples of a class of entry points. *)
let pooled t es =
  let into = Samples.create () in
  List.iter (fun e -> Samples.merge ~into (samples t e)) es;
  into

let alloc_class = [ Alloc; Tx_alloc; Carve; Publish ]
let free_class = [ Free; Stash; Reclaim ]
let calls t = Array.fold_left (fun a s -> a + Samples.count s) 0 t.samples
let busy_ns t = Array.fold_left (fun a s -> a + Samples.total s) 0 t.samples

let mark_first t =
  if t.first = None then t.first <- Some (Sys.time (), snapshot t.mach)

let timed t e f =
  if not (Sched.in_simulation ()) then f ()
  else begin
    mark_first t;
    let t0 = Sched.now () in
    let r = f () in
    Samples.add (samples t e) (Sched.now () - t0);
    r
  end

let wrap mach heap =
  let t =
    { mach;
      heap;
      samples = Array.of_list (List.map (fun _ -> Samples.create ()) entries);
      cache = { hits = 0; misses = 0; refills = 0; flushes = 0 };
      first = None }
  in
  let module H = Poseidon.Heap in
  let ops =
    Option.map
      (fun (o : A.cache_ops) ->
        { o with
          A.cache_carve =
            (fun ~size ~count -> timed t Carve (fun () -> o.A.cache_carve ~size ~count));
          cache_publish = (fun bs -> timed t Publish (fun () -> o.A.cache_publish bs));
          cache_stash = (fun p -> timed t Stash (fun () -> o.A.cache_stash p));
          cache_reclaim = (fun bs -> timed t Reclaim (fun () -> o.A.cache_reclaim bs));
          cache_note =
            (fun ev ->
              let c = t.cache in
              if Sched.in_simulation () then begin
                match ev with
                | A.Cache_hit -> c.hits <- c.hits + 1
                | A.Cache_miss -> c.misses <- c.misses + 1
                | A.Cache_refill -> c.refills <- c.refills + 1
                | A.Cache_flush -> c.flushes <- c.flushes + 1
              end;
              o.A.cache_note ev) })
      (H.cache_ops heap)
  in
  let module M = struct
    type heap = unit

    let allocator_name = Poseidon.allocator_name
    let create _ ~base:_ ~size:_ ~heap_id:_ = invalid_arg "Shim.create"
    let attach _ ~base:_ = invalid_arg "Shim.attach"
    let finish () = H.finish heap
    let alloc () size = timed t Alloc (fun () -> H.alloc heap size)
    let tx_alloc () size ~is_end = timed t Tx_alloc (fun () -> H.tx_alloc heap size ~is_end)
    let tx_commit () = timed t Commit (fun () -> H.tx_commit heap)
    let free () p = timed t Free (fun () -> H.free heap p)
    let get_rawptr () p = H.get_rawptr heap p
    let get_nvmptr () a = H.get_nvmptr heap a
    let get_root () = H.get_root heap
    let set_root () p = H.set_root heap p
    let machine () = mach
    let cache_ops () = ops
  end in
  (t, A.Instance ((module M), ()))

(** Differences of the machine counters between the first in-simulation
    call and now. *)
type delta = {
  d_prof : Machine.profile;
  d_fences : int;
  d_lines_flushed : int;
  d_lock : string -> int * int; (** name prefix -> (acquisitions, contended) *)
}

let delta t =
  let s0 = match t.first with Some (_, s) -> s | None -> snapshot t.mach in
  let s1 = snapshot t.mach in
  let p0 = s0.prof and p1 = s1.prof in
  let open Machine in
  let lock_sum locks prefix =
    List.fold_left
      (fun (a, c) (name, (st : Lock.stats)) ->
        if String.starts_with ~prefix name then
          (a + st.Lock.acquisitions, c + st.Lock.contended)
        else (a, c))
      (0, 0) locks
  in
  { d_prof =
      { p_read_hit = p1.p_read_hit - p0.p_read_hit;
        p_read_miss = p1.p_read_miss - p0.p_read_miss;
        p_write = p1.p_write - p0.p_write;
        p_flush = p1.p_flush - p0.p_flush;
        p_fence = p1.p_fence - p0.p_fence;
        p_bandwidth_wait = p1.p_bandwidth_wait - p0.p_bandwidth_wait;
        p_compute = p1.p_compute - p0.p_compute;
        p_wrpkru = p1.p_wrpkru - p0.p_wrpkru };
    d_fences = s1.dev.Nvmm.Memdev.fences - s0.dev.Nvmm.Memdev.fences;
    d_lines_flushed =
      s1.dev.Nvmm.Memdev.lines_flushed - s0.dev.Nvmm.Memdev.lines_flushed;
    d_lock =
      (fun prefix ->
        let a1, c1 = lock_sum s1.locks prefix and a0, c0 = lock_sum s0.locks prefix in
        (a1 - a0, c1 - c0)) }
