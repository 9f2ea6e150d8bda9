module Config = Config
module Sched = Simcore.Sched
module Memdev = Nvmm.Memdev

type addr = int

let main_thread = -1

(* Line numbers hash to themselves: [line_state] is only ever looked
   up, never iterated, so no order hangs on its hash. *)
module Lines = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash line = line land max_int
end)

type cache = {
  tags : int array; (* line number; -1 = empty *)
  vers : int array; (* packed version the copy was read at *)
  mask : int;
}

(* per-category simulated-time accounting (whole machine) *)
type profile = {
  mutable p_read_hit : int;
  mutable p_read_miss : int;
  mutable p_write : int;
  mutable p_flush : int;
  mutable p_fence : int;
  mutable p_bandwidth_wait : int;
  mutable p_compute : int;
  mutable p_wrpkru : int;
}

type t = {
  config : Config.t;
  engine_ : Sched.t;
  dev_ : Memdev.t;
  mpk_ : Mpk.t;
  caches : cache array;
  line_state : int Lines.t;
    (* line number -> (version lsl 8) lor (last writer cpu + 1) *)
  node_backlog : int array array;
    (* per-(node, DIMM) queued service ns (bandwidth queue) *)
  node_last_time : int array array;
    (* per-(node, DIMM) last observation instant, for backlog decay *)
  node_last_media : int array array;
    (* per-(node, DIMM) last 256 B XPLine served (write combining) *)
  mutable op_count : int; (* ops since the last forced yield *)
  mutable no_yield : bool; (* inside a critical (preemption-free) section *)
  mutable locks_ : Sched.Mutex.mutex list; (* every lock created on this machine *)
  mutable sim_fences : int; (* fences charged in simulation (sfence + persist) *)
  prof : profile;
  (* precomputed remote costs *)
  dram_read_remote : int;
  nvmm_read_remote : int;
  transfer_remote : int;
}

let create ?(cfg = Config.default) ?engine () =
  Config.validate cfg;
  (* traced events carry the NUMA node of their CPU *)
  Obs.Trace.set_node_of_cpu (fun cpu ->
      if cpu >= 0 && cpu < cfg.num_cpus then Config.cpu_numa cfg cpu else -1);
  let mk_cache _ =
    { tags = Array.make cfg.cache_lines_per_cpu (-1);
      vers = Array.make cfg.cache_lines_per_cpu 0;
      mask = cfg.cache_lines_per_cpu - 1 }
  in
  let scale ns = int_of_float (float_of_int ns *. cfg.remote_numa_mult) in
  { config = cfg;
    engine_ = (match engine with Some e -> e | None -> Sched.create ());
    dev_ = Memdev.create ();
    mpk_ = Mpk.create ();
    caches = Array.init cfg.num_cpus mk_cache;
    line_state = Lines.create 65536;
    node_backlog =
      Array.init cfg.numa_domains (fun _ -> Array.make cfg.nvmm_dimms_per_node 0);
    node_last_time =
      Array.init cfg.numa_domains (fun _ -> Array.make cfg.nvmm_dimms_per_node 0);
    node_last_media =
      Array.init cfg.numa_domains (fun _ ->
          Array.make cfg.nvmm_dimms_per_node (-1));
    op_count = 0;
    no_yield = false;
    locks_ = [];
    sim_fences = 0;
    prof =
      { p_read_hit = 0; p_read_miss = 0; p_write = 0; p_flush = 0;
        p_fence = 0; p_bandwidth_wait = 0; p_compute = 0; p_wrpkru = 0 };
    dram_read_remote = scale cfg.dram_read_ns;
    nvmm_read_remote = scale cfg.nvmm_read_ns;
    transfer_remote = scale cfg.lock_transfer_ns }

let cfg t = t.config
let engine t = t.engine_
let dev t = t.dev_
let mpk t = t.mpk_

let current_thread () = if Sched.in_simulation () then Sched.self () else main_thread
let current_cpu () = if Sched.in_simulation () then Sched.cpu () else 0

let add_region t ~base ~size ~kind ~numa =
  if numa < 0 || numa >= t.config.numa_domains then
    invalid_arg "Machine.add_region: bad NUMA domain";
  Memdev.add_region t.dev_ ~base ~size ~kind ~numa

(* ---------- cost accounting ---------- *)

let line_of a = a lsr 6 (* 64-byte lines *)

(* The NVMM DIMMs of a NUMA node are shared servers: each line
   transferred occupies one (selected by 4 KiB interleaving) for a
   fixed service time, and consecutive accesses to the same 256 B
   XPLine write-combine.  Past ~32 threads the queueing delay
   dominates — the bandwidth wall of the paper's Fig. 9.

   The queue is a decaying backlog, not an absolute "server free at T"
   stamp: simulated threads execute out of clock order between sync
   points, and an absolute stamp would make earlier-clock threads wait
   for later-clock ones even on an idle device.  With a backlog, light
   load drains between requests (no wait, in any execution order),
   while sustained demand beyond the service rate grows the backlog
   without bound, capping throughput at capacity.  Only called from
   inside the simulation. *)
let serve_node t node addr service =
  let dimm = (addr lsr 12) mod t.config.nvmm_dimms_per_node in
  let media_line = addr lsr 8 in
  if t.node_last_media.(node).(dimm) <> media_line then begin
    t.node_last_media.(node).(dimm) <- media_line;
    let now = Sched.now () in
    let last = t.node_last_time.(node).(dimm) in
    let backlog =
      let b = t.node_backlog.(node).(dimm) in
      if now > last then begin
        t.node_last_time.(node).(dimm) <- now;
        max 0 (b - (now - last))
      end
      else b
    in
    t.node_backlog.(node).(dimm) <- backlog + service;
    t.prof.p_bandwidth_wait <- t.prof.p_bandwidth_wait + backlog + service;
    Sched.charge (backlog + service)
  end

(* Bounds simulated-clock drift between threads so shared-resource
   queues (locks with free_at, the bandwidth server) stay nearly
   causal. *)
let maybe_yield t =
  t.op_count <- t.op_count + 1;
  if t.op_count >= t.config.yield_ops && not t.no_yield then begin
    t.op_count <- 0;
    Sched.yield ()
  end

(* Runs [f] without forced yields, so no other simulated thread can
   observe its intermediate stores.  Models update sequences that are
   reader-safe on real hardware by construction (e.g. FAST's shifting
   writes).  [f] must not block: no lock acquisition inside. *)
let critical t f =
  let saved = t.no_yield in
  t.no_yield <- true;
  match f () with
  | r ->
    t.no_yield <- saved;
    r
  | exception e ->
    t.no_yield <- saved;
    raise e

(* (version lsl 8) lor (last writer cpu + 1) of [line]; 0 if never written *)
let line_version t line =
  match Lines.find t.line_state line with v -> v | exception Not_found -> 0

let charge_read t cpu a =
  let line = line_of a in
  let cur = line_version t line in
  let cache = t.caches.(cpu) in
  let idx = line land cache.mask in
  if cache.tags.(idx) = line && cache.vers.(idx) = cur then begin
    t.prof.p_read_hit <- t.prof.p_read_hit + t.config.cache_hit_ns;
    Sched.charge t.config.cache_hit_ns
  end
  else begin
    let kind, numa = Memdev.region_info t.dev_ a in
    let local = Config.cpu_numa t.config cpu = numa in
    let cost =
      match kind, local with
      | Memdev.Dram, true -> t.config.dram_read_ns
      | Memdev.Dram, false -> t.dram_read_remote
      | Memdev.Nvmm, true -> t.config.nvmm_read_ns
      | Memdev.Nvmm, false -> t.nvmm_read_remote
    in
    t.prof.p_read_miss <- t.prof.p_read_miss + cost;
    Sched.charge cost;
    if kind = Memdev.Nvmm then
      serve_node t numa a t.config.nvmm_read_service_ns;
    cache.tags.(idx) <- line;
    cache.vers.(idx) <- cur
  end

let charge_write t cpu a =
  let line = line_of a in
  let cur = line_version t line in
  let writer = (cur land 0xff) - 1 in
  let next = (((cur lsr 8) + 1) lsl 8) lor (cpu + 1) in
  Lines.replace t.line_state line next;
  let kind, numa = Memdev.region_info t.dev_ a in
  let base =
    match kind with
    | Memdev.Dram -> t.config.dram_write_ns
    | Memdev.Nvmm -> t.config.nvmm_write_ns
  in
  let bounce =
    if writer >= 0 && writer <> cpu then
      if Config.cpu_numa t.config writer = Config.cpu_numa t.config cpu then
        t.config.lock_transfer_ns
      else t.transfer_remote
    else 0
  in
  ignore numa;
  t.prof.p_write <- t.prof.p_write + base + bounce;
  Sched.charge (base + bounce);
  let cache = t.caches.(cpu) in
  let idx = line land cache.mask in
  cache.tags.(idx) <- line;
  cache.vers.(idx) <- next

(* Charges for every line covered by [a, a+len). *)
let charge_range t cpu a len charge_one =
  if len > 0 then begin
    let first = line_of a and last = line_of (a + len - 1) in
    for line = first to last do
      charge_one t cpu (line lsl 6)
    done
  end

(* ---------- checked, charged access ---------- *)

let pre_read t a =
  Mpk.check t.mpk_ ~thread:(current_thread ()) a Mpk.Read;
  if Sched.in_simulation () then begin
    charge_read t (Sched.cpu ()) a;
    maybe_yield t
  end

let pre_write t a =
  Mpk.check t.mpk_ ~thread:(current_thread ()) a Mpk.Write;
  if Sched.in_simulation () then begin
    charge_write t (Sched.cpu ()) a;
    maybe_yield t
  end

let read_u8 t a = pre_read t a; Memdev.read_u8 t.dev_ a
let read_u16 t a = pre_read t a; Memdev.read_u16 t.dev_ a
let read_u32 t a = pre_read t a; Memdev.read_u32 t.dev_ a
let read_u64 t a = pre_read t a; Memdev.read_u64 t.dev_ a

let write_u8 t a v = pre_write t a; Memdev.write_u8 t.dev_ a v
let write_u16 t a v = pre_write t a; Memdev.write_u16 t.dev_ a v
let write_u32 t a v = pre_write t a; Memdev.write_u32 t.dev_ a v
let write_u64 t a v = pre_write t a; Memdev.write_u64 t.dev_ a v

let check_span t a len access =
  if len > 0 then begin
    let thread = current_thread () in
    (* Page-granular protection: checking both ends and each page
       boundary in between covers the whole span. *)
    let first = a / Mpk.page_size and last = (a + len - 1) / Mpk.page_size in
    for page = first to last do
      Mpk.check t.mpk_ ~thread (max a (page * Mpk.page_size)) access
    done
  end

let read_bytes t a len =
  check_span t a len Mpk.Read;
  if Sched.in_simulation () then charge_range t (Sched.cpu ()) a len charge_read;
  Memdev.read_bytes t.dev_ a len

let write_bytes t a b =
  let len = Bytes.length b in
  check_span t a len Mpk.Write;
  if Sched.in_simulation () then charge_range t (Sched.cpu ()) a len charge_write;
  Memdev.write_bytes t.dev_ a b

let fill t a len c =
  check_span t a len Mpk.Write;
  if Sched.in_simulation () then charge_range t (Sched.cpu ()) a len charge_write;
  Memdev.fill t.dev_ a len c

let sfence t =
  if Sched.in_simulation () then begin
    t.prof.p_fence <- t.prof.p_fence + t.config.sfence_ns;
    t.sim_fences <- t.sim_fences + 1;
    Sched.charge t.config.sfence_ns;
    Obs.Trace.emit Obs.Event.Sfence;
    Obs.Span.note Obs.Span.Persist t.config.sfence_ns
  end;
  Memdev.sfence t.dev_

let clwb t a =
  if Sched.in_simulation () then begin
    t.prof.p_flush <- t.prof.p_flush + t.config.clwb_ns;
    Sched.charge t.config.clwb_ns;
    Obs.Trace.emit1 Obs.Event.Clwb a;
    Obs.Span.note Obs.Span.Persist t.config.clwb_ns;
    match Memdev.region_info t.dev_ a with
    | Memdev.Nvmm, numa -> serve_node t numa a t.config.nvmm_write_service_ns
    | Memdev.Dram, _ -> ()
  end;
  Memdev.clwb t.dev_ a

let syscall_ns = 2000

let punch t a len =
  if Sched.in_simulation () then Sched.charge syscall_ns;
  Memdev.punch t.dev_ a len

let has_region t a = Memdev.has_region t.dev_ a

let profile t = t.prof
let sim_fences t = t.sim_fences

let reset_profile t =
  let p = t.prof in
  p.p_read_hit <- 0;
  p.p_read_miss <- 0;
  p.p_write <- 0;
  p.p_flush <- 0;
  p.p_fence <- 0;
  p.p_bandwidth_wait <- 0;
  p.p_compute <- 0;
  p.p_wrpkru <- 0

let persist t a len =
  if len > 0 then begin
    if Sched.in_simulation () then begin
      let lines = line_of (a + len - 1) - line_of a + 1 in
      t.prof.p_flush <- t.prof.p_flush + (lines * t.config.clwb_ns);
      t.prof.p_fence <- t.prof.p_fence + t.config.sfence_ns;
      t.sim_fences <- t.sim_fences + 1;
      let ns = (lines * t.config.clwb_ns) + t.config.sfence_ns in
      Sched.charge ns;
      Obs.Trace.emit2 Obs.Event.Persist a len;
      Obs.Span.note Obs.Span.Persist ns;
      (match Memdev.region_info t.dev_ a with
       | Memdev.Nvmm, numa ->
         for l = 0 to lines - 1 do
           serve_node t numa (a + (l * 64)) t.config.nvmm_write_service_ns
         done
       | Memdev.Dram, _ -> ())
    end;
    Memdev.persist t.dev_ a len
  end

let compute t ns =
  if Sched.in_simulation () then begin
    t.prof.p_compute <- t.prof.p_compute + ns;
    Sched.charge ns
  end

let wrpkru ?cap t key perm =
  if Sched.in_simulation () then begin
    t.prof.p_wrpkru <- t.prof.p_wrpkru + t.config.wrpkru_ns;
    Sched.charge t.config.wrpkru_ns;
    Obs.Trace.emit2 Obs.Event.Wrpkru key
      (match perm with Mpk.No_access -> 0 | Mpk.Read_only -> 1 | Mpk.Read_write -> 2)
  end;
  Mpk.set_perm ?cap t.mpk_ ~thread:(current_thread ()) key perm

(* ---------- locks ---------- *)

module Lock = struct
  type lock = { m : Sched.Mutex.mutex; owner : t }

  type stats = { acquisitions : int; contended : int; wait_ns : int }

  let mutex_stats m =
    { acquisitions = Sched.Mutex.acquisitions m;
      contended = Sched.Mutex.contended m;
      wait_ns = Sched.Mutex.total_wait_ns m }

  let create t ?name () =
    let l = { m = Sched.Mutex.create ?name (); owner = t } in
    t.locks_ <- l.m :: t.locks_;
    l

  let acquire l =
    if Sched.in_simulation () then begin
      Sched.charge l.owner.config.lock_acquire_ns;
      let t0 = if Obs.Trace.enabled () then Sched.now () else 0 in
      Sched.Mutex.acquire l.m;
      if Obs.Trace.enabled () then begin
        let waited = Sched.now () - t0 in
        if waited > 0 then
          Obs.Trace.emit_span ~name:(Sched.Mutex.name l.m)
            Obs.Event.Lock_contend ~dur:waited waited;
        Obs.Trace.emit_named Obs.Event.Lock_acquire (Sched.Mutex.name l.m)
          (Sched.Mutex.acquisitions l.m)
      end;
      (* the previous releaser's CPU is recorded at release time, so
         reading it after our acquisition gives the CPU the lock's
         cache line bounces from *)
      let prev = Sched.Mutex.last_holder_cpu l.m in
      let cpu = Sched.cpu () in
      if prev >= 0 && prev <> cpu then
        if Config.cpu_numa l.owner.config prev = Config.cpu_numa l.owner.config cpu
        then Sched.charge l.owner.config.lock_transfer_ns
        else Sched.charge l.owner.transfer_remote
    end

  let release l =
    if Sched.in_simulation () then begin
      if Obs.Trace.enabled () then
        Obs.Trace.emit_named Obs.Event.Lock_release (Sched.Mutex.name l.m) 0;
      Sched.Mutex.release l.m
    end

  let with_lock l f =
    acquire l;
    match f () with
    | r ->
      release l;
      r
    | exception e ->
      release l;
      raise e

  let name l = Sched.Mutex.name l.m

  let stats l = mutex_stats l.m
end

(* Every lock ever created on this machine, most recent first, with its
   name and contention statistics — the inspect subcommand and the
   benchmark's per-layer report read this. *)
let lock_stats t =
  List.rev_map (fun m -> (Sched.Mutex.name m, Lock.mutex_stats m)) t.locks_

(* ---------- threads ---------- *)

let spawn t ~cpu body =
  if cpu < 0 || cpu >= t.config.num_cpus then
    invalid_arg "Machine.spawn: CPU out of range";
  Sched.spawn t.engine_ ~cpu body

let run t = Sched.run t.engine_

let parallel t ~threads body =
  if threads <= 0 then invalid_arg "Machine.parallel";
  let start = Sched.horizon t.engine_ in
  for i = 0 to threads - 1 do
    let cpu = i mod t.config.num_cpus in
    ignore
      (Sched.spawn t.engine_ ~cpu ~at:start (fun () -> body i))
  done;
  Sched.run t.engine_;
  float_of_int (Sched.horizon t.engine_ - start) /. 1e9
