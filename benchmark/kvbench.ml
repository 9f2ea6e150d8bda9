(** The KV workloads: the sharded store ({!Service.Server}) with its DRAM
    tiers on, driven open-loop by Poisson clients.

    An e2e run makes, with tracing off:
    - an overload run far past saturation, cut by a crash at half time:
      goodput before the cut, then a store that crashed under load
      recovers and is checked against the client ledger;
    - the operating run at the workload's fixed rate, split into
      [sub_runs] runs on derived seeds whose latencies are pooled (more
      independent realisations for the same traffic, and one [setup_s]
      sample each).
    Every Server run re-formats the heap and preloads the store; the
    CPU time of that is a [setup_s] sample.

    The traced run repeats one operating sub-run with spans on and
    derives the per-layer metrics; it also checks that tracing left
    every simulated number unchanged. *)

module S = Service.Server

type cls = Reads | Writes

type spec = {
  name : string;
  cfg : S.config;
      (** operating point; [duration] is the total over the sub-runs at
          scale 1, [seed] the benchmark's seed *)
  repl : bool; (** sync primary/backup instead of a local store *)
  cls : cls; (** the op class behind [p50_us] / [p99_us] *)
  overload_rate : float;
  overload_reqs : int; (** offered before the overload run's crash, at scale 1 *)
}

let dram_tiers =
  { S.default_config with
    S.shards = 4;
    clients = 32;
    queue_capacity = 64;
    mvcc_window = 8;
    tcache_mag = 8;
    rcache_entries = 8192 }

let kv_write =
  { name = "kv-write";
    cfg =
      { dram_tiers with
        S.rate = 150_000.;
        duration = 0.8;
        keyspace = 131072;
        preload = 65536;
        value_size = 256;
        zipf_theta = 0.6;
        read_pct = 10;
        delete_pct = 5;
        scan_pct = 0;
        batch_window = 1 };
    repl = false;
    cls = Writes;
    overload_rate = 600_000.;
    overload_reqs = 40_000 }

let kv_read =
  { name = "kv-read";
    cfg =
      { dram_tiers with
        S.rate = 1_000_000.;
        duration = 0.15;
        keyspace = 32768;
        preload = 32768;
        value_size = 512;
        zipf_theta = 0.99;
        read_pct = 93;
        scan_pct = 2;
        delete_pct = 1 };
    repl = false;
    cls = Reads;
    overload_rate = 6_000_000.;
    overload_reqs = 60_000 }

let kv_repl =
  { name = "kv-repl";
    cfg =
      { dram_tiers with
        S.rate = 60_000.;
        duration = 1.6;
        keyspace = 32768;
        preload = 32768;
        value_size = 256;
        zipf_theta = 0.99;
        read_pct = 50;
        delete_pct = 5;
        scan_pct = 0;
        txn_pct = 10;
        txn_ops = 3;
        batch_window = 4 };
    repl = true;
    cls = Writes;
    overload_rate = 300_000.;
    overload_reqs = 60_000 }

let specs = [ kv_write; kv_read; kv_repl ]

(** A smaller copy of a workload — keyspace, caches and traffic divided
    by [k] — for the unit test. *)
let shrink k s =
  let c = s.cfg in
  { s with
    cfg =
      { c with
        S.keyspace = c.S.keyspace / k;
        preload = c.S.preload / k;
        rcache_entries = c.S.rcache_entries / k;
        duration = c.S.duration /. float_of_int k };
    overload_reqs = s.overload_reqs / k }

(* ---------- one Server run ---------- *)

let heap_base = 1 lsl 30

let new_heap mach =
  Poseidon.Heap.create mach ~base:heap_base ~size:(1 lsl 38) ~heap_id:1
    ~sub_data_size:(128 * 1024 * 1024) ()

type run = {
  res : S.result;
  rr : S.repl_result option;
  shims : Shim.t list; (** primary first *)
  insts : Alloc_intf.instance list;
  recovered : Poseidon.Heap.t option; (** local crash runs: the re-attached heap *)
  setup_s : float option; (** CPU time up to the first in-simulation call *)
  traffic_s : float; (** CPU time from the end of set-up to the end of the run *)
  scope : string;
}

let run_counter = ref 0

let server_run spec cfg =
  incr run_counter;
  let scope = Printf.sprintf "bench/%s/%d" spec.name !run_counter in
  let cfg = { cfg with S.scope } in
  let made = ref [] and recovered = ref None in
  let make_on mach =
    let sh, inst = Shim.wrap mach (new_heap mach) in
    made := (sh, inst) :: !made;
    inst
  in
  (* every set-up starts from a compacted OCaml heap, so its GC work
     does not depend on what earlier runs left behind *)
  Gc.compact ();
  let t0 = Sys.time () in
  let res, rr =
    if spec.repl then
      let rr = S.run_replicated ~make:make_on cfg S.default_repl_config in
      (rr.S.base, Some rr)
    else
      ( S.run
          ~make:(fun () ->
            let mach = Machine.create () in
            (mach, make_on mach))
          ~reattach:(fun mach ->
            let h = Poseidon.Heap.attach mach ~base:heap_base () in
            recovered := Some h;
            Poseidon.instance h)
          cfg,
        None )
  in
  let t_end = Sys.time () in
  let made = List.rev !made in
  let firsts = List.filter_map (fun (sh, _) -> sh.Shim.first) made in
  let t_first = List.fold_left (fun acc (c, _) -> Float.min acc c) t_end firsts in
  let setup_s = if firsts = [] then None else Some (t_first -. t0) in
  { res;
    rr;
    shims = List.map fst made;
    insts = List.map snd made;
    recovered = !recovered;
    setup_s;
    traffic_s = t_end -. t_first;
    scope }

let gauge r name =
  Option.value ~default:0. (Obs.Metrics.get_gauge ~scope:r.scope name)

let hist r name =
  match Obs.Metrics.get_log_histogram ~scope:r.scope name with
  | Some h -> h
  | None -> Obs.Hist.create ()

(* ---------- correctness ---------- *)

let check_heap what errs h =
  try Poseidon.Heap.check_invariants h
  with e -> errs := Printf.sprintf "%s: heap invariant: %s" what (Printexc.to_string e) :: !errs

(** The gates every run passes: ledger (and backup ledger) without a
    mismatch, no truncated MVCC read, and a structurally valid heap —
    the primary after a clean run, the recovered one after a crash. *)
let check what errs r =
  let l = r.res.S.ledger in
  if l.S.mismatches > 0 then
    errs := Printf.sprintf "%s: %d ledger mismatches" what l.S.mismatches :: !errs;
  (match r.rr with
   | Some { S.backup_ledger = Some b; _ } when b.S.mismatches > 0 ->
     errs := Printf.sprintf "%s: %d backup ledger mismatches" what b.S.mismatches :: !errs
   | _ -> ());
  if gauge r "mvcc_truncated_reads" > 0. then
    errs := Printf.sprintf "%s: truncated MVCC reads" what :: !errs;
  match (r.res.S.crashed, r.recovered, r.shims) with
  | false, _, sh :: _ -> check_heap what errs sh.Shim.heap
  | true, Some h, _ -> check_heap what errs h
  | true, None, [ _; backup ] -> check_heap what errs backup.Shim.heap
  | _ -> ()

(** Live heap bytes and live value bytes (keys × value size) of the
    primary after the run, read through a fresh store handle that also
    re-checks the trees (a whole-store walk, so done for one run). *)
let space spec errs r =
  match (r.shims, r.insts) with
  | sh :: _, inst :: _ ->
    let kv, _ = Service.Kv.attach inst in
    (try Service.Kv.check kv
     with e -> errs := ("store check: " ^ Printexc.to_string e) :: !errs);
    ( (Poseidon.Heap.stats sh.Shim.heap).Poseidon.Heap.live_bytes,
      Service.Kv.count_keys kv * spec.cfg.S.value_size )
  | _ -> (0, 0)

(* ---------- run kinds ---------- *)

let sub_runs = 3

(* seeds of sub-run [k]: distinct across benchmark seeds and sub-runs *)
let sub_cfg spec ~scale k =
  { spec.cfg with
    S.duration = spec.cfg.S.duration *. scale /. float_of_int sub_runs;
    seed = (sub_runs * spec.cfg.S.seed) + k }

let e2e spec ~scale =
  let errs = ref [] and setups = ref [] in
  let run what cfg =
    let r = server_run spec cfg in
    Option.iter (fun s -> setups := s :: !setups) r.setup_s;
    check (spec.name ^ " " ^ what) errs r;
    r
  in
  let over =
    let reqs = max 200 (int_of_float (float_of_int spec.overload_reqs *. scale)) in
    run "overload"
      { (sub_cfg spec ~scale 0) with
        S.rate = spec.overload_rate;
        duration = float_of_int (2 * reqs) /. spec.overload_rate;
        crash_at = Some 0.5 }
  in
  let ops = List.init sub_runs (fun k -> run "operating" (sub_cfg spec ~scale k)) in
  let pooled name =
    let h = Obs.Hist.create () in
    List.iter (fun r -> Obs.Hist.merge ~into:h (hist r name)) ops;
    h
  in
  let live, user = space spec errs (List.hd ops) in
  let pct name p = Samples.hist_percentile (pooled name) p /. 1000. in
  let cls = match spec.cls with Reads -> "read_latency_ns" | Writes -> "write_latency_ns" in
  let sum f = List.fold_left (fun a r -> a + f r.res) 0 ops in
  { Report.workload = spec.name;
    metrics =
      [ Report.m "setup_s" "s" (Samples.median !setups);
        Report.m "p50_us" "us" (pct cls 50.);
        Report.m "p99_us" "us" (pct cls 99.);
        Report.m "peak_goodput_kops" "kop/s" (over.res.S.goodput /. 1000.);
        Report.m "space_amp" "ratio" (float_of_int live /. float_of_int (max 1 user)) ];
    detail =
      [ Report.m "read_p50_us" "us" (pct "read_latency_ns" 50.);
        Report.m "read_p99_us" "us" (pct "read_latency_ns" 99.);
        Report.m "write_p50_us" "us" (pct "write_latency_ns" 50.);
        Report.m "write_p99_us" "us" (pct "write_latency_ns" 99.);
        Report.m "scan_p99_us" "us" (pct "scan_latency_ns" 99.);
        Report.m "txn_p99_us" "us" (pct "txn_latency_ns" 99.);
        Report.m "samples" "count" (float_of_int (pooled cls).Obs.Hist.n);
        Report.m "ledger_checked" "count" (float_of_int (sum (fun r -> r.S.ledger.S.checked)));
        Report.m "overload_shed" "count" (float_of_int over.res.S.shed);
        Report.m "rto_us" "us" (float_of_int over.res.S.rto_ns /. 1000.) ];
    attempted = sum (fun r -> r.S.offered);
    failed = sum (fun r -> r.S.offered - r.S.completed);
    errors = List.rev !errs }

(* simulated outputs a traced run must reproduce exactly *)
let fingerprint r =
  let hp name = List.map (Samples.hist_percentile (hist r name)) [ 50.; 99.; 99.9 ] in
  ( (r.res.S.offered, r.res.S.completed, r.res.S.shed, r.res.S.sim_ns),
    List.concat_map hp [ "latency_ns"; "read_latency_ns"; "write_latency_ns" ] )

let layers spec ~scale =
  let errs = ref [] in
  let cfg = sub_cfg spec ~scale 0 in
  let plain = server_run spec cfg in
  check (spec.name ^ " untraced") errs plain;
  let fp = fingerprint plain in
  let expected = cfg.S.rate *. cfg.S.duration in
  Obs.Span.start ~capacity:(max 4096 (int_of_float (12. *. expected))) ();
  let r = server_run spec cfg in
  check (spec.name ^ " traced") errs r;
  if fingerprint r <> fp then
    errs := (spec.name ^ ": tracing changed the simulated results") :: !errs;
  let attrib = Obs.Attrib.analyze () in
  let root_ns, store_self_ns = Report.span_totals () in
  Obs.Span.clear ();
  if attrib.Obs.Attrib.span_dropped > 0 then
    errs := Printf.sprintf "%s: %d spans dropped" spec.name attrib.Obs.Attrib.span_dropped :: !errs;
  let sh = List.hd r.shims in
  let res = r.res in
  let chain_versions =
    let n = ref 0 in
    for i = 0 to cfg.S.shards - 1 do
      n :=
        !n
        + int_of_float
            (Option.value ~default:0.
               (Obs.Metrics.get_gauge ~scope:(Printf.sprintf "%s/shard%d" r.scope i)
                  "mvcc_chain_versions"))
    done;
    !n
  in
  let writes = (hist r "write_latency_ns").Obs.Hist.n in
  let declared, detail =
    Report.layers
      { Report.ops = res.S.completed;
        writes;
        user_bytes = float_of_int (writes * cfg.S.value_size);
        attrib;
        root_ns;
        store_self_ns;
        shim = sh;
        delta = Shim.delta sh;
        live_bytes = (Poseidon.Heap.stats sh.Shim.heap).Poseidon.Heap.live_bytes;
        gauge = gauge r;
        chain_versions;
        queue_max_depth = res.S.queue_max_depth;
        frames = (match r.rr with Some rr -> rr.S.link_flushes | None -> 0);
        max_lag = (match r.rr with Some rr -> rr.S.max_lag | None -> 0);
        retransmits = (match r.rr with Some rr -> rr.S.retransmits | None -> 0);
        txn_committed = res.S.txns_committed;
        txn_aborted = res.S.txns_aborted;
        trace_overhead = r.traffic_s /. plain.traffic_s }
  in
  { Report.workload = spec.name;
    metrics = declared;
    detail;
    attempted = res.S.offered;
    failed = res.S.offered - res.S.completed;
    errors = List.rev !errs }
