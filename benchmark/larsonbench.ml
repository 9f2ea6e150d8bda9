(** alloc-larson: the paper's Larson server benchmark (Fig. 7) on a raw
    Poseidon heap (MPK on, no magazine cache), with no service stack
    above the allocator interface.

    Simulated threads replace objects in a shared slot array — 256
    slots per thread, sizes 10–1000 B, frees that cross threads — and
    each new object is touched (8 bytes written and persisted).  Inputs
    come from [--seed].  The benchmark drives it like the KV workloads:
    - operating run: open loop, Poisson arrivals spread over the
      threads, each op timed from when it was due; split into
      {!Kvbench.sub_runs} runs on derived seeds, latencies pooled;
    - peak: the classic closed loop, every thread replacing back to
      back — replace ops per simulated second;
    - crash run: the device loses its unfenced state mid-traffic and
      the heap re-attaches inside the simulation.
    Every run formats a fresh heap and fills the slot array outside the
    timed region; that is one [setup_s] sample. *)

module A = Alloc_intf
module Sched = Simcore.Sched
module Prng = Repro_util.Prng
module H = Poseidon.Heap

type spec = {
  threads : int;
  rate : float; (** operating arrival rate, replace ops per second *)
  duration : float; (** operating run over all sub-runs, simulated s at scale 1 *)
  peak_duration : float; (** closed-loop run, simulated s at scale 1 *)
}

let name = "alloc-larson"

let spec =
  { threads = 32;
    rate = 2_000_000.;
    duration = 0.09;
    peak_duration = 0.02 }

(** [k] times fewer threads and arrivals — for the unit test. *)
let shrink k s = { s with threads = max 2 (s.threads / k); rate = s.rate /. float_of_int k }

let slots_per_thread = 256
let min_size = 10
let max_size = 1000

type state = {
  mach : Machine.t;
  heap : H.t;
  shim : Shim.t;
  inst : A.instance;
  slots : A.nvmptr array;
  sizes : int array;
  tags : int array;
  claimed : bool array;
  lat : Samples.t; (** per op, from when it was due to completion *)
  mutable ops : int;
  mutable failed : int; (** allocations that returned nothing *)
  mutable sim_s : float;
  setup_s : float;
}

(* one replace step's object: a fresh block of [size] bytes whose first
   word holds [tag], written and persisted like a server filling a
   buffer *)
let fill st s p size tag =
  st.slots.(s) <- p;
  st.sizes.(s) <- size;
  st.tags.(s) <- tag;
  let raw = H.get_rawptr st.heap p in
  Machine.write_u64 st.mach raw tag;
  Machine.persist st.mach raw 8

(** Formats a heap and, as the classic Larson does before timing, lets
    every thread fill its own 256 slots — which also creates each
    thread's sub-heap.  The fill bypasses the shim, which therefore
    counts the timed traffic only. *)
let setup threads ~seed =
  Gc.compact ();
  let t0 = Sys.time () in
  let mach = Machine.create () in
  let heap = Kvbench.new_heap mach in
  let shim, inst = Shim.wrap mach heap in
  let n = threads * slots_per_thread in
  let st =
    { mach;
      heap;
      shim;
      inst;
      slots = Array.make n A.null;
      sizes = Array.make n 0;
      tags = Array.make n 0;
      claimed = Array.make n false;
      lat = Samples.create ();
      ops = 0;
      failed = 0;
      sim_s = 0.;
      setup_s = 0. }
  in
  ignore
    (Machine.parallel mach ~threads (fun i ->
         let rng = Prng.create (seed lxor ((i + 1) * 0x9E37)) in
         for s = i * slots_per_thread to ((i + 1) * slots_per_thread) - 1 do
           let size = Prng.int_in rng min_size max_size in
           match H.alloc heap size with
           | Some p -> fill st s p size (Prng.int rng max_int)
           | None -> st.failed <- st.failed + 1
         done));
  { st with setup_s = Sys.time () -. t0 }

(** Runs [threads] replacers for [duration_ns] of simulated time:
    open loop at [rate] (split evenly over the threads) or, with
    [rate = None], closed loop.  With tracing on each op is one
    request: a Queue span for the time it waited past its due time and
    a Store span with Alloc and Persist details. *)
let drive st ~threads ~rate ~duration_ns ~seed =
  let nslots = Array.length st.slots in
  st.sim_s <-
    st.sim_s
    +. Machine.parallel st.mach ~threads (fun i ->
           let rng = Prng.create ((seed * 1_000_003) + i) in
           let lg =
             Option.map
               (fun r ->
                 Net.Loadgen.create ~rate:(r /. float_of_int threads)
                   ~seed:(seed lxor (i * 65537) lxor 0x1A5))
               rate
           in
           let start = Sched.now () in
           let rec pick () =
             let s = Prng.int rng nslots in
             if st.claimed.(s) then pick () else s
           in
           let rec loop due =
             if due - start < duration_ns then begin
               let now = Sched.now () in
               if now < due then Sched.sleep (due - now);
               let t_start = Sched.now () in
               let pmark = Obs.Span.persist_mark () in
               let s = pick () in
               st.claimed.(s) <- true;
               let old = st.slots.(s) in
               if not (A.is_null old) then A.i_free st.inst old;
               let size = Prng.int_in rng min_size max_size in
               let got = A.i_alloc st.inst size in
               let alloc_ns = Sched.now () - t_start in
               (match got with
                | Some p -> fill st s p size (Prng.int rng max_int)
                | None ->
                  st.slots.(s) <- A.null;
                  st.failed <- st.failed + 1);
               st.claimed.(s) <- false;
               let t_end = Sched.now () in
               Samples.add st.lat (t_end - due);
               st.ops <- st.ops + 1;
               let trace = Obs.Span.new_trace () in
               if trace >= 0 then begin
                 let root = Obs.Span.add_span ~trace ~parent:(-1) Obs.Span.Request ~t0:due ~t1:t_end in
                 if t_start > due then
                   ignore (Obs.Span.add_span ~trace ~parent:root Obs.Span.Queue ~t0:due ~t1:t_start);
                 let store = Obs.Span.add_span ~trace ~parent:root Obs.Span.Store ~t0:t_start ~t1:t_end in
                 ignore
                   (Obs.Span.add_span ~trace ~parent:store Obs.Span.Alloc ~t0:t_start
                      ~t1:(t_start + alloc_ns));
                 let pns = Obs.Span.persist_since pmark in
                 if pns > 0 then
                   ignore
                     (Obs.Span.add_span ~trace ~parent:store Obs.Span.Persist
                        ~t0:(t_end - pns) ~t1:t_end)
               end;
               loop (match lg with Some g -> due + Net.Loadgen.next_gap_ns g | None -> t_end)
             end
           in
           loop (match lg with Some g -> start + Net.Loadgen.next_gap_ns g | None -> start))

let live st = List.filter (fun s -> not (A.is_null st.slots.(s))) (List.init (Array.length st.slots) Fun.id)

(** Checks a heap against the slot array: every live object still
    holds its tag (no two live blocks overlap), the heap's structure is
    valid, and freeing every live object is accepted and returns the
    heap to zero live bytes (nothing lost, nothing leaked).  Frees the
    objects. *)
let verify what errs st heap =
  let err fmt = Printf.ksprintf (fun s -> errs := (what ^ ": " ^ s) :: !errs) fmt in
  let inst = Poseidon.instance heap in
  let live = live st in
  List.iter
    (fun s ->
      if Machine.read_u64 st.mach (A.i_get_rawptr inst st.slots.(s)) <> st.tags.(s) then
        err "slot %d lost its contents" s)
    live;
  (try H.check_invariants heap with e -> err "heap invariant: %s" (Printexc.to_string e));
  if st.failed > 0 then err "%d failed allocations" st.failed;
  let s0 = H.stats heap in
  List.iter (fun s -> A.i_free inst st.slots.(s)) live;
  let s1 = H.stats heap in
  if s1.H.invalid_frees + s1.H.double_frees > s0.H.invalid_frees + s0.H.double_frees then
    err "a live object was not allocated";
  if s1.H.live_bytes <> 0 then err "%d bytes still live after freeing every object" s1.H.live_bytes

let requested_bytes st = List.fold_left (fun a s -> a + st.sizes.(s)) 0 (live st)

let ns_of_s x = int_of_float (x *. 1e9)

let open_run spec ~seed ~rate ~duration_ns =
  let st = setup spec.threads ~seed in
  drive st ~threads:spec.threads ~rate:(Some rate) ~duration_ns ~seed;
  st

let e2e ?(spec = spec) ~scale ~seed () =
  let errs = ref [] and setups = ref [] in
  let n = Kvbench.sub_runs in
  let sub_ns = ns_of_s (spec.duration *. scale /. float_of_int n) in
  let ops =
    List.init n (fun k ->
        let st = open_run spec ~seed:((n * seed) + k) ~rate:spec.rate ~duration_ns:sub_ns in
        setups := st.setup_s :: !setups;
        st)
  in
  let lat = Samples.create () in
  List.iter (fun st -> Samples.merge ~into:lat st.lat) ops;
  let live = List.fold_left (fun a st -> a + (H.stats st.heap).H.live_bytes) 0 ops in
  let requested = List.fold_left (fun a st -> a + requested_bytes st) 0 ops in
  List.iter (fun st -> verify "operating" errs st st.heap) ops;
  let peak = setup spec.threads ~seed:(n * seed) in
  setups := peak.setup_s :: !setups;
  drive peak ~threads:spec.threads ~rate:None
    ~duration_ns:(ns_of_s (spec.peak_duration *. scale)) ~seed:(n * seed);
  verify "peak" errs peak peak.heap;
  let crash = open_run spec ~seed:(n * seed) ~rate:spec.rate ~duration_ns:(sub_ns / 2) in
  setups := crash.setup_s :: !setups;
  Nvmm.Memdev.crash (Machine.dev crash.mach) `Strict;
  let recovered = ref None in
  let rto_s =
    Machine.parallel crash.mach ~threads:1 (fun _ ->
        recovered := Some (H.attach crash.mach ~base:Kvbench.heap_base ()))
  in
  (match !recovered with
   | Some h ->
     if not (H.logs_quiescent h) then errs := "crash: logs not quiescent after recovery" :: !errs;
     verify "crash" errs crash h
   | None -> errs := "crash: no recovered heap" :: !errs);
  let sum f = List.fold_left (fun a st -> a + f st) 0 ops in
  { Report.workload = name;
    metrics =
      [ Report.m "setup_s" "s" (Samples.median !setups);
        Report.m "p50_us" "us" (Samples.percentile lat 50. /. 1000.);
        Report.m "p99_us" "us" (Samples.percentile lat 99. /. 1000.);
        Report.m "peak_goodput_kops" "kop/s" (float_of_int peak.ops /. peak.sim_s /. 1000.);
        Report.m "space_amp" "ratio" (float_of_int live /. float_of_int (max 1 requested)) ];
    detail =
      [ Report.m "samples" "count" (float_of_int (Samples.count lat));
        Report.m "rto_us" "us" (rto_s *. 1e6) ];
    attempted = sum (fun st -> st.ops);
    failed = sum (fun st -> st.failed);
    errors = List.rev !errs }

let layers ?(spec = spec) ~scale ~seed () =
  let errs = ref [] in
  let n = Kvbench.sub_runs in
  let seed = n * seed in
  let dur = ns_of_s (spec.duration *. scale /. float_of_int n) in
  (* CPU time of the traffic alone, untraced then traced *)
  let timed_run () =
    let st = setup spec.threads ~seed in
    let t0 = Sys.time () in
    drive st ~threads:spec.threads ~rate:(Some spec.rate) ~duration_ns:dur ~seed;
    (st, Sys.time () -. t0)
  in
  let plain, c0 = timed_run () in
  let fp st = (st.ops, Samples.percentile st.lat 50., Samples.percentile st.lat 99., st.sim_s) in
  Obs.Span.start ~capacity:(max 4096 (8 * plain.ops)) ();
  let st, c1 = timed_run () in
  if fp st <> fp plain then errs := "tracing changed the simulated results" :: !errs;
  verify "untraced" errs plain plain.heap;
  let attrib = Obs.Attrib.analyze () in
  let root_ns, _ = Report.span_totals () in
  Obs.Span.clear ();
  if attrib.Obs.Attrib.span_dropped > 0 then
    errs := Printf.sprintf "%d spans dropped" attrib.Obs.Attrib.span_dropped :: !errs;
  let declared, detail =
    Report.layers
      { Report.ops = st.ops;
        writes = st.ops;
        user_bytes = float_of_int (8 * st.ops);
        attrib;
        root_ns;
        store_self_ns = 0;
        shim = st.shim;
        delta = Shim.delta st.shim;
        live_bytes = (H.stats st.heap).H.live_bytes;
        gauge = (fun _ -> 0.);
        chain_versions = 0;
        queue_max_depth = 0;
        frames = 0;
        max_lag = 0;
        retransmits = 0;
        txn_committed = 0;
        txn_aborted = 0;
        trace_overhead = c1 /. c0 }
  in
  verify "traced" errs st st.heap;
  { Report.workload = name;
    metrics = declared;
    detail;
    attempted = st.ops;
    failed = st.failed;
    errors = List.rev !errs }
