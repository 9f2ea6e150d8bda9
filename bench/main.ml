(** Benchmark harness: regenerates every evaluation artefact of the
    paper (Figures 3, 6, 7, 8, 9) plus the design-choice ablations
    called out in DESIGN.md, all in simulated time.

    By default every figure runs at a scaled-down size so the whole
    suite finishes in a few minutes; [--full] approaches paper-scale
    parameters.  Throughput numbers are simulated-machine throughput
    (see lib/machine); the shapes, orderings and crossovers are the
    reproduction targets, not the absolute values.

    [--suite NAME] runs one named suite instead (the serving tiers,
    and a smoke run).  Every run ends by writing one
    [BENCH_<suite>.json] snapshot ({!Obs.Bench}) holding the suite's
    runs and declared gates, then exits 1 if any gate failed. *)

module Tablefmt = Repro_util.Tablefmt

let thread_counts = ref [ 1; 2; 4; 8; 16; 32; 48; 64 ]
let full = ref false
let figures = ref []
let ablations = ref []
let suite = ref ""
let json_out = ref ""

(* Every measured cell also lands in the metrics registry, so each run
   ends with a machine-readable BENCH_*.json snapshot next to the
   human-readable tables. *)
let record ~title ~name ~threads ~unit v =
  Obs.Metrics.set_gauge ~scope:("bench/" ^ title)
    (Printf.sprintf "%s %s @%dt" name unit threads)
    v;
  v

let scale n = if !full then n * 10 else n

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ---------- Figure 3 / safety matrix ---------- *)

let figure3 () =
  note "";
  note "### Figure 3 / safety: heap-metadata corruption attacks";
  note "(paper 3.2: a heap overflow corrupts PMDK's in-place metadata;";
  note " Poseidon's segregated, MPK-protected metadata is unaffected.";
  note " 'PMDK+canary' is the paper's 8 mitigation: it converts silent";
  note " corruption into a detected leak.)";
  List.iter
    (fun row ->
      Printf.printf "  %s\n" row.Workloads.Safety.attack;
      List.iter
        (fun (name, outcome) ->
          Printf.printf "    %-12s %s\n" name
            (Workloads.Safety.outcome_to_string outcome))
        row.Workloads.Safety.results)
    (Workloads.Safety.matrix ());
  print_newline ()

(* ---------- generic sweep over allocators and thread counts ---------- *)

let factories () = Workloads.Factories.all ()

let sweep ~title ~unit run =
  let facs = factories () in
  let table =
    Tablefmt.create ~title
      ~columns:
        ("threads"
         :: List.map
              (fun f -> f.Workloads.Factories.name ^ " " ^ unit)
              facs)
  in
  List.iter
    (fun threads ->
      let row =
        List.map
          (fun f ->
            record ~title ~name:f.Workloads.Factories.name ~threads ~unit
              (run ~factory:f ~threads))
          facs
      in
      Tablefmt.add_float_row table (string_of_int threads) row)
    !thread_counts;
  Tablefmt.print table

(* ---------- Figure 6: microbenchmark ---------- *)

let figure6 () =
  note "";
  note "### Figure 6: pairs of 100 mallocs + 100 frees, random order";
  note "(expect: Poseidon scales ~linearly; PMDK saturates past ~16-32";
  note " threads; Makalu collapses for sizes > 400 B)";
  let sizes = [ 256; 1024; 4096; 128 * 1024; 256 * 1024; 512 * 1024 ] in
  List.iter
    (fun size ->
      let per_thread = if size <= 4096 then scale 400 else scale 200 in
      sweep
        ~title:(Printf.sprintf "Fig 6 - %d B allocations" size)
        ~unit:"Mops/s"
        (fun ~factory ~threads ->
          Workloads.Microbench.run ~factory ~size ~threads
            ~total_ops:(per_thread * threads) ()))
    sizes

(* ---------- Figure 7: Larson ---------- *)

let figure7 () =
  note "";
  note "### Figure 7: Larson server benchmark (cross-thread frees)";
  note "(expect: Poseidon > PMDK > Makalu, up to ~4x at high threads)";
  let duration_s = if !full then 0.02 else 0.004 in
  sweep ~title:"Fig 7 - Larson" ~unit:"ops/s" (fun ~factory ~threads ->
      Workloads.Larson.run ~factory ~threads ~duration_s ())

(* ---------- Figure 8: high-performance applications ---------- *)

let figure8 () =
  note "";
  note "### Figure 8: Ackermann / Kruskal / N-Queens";
  note "(expect: Poseidon >> Makalu on Ackermann's large allocations;";
  note " Makalu beats PMDK on N-Queens thanks to NUMA-local lazy mapping)";
  sweep ~title:"Fig 8 - Ackermann (large alloc + memoised compute)"
    ~unit:"Mops/s"
    (fun ~factory ~threads ->
      Workloads.Ackermann.run ~factory ~threads
        ~iterations:(scale 16 * threads) ());
  sweep ~title:"Fig 8 - Kruskal (3 x 512 B + MST of order 5)" ~unit:"Mops/s"
    (fun ~factory ~threads ->
      Workloads.Kruskal.run ~factory ~threads
        ~iterations:(scale 100 * threads) ());
  sweep ~title:"Fig 8 - N-Queens (one 32 B alloc per puzzle)" ~unit:"Mops/s"
    (fun ~factory ~threads ->
      Workloads.Nqueens.run ~factory ~threads
        ~iterations:(scale 100 * threads) ())

(* ---------- Figure 9: YCSB on the persistent B+-tree ---------- *)

let figure9 () =
  note "";
  note "### Figure 9: YCSB Load / Workload A over FAST-FAIR-style B+-tree";
  note "(expect: Poseidon ~ PMDK - the index dominates; both flatten past";
  note " ~32 threads on NVMM bandwidth; Makalu degrades past ~16)";
  let records = scale 10000 and operations = scale 10000 in
  let facs = factories () in
  let columns =
    "threads"
    :: List.map (fun f -> f.Workloads.Factories.name ^ " Mops/s") facs
  in
  let load_tbl = Tablefmt.create ~title:"Fig 9 - YCSB Load" ~columns in
  let a_tbl = Tablefmt.create ~title:"Fig 9 - YCSB Workload A" ~columns in
  List.iter
    (fun threads ->
      let results =
        List.map
          (fun factory ->
            Workloads.Ycsb.run ~factory ~threads ~records ~operations ())
          facs
      in
      List.iter2
        (fun (f : Workloads.Factories.factory) r ->
          ignore
            (record ~title:"Fig 9 - YCSB Load" ~name:f.name ~threads
               ~unit:"Mops/s" r.Workloads.Ycsb.load_mops);
          ignore
            (record ~title:"Fig 9 - YCSB Workload A" ~name:f.name ~threads
               ~unit:"Mops/s" r.Workloads.Ycsb.a_mops))
        facs results;
      Tablefmt.add_float_row load_tbl (string_of_int threads)
        (List.map (fun r -> r.Workloads.Ycsb.load_mops) results);
      Tablefmt.add_float_row a_tbl (string_of_int threads)
        (List.map (fun r -> r.Workloads.Ycsb.a_mops) results))
    !thread_counts;
  Tablefmt.print load_tbl;
  Tablefmt.print a_tbl

(* ---------- extensions beyond the paper ---------- *)

(* YCSB workloads B (95 % read) and C (100 % read) in addition to the
   paper's Load/A pair: the allocator matters less as the read share
   grows, so the three allocators should converge from A to C. *)
let extension_ycsb_abc () =
  note "";
  note "### Extension: YCSB A/B/C read-ratio sweep";
  note "(the allocator's influence shrinks as reads dominate)";
  let records = scale 3000 and operations = scale 3000 in
  let facs = factories () in
  let table =
    Tablefmt.create ~title:"YCSB A/B/C at 16 threads (Mops/s)"
      ~columns:[ "workload"; "Poseidon"; "PMDK"; "Makalu" ]
  in
  let results =
    List.map
      (fun factory ->
        Workloads.Ycsb.run_abc ~factory ~threads:16 ~records ~operations ())
      facs
  in
  let row name f = Tablefmt.add_float_row table name (List.map f results) in
  row "Load" (fun r -> r.Workloads.Ycsb.l);
  row "A (50% read)" (fun r -> r.Workloads.Ycsb.a);
  row "B (95% read)" (fun r -> r.Workloads.Ycsb.b);
  row "C (100% read)" (fun r -> r.Workloads.Ycsb.c);
  Tablefmt.print table

(* identical recorded trace replayed on each allocator: the cleanest
   per-operation cost comparison *)
let extension_trace_replay () =
  note "";
  note "### Extension: identical trace replayed on each allocator";
  let table =
    Tablefmt.create ~title:"Recorded trace replay (single thread)"
      ~columns:[ "trace"; "Poseidon ms"; "PMDK ms"; "Makalu ms" ]
  in
  let run_trace name trace =
    let times =
      List.map
        (fun (factory : Workloads.Factories.factory) ->
          let mach, inst = factory.Workloads.Factories.make () in
          let r = Workloads.Trace.replay_timed ~mach inst trace in
          r.Workloads.Trace.simulated_seconds *. 1e3)
        (factories ())
    in
    Tablefmt.add_float_row table name times
  in
  run_trace "small (16-256 B)"
    (Workloads.Trace.random ~seed:1 ~min_size:16 ~max_size:256
       ~events:(scale 2000) ());
  run_trace "mixed (16-4096 B)"
    (Workloads.Trace.random ~seed:2 ~min_size:16 ~max_size:4096
       ~events:(scale 2000) ());
  run_trace "large (64-512 KiB)"
    (Workloads.Trace.random ~seed:3 ~min_size:(64 * 1024)
       ~max_size:(512 * 1024) ~events:(scale 500) ());
  Tablefmt.print table

(* ---------- ablations ---------- *)

(* A2/A3: Poseidon with a single sub-heap shared by all CPUs, and with
   MPK protection off, against stock Poseidon. *)
let ablation_subheap_mpk () =
  note "";
  note "### Ablation - Poseidon design choices (256 B microbenchmark)";
  note "(per-CPU sub-heaps carry the scalability; the MPK toggle is";
  note " nearly free, as 4.3 claims)";
  let single =
    { Workloads.Factories.name = "1 sub-heap";
      make =
        (fun ?cfg () ->
          let mach = Machine.create ?cfg () in
          let heap =
            Poseidon.Heap.create mach ~base:Workloads.Factories.heap_base
              ~size:(1 lsl 38) ~heap_id:1 ~sub_data_size:(16 * 1024 * 1024)
              ~single_subheap:true ()
          in
          (mach, Poseidon.instance heap)) }
  in
  let variants =
    [ Workloads.Factories.poseidon ();
      single;
      { (Workloads.Factories.poseidon ~protected:false ()) with name = "no MPK" } ]
  in
  let table =
    Tablefmt.create ~title:"Ablation - per-CPU sub-heaps and MPK"
      ~columns:
        ("threads"
         :: List.map
              (fun v -> v.Workloads.Factories.name ^ " Mops/s")
              variants)
  in
  List.iter
    (fun threads ->
      let row =
        List.map
          (fun factory ->
            Workloads.Microbench.run ~factory ~size:256 ~threads
              ~total_ops:(scale 400 * threads) ())
          variants
      in
      Tablefmt.add_float_row table (string_of_int threads) row)
    !thread_counts;
  Tablefmt.print table

(* A1: hash-table metadata index vs heap occupancy - allocation cost
   must stay flat as the number of live blocks grows (4.4). *)
let ablation_index () =
  note "";
  note "### Ablation - constant-time metadata index (4.4)";
  note "(alloc+free latency vs live blocks; the multi-level hash table";
  note " keeps it flat regardless of pool occupancy)";
  let mach = Machine.create () in
  let heap =
    Poseidon.Heap.create mach ~base:Workloads.Factories.heap_base
      ~size:(1 lsl 38) ~heap_id:1 ~sub_data_size:(256 * 1024 * 1024) ()
  in
  let inst = Poseidon.instance heap in
  let table =
    Tablefmt.create ~title:"Ablation - alloc latency vs occupancy"
      ~columns:[ "live blocks"; "ns/op" ]
  in
  let live = ref 0 in
  let steps = if !full then 7 else 5 in
  for step = 1 to steps do
    let target = 2000 * (1 lsl step) in
    let _ =
      Machine.parallel mach ~threads:1 (fun _ ->
          while !live < target do
            match Alloc_intf.i_alloc inst 64 with
            | Some _ -> incr live
            | None -> failwith "ablation_index: out of memory"
          done)
    in
    let batch = 2000 in
    let secs =
      Machine.parallel mach ~threads:1 (fun _ ->
          for _ = 1 to batch do
            match Alloc_intf.i_alloc inst 64 with
            | Some p -> Alloc_intf.i_free inst p
            | None -> failwith "ablation_index: out of memory"
          done)
    in
    Tablefmt.add_row table (string_of_int target)
      [ Printf.sprintf "%.0f" (secs *. 1e9 /. float_of_int (2 * batch)) ]
  done;
  Tablefmt.print table

(* 8 future work: the paper suggests "a more advanced index scheme"
   for huge capacities.  Compare the production multi-level table
   (driven through the allocator: alloc/free latency vs population,
   see ablation_index) with a standalone extendible-hash engine on
   raw insert+lookup latency as the population grows. *)
let extension_exthash () =
  note "";
  note "### Extension: extendible hashing as the 8 'advanced index scheme'";
  note "(raw insert+lookup latency vs population; O(1) with exactly one";
  note " directory load per lookup, vs the multi-level table's level scans)";
  let table =
    Tablefmt.create ~title:"Extendible hash index"
      ~columns:[ "population"; "insert ns"; "lookup ns"; "directory depth" ]
  in
  let mach = Machine.create () in
  let base = Workloads.Factories.heap_base in
  Machine.add_region mach ~base ~size:(1 lsl 30) ~kind:Nvmm.Memdev.Nvmm
    ~numa:0;
  let h = Poseidon.Exthash.create mach ~base ~size:(1 lsl 30) in
  let next_key = ref 1 in
  List.iter
    (fun target ->
      let _ =
        Machine.parallel mach ~threads:1 (fun _ ->
            while !next_key <= target do
              Poseidon.Exthash.with_op h (fun ctx ->
                  Poseidon.Exthash.insert ctx h !next_key !next_key);
              incr next_key
            done)
      in
      let batch = 2000 in
      let ins_secs =
        Machine.parallel mach ~threads:1 (fun _ ->
            for i = 0 to batch - 1 do
              Poseidon.Exthash.with_op h (fun ctx ->
                  Poseidon.Exthash.insert ctx h (target + i + 1) i)
            done)
      in
      let look_secs =
        Machine.parallel mach ~threads:1 (fun _ ->
            for i = 1 to batch do
              ignore (Poseidon.Exthash.lookup h i)
            done)
      in
      next_key := target + batch + 1;
      Tablefmt.add_row table (string_of_int target)
        [ Printf.sprintf "%.0f" (ins_secs *. 1e9 /. float_of_int batch);
          Printf.sprintf "%.0f" (look_secs *. 1e9 /. float_of_int batch);
          string_of_int (Poseidon.Exthash.depth h) ])
    [ 4_000; 16_000; 64_000; 256_000 ];
  Tablefmt.print table

(* Inter-thread frees (the case the paper's microbenchmark excludes):
   every block is freed by a different thread than allocated it, so
   Poseidon's remote-free sub-heap locking (5.7) gets exercised. *)
let extension_remote_free () =
  note "";
  note "### Extension: producer/consumer microbenchmark (inter-thread frees)";
  note "(every free is remote; 5.7 claims this contention stays rare/cheap)";
  sweep ~title:"Remote-free microbenchmark - 256 B" ~unit:"Mops/s"
    (fun ~factory ~threads ->
      Workloads.Microbench.run_remote_free ~factory ~size:256 ~threads
        ~total_ops:(scale 400 * threads) ())

(* Where the simulated time goes: per-category cost breakdown of one
   microbenchmark configuration per allocator — explains the curves
   (e.g. Poseidon's time is dominated by undo-log flush+fence;
   Makalu's by header persists; PMDK's by rebuild reads). *)
let ablation_costs () =
  note "";
  note "### Ablation - cost breakdown (256 B microbenchmark, 16 threads)";
  let table =
    Tablefmt.create ~title:"Simulated-time share by category (%)"
      ~columns:
        [ "allocator"; "read hit"; "read miss"; "store"; "clwb"; "fence";
          "bandwidth"; "compute"; "wrpkru" ]
  in
  List.iter
    (fun (factory : Workloads.Factories.factory) ->
      let mach, inst = factory.Workloads.Factories.make () in
      Workloads.Factories.warmup mach inst ~threads:16;
      Machine.reset_profile mach;
      let _ =
        Machine.parallel mach ~threads:16 (fun i ->
            let rng = Repro_util.Prng.create i in
            let live = Array.make 100 Alloc_intf.null in
            for _ = 1 to 4 do
              for j = 0 to 99 do
                live.(j) <-
                  Option.value ~default:Alloc_intf.null
                    (Alloc_intf.i_alloc inst 256)
              done;
              for j = 0 to 99 do
                if not (Alloc_intf.is_null live.(j)) then
                  Alloc_intf.i_free inst live.(j)
              done;
              ignore (Repro_util.Prng.int rng 2)
            done)
      in
      let p = Machine.profile mach in
      let total =
        float_of_int
          (p.Machine.p_read_hit + p.Machine.p_read_miss + p.Machine.p_write
         + p.Machine.p_flush + p.Machine.p_fence + p.Machine.p_bandwidth_wait
         + p.Machine.p_compute + p.Machine.p_wrpkru)
      in
      let pct v = 100.0 *. float_of_int v /. Float.max 1.0 total in
      Tablefmt.add_float_row table factory.Workloads.Factories.name
        [ pct p.Machine.p_read_hit; pct p.Machine.p_read_miss;
          pct p.Machine.p_write; pct p.Machine.p_flush; pct p.Machine.p_fence;
          pct p.Machine.p_bandwidth_wait; pct p.Machine.p_compute;
          pct p.Machine.p_wrpkru ])
    (factories ());
  Tablefmt.print table

(* Capacity scaling (2.2, 4.7): allocation latency must stay flat as
   the pool grows — the multi-level hash table and buddy lists are
   O(1) in pool size.  The simulated pool is sparsely backed, so huge
   sizes are cheap to instantiate. *)
let ablation_capacity () =
  note "";
  note "### Ablation - capacity scaling (2.2, 4.7)";
  note "(alloc+free latency vs pool size; expect a flat line)";
  let table =
    Tablefmt.create ~title:"Ablation - latency vs sub-heap capacity"
      ~columns:[ "pool size"; "ns/op" ]
  in
  List.iter
    (fun mib ->
      let mach = Machine.create () in
      let heap =
        Poseidon.Heap.create mach ~base:Workloads.Factories.heap_base
          ~size:(1 lsl 44) ~heap_id:1 ~sub_data_size:(mib * 1024 * 1024) ()
      in
      let inst = Poseidon.instance heap in
      Workloads.Factories.warmup mach inst ~threads:1;
      (* spread some live allocations across the pool first *)
      let _ =
        Machine.parallel mach ~threads:1 (fun _ ->
            for _ = 1 to 2000 do
              ignore (Alloc_intf.i_alloc inst 256)
            done)
      in
      let batch = 2000 in
      let secs =
        Machine.parallel mach ~threads:1 (fun _ ->
            for _ = 1 to batch do
              match Alloc_intf.i_alloc inst 256 with
              | Some p -> Alloc_intf.i_free inst p
              | None -> failwith "capacity ablation: oom"
            done)
      in
      Tablefmt.add_row table
        (Printf.sprintf "%d MiB" mib)
        [ Printf.sprintf "%.0f" (secs *. 1e9 /. float_of_int (2 * batch)) ])
    [ 64; 256; 1024; 4096; 16384 ];
  Tablefmt.print table

(* ---------- BENCH runs ---------- *)

module J = Obs.Json

let num i = J.Num (float_of_int i)

(* Every run the suite makes, newest first; the driver writes them,
   with the suite's gates, into its BENCH_<suite>.json snapshot. *)
let runs = ref []

let add_run ?extra ~label ~config result =
  runs := Obs.Bench.run ?extra ~label ~config result :: !runs

(* ---------- smoke suite ---------- *)

(* A minute-scale sanity run: the 256 B microbenchmark on every
   allocator at 1 and 4 threads.  Small enough for CI, still exercises
   sub-heap creation, locking and persistence on all three designs. *)
let smoke_suite () =
  note "";
  note "### Smoke: 256 B microbenchmark, all allocators";
  let size = 256 and total_ops = 4_000 in
  List.iter
    (fun threads ->
      List.iter
        (fun (f : Workloads.Factories.factory) ->
          let mops =
            Workloads.Microbench.run ~factory:f ~size ~threads ~total_ops ()
          in
          add_run
            ~label:(Printf.sprintf "%s-%dt" f.name threads)
            ~config:
              (J.Obj
                 [ ("allocator", J.Str f.name); ("threads", num threads);
                   ("size", num size); ("total_ops", num total_ops) ])
            (J.Obj [ ("mops", J.Num mops) ]);
          note "  %-12s %2d threads  %8.3f Mops/s" f.name threads mops)
        (factories ()))
    [ 1; 4 ];
  print_newline ();
  []

(* ---------- serving suites: shared scaffolding ---------- *)

module S = Service.Server

let make () = (Workloads.Factories.poseidon ()).Workloads.Factories.make ()

let reattach mach =
  Poseidon.instance
    (Poseidon.Heap.attach mach ~base:Workloads.Factories.heap_base ())

(* The load every serving suite starts from — 4 shards and 32 clients
   over 4096 keys of 128 B values, 64-deep shard queues — each suite
   overrides what it measures. *)
let base () =
  { S.default_config with
    S.clients = 32;
    duration = (if !full then 0.05 else 0.02) }

(* a run's label also names its metrics scope *)
let scope label = Printf.sprintf "bench/%s/%s" !suite label

(* One serving run, recorded as a BENCH run; [extra] is called after
   the run and adds its fields to the recorded run. *)
let run_one ?(extra = Fun.const []) label cfg =
  let cfg = { cfg with S.scope = scope label } in
  let r = S.run ~make ~reattach cfg in
  add_run ~extra:(extra ()) ~label ~config:(S.config_json cfg)
    (S.result_json r);
  r

(* The same on a primary/backup cluster. *)
let run_repl ?(extra = Fun.const []) label cfg rcfg =
  let cfg = { cfg with S.scope = scope label } in
  let rr =
    S.run_replicated ~make:Workloads.Factories.poseidon_on cfg rcfg
  in
  add_run ~extra:(extra ()) ~label ~config:(S.config_json cfg)
    (S.result_json ~repl:rr rr.S.base);
  rr

let gate = Obs.Bench.gate

(* ---------- service suite: poseidon-kv end-to-end ---------- *)

(* Offered-rate sweep over the sharded KV server plus one crash run:
   throughput vs goodput (they diverge once admission control sheds),
   client latency percentiles, and recovery time.  See lib/service. *)
let service_suite () =
  note "";
  note "### Service: poseidon-kv under open-loop simulated traffic";
  note "(throughput vs goodput per offered rate — the top rate is past";
  note " saturation, so admission control sheds; then a crash run with RTO)";
  let base () = { (base ()) with S.queue_capacity = 32 } in
  let table =
    Tablefmt.create ~title:"poseidon-kv: offered-rate sweep (4 shards)"
      ~columns:
        [ "offered req/s"; "throughput"; "goodput"; "shed"; "p50 ns";
          "p99 ns"; "p999 ns" ]
  in
  List.iter
    (fun rate ->
      let r =
        run_one (Printf.sprintf "rate-%.0f" rate) { (base ()) with S.rate }
      in
      Tablefmt.add_row table
        (Printf.sprintf "%.0f" rate)
        [ Printf.sprintf "%.0f" r.S.throughput;
          Printf.sprintf "%.0f" r.S.goodput;
          string_of_int r.S.shed;
          string_of_int r.S.latency.S.p50;
          string_of_int r.S.latency.S.p99;
          string_of_int r.S.latency.S.p999 ])
    [ 20_000.; 50_000.; 100_000.; 2_000_000. ];
  Tablefmt.print table;
  let r = run_one "crash" { (base ()) with S.crash_at = Some 0.5 } in
  note
    "  crash run: RTO %d ns; ledger %d checked, %d ambiguous, %d mismatch(es)"
    r.S.rto_ns r.S.ledger.S.checked r.S.ledger.S.ambiguous
    r.S.ledger.S.mismatches;
  []

(* ---------- replication suite: primary/backup on two machines ---------- *)

(* Same traffic harness on a two-machine cluster (lib/net +
   lib/replica): sync vs async clean runs expose the sync-mode latency
   tax; then the RTO experiment — one failover run (primary lost at
   50%, backup promoted) against one plain restart run (same store,
   same traffic, same seed, crash + re-attach + slot recovery).
   Promotion only seals the shipped log and replays the wire tail, so
   its RTO must come in under the full replay-on-restart path. *)
let replication_suite () =
  note "";
  note "### Replication: primary/backup log shipping, two-machine cluster";
  note "(sync vs async latency tax under identical zipfian traffic, then";
  note " promote-on-failover RTO vs replay-on-restart RTO, same seed)";
  let base () = { (base ()) with S.read_pct = 20; queue_capacity = 32 } in
  let sync_rcfg = S.default_repl_config in
  let async_rcfg = { S.default_repl_config with S.repl_mode = Replica.Async } in
  let sync_r = run_repl "sync-clean" (base ()) sync_rcfg in
  let async_r = run_repl "async-clean" (base ()) async_rcfg in
  let table =
    Tablefmt.create ~title:"poseidon-kv replicated: sync vs async (4 shards)"
      ~columns:
        [ "mode"; "throughput"; "goodput"; "p50 ns"; "p99 ns"; "max lag";
          "acked" ]
  in
  List.iter
    (fun (mode, (rr : S.repl_result)) ->
      let r = rr.S.base in
      Tablefmt.add_row table mode
        [ Printf.sprintf "%.0f" r.S.throughput;
          Printf.sprintf "%.0f" r.S.goodput;
          string_of_int r.S.latency.S.p50;
          string_of_int r.S.latency.S.p99;
          string_of_int rr.S.max_lag;
          string_of_int rr.S.acked_records ])
    [ ("sync", sync_r); ("async", async_r) ];
  Tablefmt.print table;
  note "  sync latency tax: p50 +%d ns, p99 +%d ns over async"
    (sync_r.S.base.S.latency.S.p50 - async_r.S.base.S.latency.S.p50)
    (sync_r.S.base.S.latency.S.p99 - async_r.S.base.S.latency.S.p99);
  let crashed = { (base ()) with S.crash_at = Some 0.5 } in
  let failover = run_repl "sync-failover" crashed sync_rcfg in
  let restart = run_one "restart-replay" crashed in
  let promote_rto = failover.S.base.S.rto_ns in
  note
    "  RTO: promote backup %d ns (%d tail record(s) replayed)  vs  \
     replay-on-restart %d ns"
    promote_rto failover.S.tail_replayed restart.S.rto_ns;
  note "  failover ledger: %d checked, %d ambiguous, %d mismatch(es)"
    failover.S.base.S.ledger.S.checked failover.S.base.S.ledger.S.ambiguous
    failover.S.base.S.ledger.S.mismatches;
  [ gate "promote_rto_lt_replay_rto" ~value:(num promote_rto)
      ~bound:(num restart.S.rto_ns)
      (promote_rto < restart.S.rto_ns) ]

(* ---------- batch suite: group commit + pipelined persistence ---------- *)

(* Sync replication pays a wire round trip per mutation before its
   reply may leave: [Kv.group_commit] ships inside the shard lock and
   releases it, and the reply parks on the primary until the backup's
   covering ack.  The handler serves on, but at most two groups per
   shard are in flight, so at saturating load the round trips bound
   each shard's mutation rate and the queue wait dwarfs the store
   itself.  Group commit amortizes that — one covering persist chain,
   one doorbell frame and ONE covering ack per group of consecutive
   queued mutations — so batched sync should land within ~2x of async
   p50 at the same offered load.  The sweep runs async and sync at
   identical rate/seed across batch windows; the gate demands some
   window make the 2x bar. *)
let batch_suite () =
  note "";
  note "### Group commit: batched sync vs async at identical offered load";
  note
    "(one flush + one covering ack per group; at window 1 the primary commits \
     groups of one, while the backup still applies and acks each record)";
  let repl label window mode =
    run_repl label
      { (base ()) with
        S.rate = 400_000.;
        read_pct = 20;
        batch_window = window }
      { S.default_repl_config with S.repl_mode = mode; wire_ns = 5_000 }
  in
  let async_r = repl "async" 1 Replica.Async in
  let windows = [ 1; 4; 8; 16; 32 ] in
  let sync_rs =
    List.map
      (fun w -> (w, repl (Printf.sprintf "sync-w%d" w) w Replica.Sync))
      windows
  in
  let table =
    Tablefmt.create
      ~title:"poseidon-kv sync group commit vs async (4 shards, same load)"
      ~columns:
        [ "run"; "window"; "goodput"; "p50 ns"; "p99 ns"; "shed"; "flushes" ]
  in
  let row label w (rr : S.repl_result) =
    let r = rr.S.base in
    Tablefmt.add_row table label
      [ string_of_int w;
        Printf.sprintf "%.0f" r.S.goodput;
        string_of_int r.S.latency.S.p50;
        string_of_int r.S.latency.S.p99;
        string_of_int r.S.shed;
        string_of_int rr.S.link_flushes ]
  in
  row "async" 1 async_r;
  List.iter (fun (w, rr) -> row (Printf.sprintf "sync-w%d" w) w rr) sync_rs;
  Tablefmt.print table;
  let async_p50 = async_r.S.base.S.latency.S.p50 in
  let best_w, best_rr =
    List.fold_left
      (fun (bw, (brr : S.repl_result)) (w, (rr : S.repl_result)) ->
        if rr.S.base.S.latency.S.p50 < brr.S.base.S.latency.S.p50 then (w, rr)
        else (bw, brr))
      (List.hd sync_rs) (List.tl sync_rs)
  in
  let best_p50 = best_rr.S.base.S.latency.S.p50 in
  note "  async p50 %d ns; best sync p50 %d ns at window %d (%.2fx async)"
    async_p50 best_p50 best_w
    (float_of_int best_p50 /. float_of_int (max 1 async_p50));
  [ gate "best_sync_p50_le_2x_async" ~value:(num best_p50)
      ~bound:(num (2 * async_p50))
      (best_p50 <= 2 * async_p50) ]

(* ---------- mvcc suite: lock-free snapshot reads ---------- *)

(* With mvcc off every get/scan queues for its shard lock behind the
   writers; with a version window the read path touches no lock at
   all, so (a) a read-heavy mix should sustain MORE throughput than
   the all-write baseline at the same offered load instead of merely
   tying it, and (b) the snapshot read itself must stay cheap — the
   sweep pairs a 95%-read run at window 0 against window 8 and gates
   snapshot read p50 within 1.25x of the plain read p50.  A scan-heavy
   run exercises the multi-shard merged scan, and a crash run shows
   snapshot serving changes nothing about recovery. *)
let mvcc_suite () =
  note "";
  note "### MVCC: lock-free snapshot reads vs the locked read path";
  note "(same offered load across read mixes; window 0 = plain path)";
  let table =
    Tablefmt.create
      ~title:"poseidon-kv MVCC read path (4 shards, window 8 vs plain)"
      ~columns:
        [ "run"; "window"; "goodput"; "shed"; "read p50"; "write p50";
          "scan p50" ]
  in
  let run ?crash_at label ~rate ~read ~scan ~window =
    let r =
      run_one label
        { (base ()) with
          S.rate;
          read_pct = read;
          scan_pct = scan;
          delete_pct = 0;
          mvcc_window = window;
          crash_at }
    in
    Tablefmt.add_row table label
      [ string_of_int window;
        Printf.sprintf "%.0f" r.S.goodput;
        string_of_int r.S.shed;
        string_of_int r.S.read_latency.S.p50;
        string_of_int r.S.write_latency.S.p50;
        string_of_int r.S.scan_latency.S.p50 ];
    r
  in
  (* saturating rate: the throughput comparison needs headroom to show *)
  let hot = 2_000_000. and warm = 50_000. in
  let write_all = run "write-all" ~rate:hot ~read:0 ~scan:0 ~window:8 in
  let _ = run "mix-50" ~rate:hot ~read:50 ~scan:0 ~window:8 in
  let read95 = run "read-95" ~rate:hot ~read:95 ~scan:0 ~window:8 in
  (* the overhead pair runs below saturation so read p50 measures the
     path, not the queue *)
  let plain_warm = run "read-95-plain" ~rate:warm ~read:95 ~scan:0 ~window:0 in
  let snap_warm = run "read-95-snap" ~rate:warm ~read:95 ~scan:0 ~window:8 in
  let _ = run "scan-heavy" ~rate:warm ~read:30 ~scan:50 ~window:8 in
  let crash =
    run "crash" ~crash_at:0.5 ~rate:warm ~read:60 ~scan:10 ~window:8
  in
  note "  crash run: RTO %d ns; ledger %d checked, %d mismatch(es)"
    crash.S.rto_ns crash.S.ledger.S.checked crash.S.ledger.S.mismatches;
  Tablefmt.print table;
  let plain_p50 = plain_warm.S.read_latency.S.p50
  and snap_p50 = snap_warm.S.read_latency.S.p50 in
  note "  plain read p50 %d ns; snapshot read p50 %d ns (%.2fx)" plain_p50
    snap_p50
    (float_of_int snap_p50 /. float_of_int (max 1 plain_p50));
  note "  all-write throughput %.0f; 95%%-read throughput %.0f (shed %d vs %d)"
    write_all.S.throughput read95.S.throughput read95.S.shed write_all.S.shed;
  [ gate "snapshot_read_p50_le_1.25x_plain" ~value:(num snap_p50)
      ~bound:(J.Num (1.25 *. float_of_int plain_p50))
      (4 * snap_p50 <= 5 * plain_p50);
    gate "read95_throughput_gt_write_all" ~value:(J.Num read95.S.throughput)
      ~bound:(J.Num write_all.S.throughput)
      (read95.S.throughput > write_all.S.throughput);
    gate "read95_shed_le_write_all" ~value:(num read95.S.shed)
      ~bound:(num write_all.S.shed)
      (read95.S.shed <= write_all.S.shed) ]

(* ---------- rcache suite: DRAM read-cache tier ---------- *)

(* With a read cache armed, a hot zipfian read mix answers most gets
   from a DRAM probe instead of walking the persistent B+-tree and
   digesting the NVMM value block.  The skew sweep (theta 0.6 / 0.9 /
   1.1 at a warm rate) runs 1024 entries/shard, an eighth of each
   shard's 8192 keys, so the cache must choose what to keep and the
   hit rate has to rise with skew — a cache holding every key would
   see only cold misses at every theta.  The gate pair reruns the same
   98%-read mix at theta 0.99 with 8192 entries at a HOT offered load,
   where the cheaper cached service time is the difference between a
   shard queue that drains and one that builds — cached read p50 must
   come in at or below 0.6x the uncached one — and a crash run shows
   the volatile cache changes nothing about recovery or the ledger. *)
let rcache_suite () =
  note "";
  note "### RCACHE: DRAM read-cache tier over the NVMM shards";
  note "(same 98%%-read mix across zipf skews; entries 0 = uncached path)";
  let base ?(rate = 600_000.) ?(duration = if !full then 0.08 else 0.06)
      ~theta ~entries () =
    { (base ()) with
      S.rate;
      duration;
      value_size = 512;
      (* every key present (absent keys return early and cache
         nothing), and the keyspace is sized so the per-shard working
         set overflows the simulated per-CPU hardware cache (8192
         direct-mapped lines): an uncached read then really pays the
         NVMM tree walk + value digest, which is exactly what the
         digest cache skips.  MVCC stays off — its version chains
         already memoize the digest of every mutated key, so the
         locked read path is where the cache earns its keep (the
         snapshot path's cache interplay is covered by the
         kv-rcache-put crashcheck sweep and the mvcc suite) *)
      keyspace = 32768;
      preload = 32768;
      zipf_theta = theta;
      read_pct = 98;
      scan_pct = 0;
      delete_pct = 0;
      mvcc_window = 0;
      rcache_entries = entries }
  in
  let hit_rate label =
    let g name =
      match Obs.Metrics.get_gauge ~scope:(scope label) name with
      | Some v -> v
      | None -> 0.
    in
    let hits = g "rcache_hits" and misses = g "rcache_misses" in
    if hits +. misses <= 0. then 0. else hits /. (hits +. misses)
  in
  let table =
    Tablefmt.create
      ~title:
        "poseidon-kv DRAM read cache (4 shards, 98% reads, entries/shard \
         as listed)"
      ~columns:
        [ "run"; "entries"; "zipf"; "goodput"; "hit rate"; "read p50";
          "write p50" ]
  in
  let run label (cfg : S.config) =
    let r =
      run_one label cfg ~extra:(fun () ->
          [ ("hit_rate", J.Num (hit_rate label)) ])
    in
    Tablefmt.add_row table label
      [ string_of_int cfg.S.rcache_entries;
        Printf.sprintf "%.2f" cfg.S.zipf_theta;
        Printf.sprintf "%.0f" r.S.goodput;
        Printf.sprintf "%.2f" (hit_rate label);
        string_of_int r.S.read_latency.S.p50;
        string_of_int r.S.write_latency.S.p50 ];
    r
  in
  (* the skew sweep runs below saturation so hit rate and read p50
     measure the path, not the queue *)
  let sweep =
    List.map
      (fun theta ->
        let label = Printf.sprintf "zipf-%.1f" theta in
        ignore (run label (base ~theta ~entries:1024 ()));
        hit_rate label)
      [ 0.6; 0.9; 1.1 ]
  in
  (* the gate pair runs HOT: at this offered load the uncached read
     path's service time backs the shard queues up, while cache hits
     keep them drained — the latency a read cache actually buys a
     loaded store *)
  let hot = 2_400_000. and hot_dur = 0.24 in
  let uncached =
    run "hot-uncached"
      (base ~rate:hot ~duration:hot_dur ~theta:0.99 ~entries:0 ())
  in
  let cached =
    run "hot-cached"
      (base ~rate:hot ~duration:hot_dur ~theta:0.99 ~entries:8192 ())
  in
  let crash =
    run "crash"
      { (base ~theta:0.99 ~entries:8192 ()) with S.crash_at = Some 0.5 }
  in
  note "  crash run: RTO %d ns; ledger %d checked, %d mismatch(es)"
    crash.S.rto_ns crash.S.ledger.S.checked crash.S.ledger.S.mismatches;
  Tablefmt.print table;
  let un_p50 = uncached.S.read_latency.S.p50
  and c_p50 = cached.S.read_latency.S.p50 in
  note "  uncached service p50 %d ns; cached service p50 %d ns"
    uncached.S.service.S.p50 cached.S.service.S.p50;
  note "  uncached read p50 %d ns; cached read p50 %d ns (%.2fx, hit rate %.2f)"
    un_p50 c_p50
    (float_of_int c_p50 /. float_of_int (max 1 un_p50))
    (hit_rate "hot-cached");
  let rec rising = function
    | a :: (b :: _ as rest) -> a < b && rising rest
    | _ -> true
  in
  [ gate "cached_read_p50_le_0.6x_uncached" ~value:(num c_p50)
      ~bound:(J.Num (0.6 *. float_of_int un_p50))
      (5 * c_p50 <= 3 * un_p50);
    gate "sweep_hit_rate_rises_with_skew"
      ~value:(J.Arr (List.map (fun h -> J.Num h) sweep))
      ~bound:(J.Str "strictly increasing") (rising sweep) ]

(* ---------- alloc suite: DRAM magazine-cache fast path ---------- *)

(* The tcache wrapper turns the common allocation into a volatile bin
   pop (no NVMM write, no fence) with batched refills and bulk frees,
   so (a) the per-op simulated latency of a steady-state alloc/free
   mix must drop sharply against the raw allocator — the gate demands
   a >= 25% alloc p50 reduction — and (b) an end-to-end write-heavy
   serve run with --tcache-mag K must beat the same-seed mag-0 run on
   write (put) p50.  A crash run shows cached serving changes nothing
   about recovery. *)
let alloc_suite () =
  note "";
  note "### Allocation fast path: magazine cache vs raw allocator";
  note "(steady-state 64 B alloc/free mix, one simulated thread)";
  let mag = 8 in
  (* micro: per-op simulated ns, measured inside the simulation *)
  let micro ~cached =
    let mach, raw = make () in
    let inst = if cached then fst (Tcache.wrap ~mag raw) else raw in
    let n = scale 2000 in
    let window = 64 in
    let alloc_ns = Array.make n 0 and free_ns = Array.make n 0 in
    ignore
      (Machine.parallel mach ~threads:1 (fun _ ->
           let live = Array.make window Alloc_intf.null in
           (* warm the bins and the allocator's hash path *)
           for k = 0 to window - 1 do
             live.(k) <- Option.get (Alloc_intf.i_alloc inst 64)
           done;
           for k = 0 to n - 1 do
             let slot = k mod window in
             let t0 = Simcore.Sched.now () in
             Alloc_intf.i_free inst live.(slot);
             let t1 = Simcore.Sched.now () in
             (match Alloc_intf.i_alloc inst 64 with
              | Some p -> live.(slot) <- p
              | None -> failwith "bench alloc: out of memory");
             let t2 = Simcore.Sched.now () in
             free_ns.(k) <- t1 - t0;
             alloc_ns.(k) <- t2 - t1
           done));
    let p50 a =
      let a = Array.copy a in
      Array.sort compare a;
      a.(Array.length a / 2)
    in
    let mean a =
      float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int n
    in
    let block a =
      J.Obj
        [ ("p50", num (p50 a)); ("mean", J.Num (mean a)); ("samples", num n) ]
    in
    add_run
      ~label:(if cached then "micro-tcache" else "micro-raw")
      ~config:
        (J.Obj
           [ ("tcache_mag", num (if cached then mag else 0));
             ("size", num 64); ("ops", num n); ("live", num window) ])
      (J.Obj [ ("alloc", block alloc_ns); ("free", block free_ns) ]);
    (p50 alloc_ns, mean alloc_ns, p50 free_ns, mean free_ns)
  in
  let raw_p50, raw_mean, raw_fp50, raw_fmean = micro ~cached:false in
  let tc_p50, tc_mean, tc_fp50, tc_fmean = micro ~cached:true in
  let table =
    Tablefmt.create
      ~title:(Printf.sprintf "64 B alloc/free latency (mag %d)" mag)
      ~columns:
        [ "path"; "alloc p50"; "alloc mean"; "free p50"; "free mean" ]
  in
  Tablefmt.add_row table "raw"
    [ string_of_int raw_p50; Printf.sprintf "%.0f" raw_mean;
      string_of_int raw_fp50; Printf.sprintf "%.0f" raw_fmean ];
  Tablefmt.add_row table "tcache"
    [ string_of_int tc_p50; Printf.sprintf "%.0f" tc_mean;
      string_of_int tc_fp50; Printf.sprintf "%.0f" tc_fmean ];
  Tablefmt.print table;
  note "  alloc p50: %d ns raw -> %d ns cached (%.2fx)" raw_p50 tc_p50
    (float_of_int tc_p50 /. float_of_int (max 1 raw_p50));
  (* end-to-end: write-heavy serving, same seed, mag K vs mag 0 *)
  let stable =
    Tablefmt.create
      ~title:"poseidon-kv write-heavy serving (4 shards, saturating)"
      ~columns:[ "run"; "mag"; "goodput"; "write p50"; "write p99" ]
  in
  let run ?crash_at label ~tcache_mag =
    let r =
      run_one label
        { (base ()) with
          S.rate = 2_000_000.;
          read_pct = 0;
          scan_pct = 0;
          delete_pct = 10;
          tcache_mag;
          crash_at }
    in
    Tablefmt.add_row stable label
      [ string_of_int tcache_mag;
        Printf.sprintf "%.0f" r.S.goodput;
        string_of_int r.S.write_latency.S.p50;
        string_of_int r.S.write_latency.S.p99 ];
    r
  in
  let plain = run "serve-mag0" ~tcache_mag:0 in
  let cached = run "serve-tcache" ~tcache_mag:mag in
  let crash = run "serve-tcache-crash" ~crash_at:0.5 ~tcache_mag:mag in
  Tablefmt.print stable;
  note "  crash run: RTO %d ns; ledger %d checked, %d mismatch(es)"
    crash.S.rto_ns crash.S.ledger.S.checked crash.S.ledger.S.mismatches;
  let plain_w50 = plain.S.write_latency.S.p50
  and tc_w50 = cached.S.write_latency.S.p50 in
  note "  serve write p50: %d ns mag 0 -> %d ns mag %d (%.2fx)" plain_w50
    tc_w50 mag
    (float_of_int tc_w50 /. float_of_int (max 1 plain_w50));
  [ gate "tcache_alloc_p50_le_0.75x_raw" ~value:(num tc_p50)
      ~bound:(J.Num (0.75 *. float_of_int raw_p50))
      (4 * tc_p50 <= 3 * raw_p50);
    gate "tcache_write_p50_lt_mag0" ~value:(num tc_w50) ~bound:(num plain_w50)
      (tc_w50 < plain_w50) ]

(* ---------- txn suite: cross-shard 2PC transactions ---------- *)

(* Same traffic harness with a transactional mix (server --txn-pct):
   a single-op baseline against transactional mixes at identical seed
   and offered rate exposes the 2PC tax — commit latency vs single-op
   latency, abort rate.  A 16-shard run of small transactions shows
   whether disjoint transactions commit in parallel, each on its
   lowest participant's decided word.  A crash run checks that
   recovery keeps every transaction atomic (the ledger treats a txn's
   keys as one all-or-nothing group). *)
let txn_suite () =
  note "";
  note "### Transactions: cross-shard 2PC over poseidon-kv";
  note "(single-op baseline vs transactional mixes, same seed and rate:";
  note " abort rate and the commit-latency tax of 2PC on the shards' own";
  note " slots; then a crash run — atomicity must survive recovery)";
  let baseline = run_one "baseline" (base ()) in
  let table =
    Tablefmt.create ~title:"poseidon-kv: transactional mixes (4 shards)"
      ~columns:
        [ "mix"; "goodput"; "committed"; "aborted"; "abort %"; "txn p50 ns";
          "txn p99 ns" ]
  in
  Tablefmt.add_row table "baseline"
    [ Printf.sprintf "%.0f" baseline.S.goodput; "-"; "-"; "-";
      string_of_int baseline.S.latency.S.p50;
      string_of_int baseline.S.latency.S.p99 ];
  let mixes =
    List.map
      (fun (label, pct, ops) ->
        let cfg = { (base ()) with S.txn_pct = pct; txn_ops = ops } in
        let cfg =
          if pct = 100 then
            { cfg with S.read_pct = 0; delete_pct = 0; scan_pct = 0 }
          else cfg
        in
        let r = run_one label cfg in
        let attempts = r.S.txns_committed + r.S.txns_aborted in
        Tablefmt.add_row table label
          [ Printf.sprintf "%.0f" r.S.goodput;
            string_of_int r.S.txns_committed;
            string_of_int r.S.txns_aborted;
            Printf.sprintf "%.1f"
              (100.0 *. float_of_int r.S.txns_aborted
              /. Float.max 1.0 (float_of_int attempts));
            string_of_int r.S.txn_latency.S.p50;
            string_of_int r.S.txn_latency.S.p99 ];
        (label, r))
      [ ("txn25-2op", 25, 2); ("txn25-4op", 25, 4); ("txn100-4op", 100, 4) ]
  in
  Tablefmt.print table;
  (match List.assoc_opt "txn25-2op" mixes with
   | Some r when r.S.txn_latency.S.samples > 0 ->
     note "  2PC tax (25%% mix, 2 ops): txn p50 %d ns vs baseline single-op \
           p50 %d ns"
       r.S.txn_latency.S.p50 baseline.S.latency.S.p50
   | _ -> ());
  (* many shards, small transactions: most pairs of transactions share
     no participant, so nothing but their inboxes orders them *)
  let wide =
    run_one "txn90-2op-16shard"
      { (base ()) with
        S.shards = 16;
        rate = 400_000.;
        duration = 0.01;
        txn_pct = 90;
        txn_ops = 2;
        read_pct = 0;
        scan_pct = 0;
        zipf_theta = 0.;
        keyspace = 65536 }
  in
  note "  16 shards, 90%% 2-op txns: %d committed, txn p50 %d ns, p99 %d ns"
    wide.S.txns_committed wide.S.txn_latency.S.p50 wide.S.txn_latency.S.p99;
  let crash =
    run_one "crash"
      { (base ()) with S.txn_pct = 25; txn_ops = 3; crash_at = Some 0.5 }
  in
  note
    "  crash run: %d committed / %d aborted before+after; RTO %d ns; ledger \
     %d checked, %d ambiguous, %d mismatch(es)"
    crash.S.txns_committed crash.S.txns_aborted crash.S.rto_ns
    crash.S.ledger.S.checked crash.S.ledger.S.ambiguous
    crash.S.ledger.S.mismatches;
  []

(* ---------- attrib suite: where does the time go? ---------- *)

(* The tracing tentpole's payoff: identical zipfian traffic (same seed,
   same offered load) run unreplicated, async- and sync-replicated,
   single-op and all-transaction, each with the span store on.  The
   per-run latency budget (Obs.Attrib over the span trees) then names
   the stage that dominates each configuration's critical path — so
   the two headline taxes stop being mystery multiples: sync
   replication's latency multiple must be pinned on the group-commit
   ack wait (repl_ack) and the 2PC commit tax on the transaction
   critical section (txn).  A budget that explains < 90% of
   end-to-end time fails the run: it means the stage taxonomy has a
   hole, and the numbers above it can't be trusted. *)
let attrib_suite () =
  note "";
  note "### Attribution: per-stage latency budgets (where does the time go?)";
  note "(same seed and offered load, five configurations; span trees name";
  note " the dominant stage of each one's critical path)";
  let module A = Obs.Attrib in
  (* below saturation: attribution should explain service time, not
     admission queueing (that regime is the service suite's job) *)
  let base () = { (base ()) with S.rate = 20_000.; read_pct = 20 } in
  let txn cfg =
    { cfg with
      S.txn_pct = 100;
      txn_ops = 3;
      read_pct = 0;
      delete_pct = 0;
      scan_pct = 0 }
  in
  let reports = ref [] in
  let traced ?repl label cfg =
    Obs.Span.clear ();
    Obs.Span.start ();
    let extra () =
      let att = A.analyze () in
      Obs.Span.clear ();
      reports := (label, att) :: !reports;
      [ ("attribution", A.report_json att) ]
    in
    (match repl with
     | None -> ignore (run_one ~extra label cfg)
     | Some rcfg -> ignore (run_repl ~extra label cfg rcfg));
    List.assoc label !reports
  in
  let sync_rcfg = S.default_repl_config in
  let async_rcfg = { S.default_repl_config with S.repl_mode = Replica.Async } in
  let ua = traced "single-unrepl" (base ()) in
  let _ = traced "single-async" ~repl:async_rcfg (base ()) in
  let sa = traced "single-sync" ~repl:sync_rcfg (base ()) in
  let ta = traced "txn-unrepl" (txn (base ())) in
  let _ = traced "txn-sync" ~repl:sync_rcfg (txn (base ())) in
  let reports = List.rev !reports in
  let table =
    Tablefmt.create
      ~title:"poseidon-kv latency budgets (4 shards, same seed and load)"
      ~columns:
        [ "run"; "e2e p50 ns"; "coverage"; "dominant stage"; "dom p50 ns" ]
  in
  List.iter
    (fun (label, (att : A.report)) ->
      let dom, dp50 =
        match A.dominant_stage att with
        | Some row ->
          (Obs.Span.stage_name row.A.stage, string_of_int row.A.p50_ns)
        | None -> ("-", "-")
      in
      Tablefmt.add_row table label
        [ string_of_int att.A.e2e_p50_ns;
          Printf.sprintf "%.1f%%" (100. *. att.A.coverage);
          dom; dp50 ])
    reports;
  Tablefmt.print table;
  let mult a b = float_of_int a /. Float.max 1.0 (float_of_int b) in
  (* a tax is pinned on the budget stage whose summed time grew most
     over the same-seed baseline — the per-run dominant vote answers a
     different question (where a typical request's time goes) and can
     be carried by requests the tax never touches (e.g. reads under
     sync replication) *)
  let tax_name (n : A.report) (d : A.report) =
    let base st =
      match
        List.find_opt (fun (r : A.stage_row) -> r.A.stage = st) d.A.budget
      with
      | Some r -> r.A.total_ns
      | None -> 0
    in
    List.fold_left
      (fun acc (row : A.stage_row) ->
        let delta = row.A.total_ns - base row.A.stage in
        match acc with
        | Some (_, best) when best >= delta -> acc
        | _ -> Some (row.A.stage, delta))
      None n.A.budget
    |> Option.fold ~none:"-" ~some:(fun (st, _) -> Obs.Span.stage_name st)
  in
  note
    "  sync-replication tax: e2e p50 %d ns vs %d ns unreplicated (%.1fx) — \
     dominated by %s"
    sa.A.e2e_p50_ns ua.A.e2e_p50_ns
    (mult sa.A.e2e_p50_ns ua.A.e2e_p50_ns)
    (tax_name sa ua);
  note
    "  2PC commit tax: all-txn e2e p50 %d ns vs single-op %d ns (%.1fx) — \
     dominated by %s"
    ta.A.e2e_p50_ns ua.A.e2e_p50_ns
    (mult ta.A.e2e_p50_ns ua.A.e2e_p50_ns)
    (tax_name ta ua);
  let pin name n stage =
    let blamed = tax_name n ua in
    gate name ~value:(J.Str blamed) ~bound:(J.Str stage) (blamed = stage)
  in
  pin "sync_tax_stage" sa "repl_ack"
  :: pin "txn_tax_stage" ta "txn"
  :: List.filter_map
       (fun (label, (att : A.report)) ->
         if att.A.requests = 0 then None
         else
           Some
             (gate ("coverage_ge_0.9/" ^ label) ~value:(J.Num att.A.coverage)
                ~bound:(J.Num 0.9)
                (att.A.coverage >= 0.9)))
       reports

(* ---------- driver ---------- *)

(* The named suites: what each measures, and the suite.  A suite
   records its runs through [add_run] and returns its declared gates;
   the last line of [--suite]'s help lists the names for scripts. *)
let suites =
  [ ("service", ("poseidon-kv rate sweep + crash run", service_suite));
    ( "replication",
      ("sync/async latency tax + promote-vs-replay RTO", replication_suite) );
    ("txn", ("cross-shard 2PC abort rate + commit-latency tax", txn_suite));
    ("attrib", ("per-stage latency budgets + tax pins", attrib_suite));
    ("batch", ("group-commit window sweep vs async p50", batch_suite));
    ("mvcc", ("read-mix sweep + snapshot-read overhead", mvcc_suite));
    ("alloc", ("magazine-cache alloc p50 + serve write p50", alloc_suite));
    ("rcache", ("read-cache skew sweep + cached-read p50", rcache_suite));
    ("smoke", ("256 B microbenchmark on every allocator", smoke_suite)) ]

let figures_run () =
  let default = !figures = [] && !ablations = [] in
  let run_fig n = default || List.mem n !figures in
  let run_abl s = default || List.mem s !ablations in
  if run_fig 3 then figure3 ();
  if run_fig 6 then figure6 ();
  if run_fig 7 then figure7 ();
  if run_fig 8 then figure8 ();
  if run_fig 9 then figure9 ();
  if run_abl "index" then ablation_index ();
  if run_abl "capacity" then ablation_capacity ();
  if run_abl "costs" then ablation_costs ();
  if run_abl "subheap" then ablation_subheap_mpk ();
  if run_abl "ycsb-abc" then extension_ycsb_abc ();
  if run_abl "trace" then extension_trace_replay ();
  if run_abl "remote-free" then extension_remote_free ();
  if run_abl "exthash" then extension_exthash ();
  []

(* Every suite's first gate: no run lost an acked write — neither the
   serving store nor, wherever one was checked, the backup. *)
let ledger_gate runs =
  let count run path =
    match
      List.fold_left (fun v k -> Option.bind v (J.member k)) (Some run) path
    with
    | Some (J.Num n) -> int_of_float n
    | _ -> 0
  in
  let n =
    List.fold_left
      (fun acc run ->
        acc
        + count run [ "result"; "ledger"; "mismatches" ]
        + count run [ "result"; "replication"; "backup_ledger"; "mismatches" ])
      0 runs
  in
  gate "ledger_mismatches" ~value:(num n) ~bound:(num 0) (n <= 0)

let write_doc file doc =
  match open_out file with
  | exception Sys_error msg ->
    Printf.eprintf "bench: cannot write metrics snapshot: %s\n" msg;
    exit 1
  | oc ->
    output_string oc (J.to_string doc);
    output_char oc '\n';
    close_out oc;
    note "metrics snapshot written to %s" file

let () =
  let usage =
    "bench/main.exe [--figure N]... [--ablation NAME]... [--suite NAME] \
     [--full] [--threads LIST] [--json-out FILE]"
  in
  let spec =
    [ ( "--figure",
        Arg.Int (fun n -> figures := n :: !figures),
        "N  run only figure N (3, 6, 7, 8 or 9); repeatable" );
      ( "--ablation",
        Arg.String (fun s -> ablations := s :: !ablations),
        "NAME  run only ablation NAME (index, subheap); repeatable" );
      ("--full", Arg.Set full, " paper-scale parameters (slow)");
      ( "--threads",
        Arg.String
          (fun s ->
            thread_counts := List.map int_of_string (String.split_on_char ',' s)),
        "LIST  comma-separated thread counts" );
      ( "--suite",
        Arg.Set_string suite,
        "NAME  run one named suite instead of the figures; it exits 1,\n\
        \        after writing its snapshot, if any declared gate fails:\n"
        ^ String.concat ""
            (List.map
               (fun (name, (doc, _)) ->
                 Printf.sprintf "          %-12s %s\n" name doc)
               suites)
        ^ "        suites: "
        ^ String.concat " " (List.map fst suites) );
      ( "--json-out",
        Arg.Set_string json_out,
        "FILE  snapshot destination (default BENCH_<suite>.json; without \
         --suite the suite is 'figures')" ) ]
  in
  Arg.parse spec (fun _ -> ()) usage;
  note "Poseidon reproduction benchmark suite";
  note "(simulated 64-CPU, 2-NUMA-node machine with Optane-like NVMM;";
  note " see DESIGN.md and EXPERIMENTS.md for the methodology)";
  if !suite = "" then suite := "figures";
  let gates =
    match List.assoc_opt !suite suites with
    | Some (_, run) -> run ()
    | None when !suite = "figures" -> figures_run ()
    | None ->
      Printf.eprintf "bench: unknown suite %S (known: %s)\n" !suite
        (String.concat ", " (List.map fst suites));
      exit 2
  in
  let runs = List.rev !runs in
  let gates = ledger_gate runs :: gates in
  let config =
    ("full", J.Bool !full)
    ::
    (if !suite <> "figures" then []
     else
       [ ("threads", J.Arr (List.map num !thread_counts));
         ("figures", J.Arr (List.map num !figures));
         ("ablations", J.Arr (List.map (fun s -> J.Str s) !ablations)) ])
  in
  write_doc
    (if !json_out = "" then Printf.sprintf "BENCH_%s.json" !suite
     else !json_out)
    (Obs.Bench.doc ~suite:!suite ~config:(J.Obj config) ~runs ~gates);
  let failed = List.filter (fun (g : Obs.Bench.gate) -> not g.pass) gates in
  List.iter
    (fun (g : Obs.Bench.gate) ->
      Printf.eprintf "bench %s: GATE FAILED — %s: value %s, bound %s\n" !suite
        g.name (J.to_string g.value) (J.to_string g.bound))
    failed;
  if failed <> [] then exit 1
