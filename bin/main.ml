(* poseidon-repro: command-line front end for the reproduction.

   Subcommands:
     bench      run one workload on one allocator with explicit knobs
     safety     print the Fig. 3 safety matrix
     stress     random alloc/free/crash torture with invariant checking
     crashcheck systematic persistency model checking (every crash point)
     inspect    allocate a workload and dump device/MPK counters
     fsck       run a workload and print a heap consistency report
     trace      replay one recorded trace on every allocator

   (Figure regeneration lives in bench/main.exe; this tool is for
   interactive poking.) *)

open Cmdliner

let allocator_conv =
  let parse = function
    | "poseidon" -> Ok `Poseidon
    | "pmdk" -> Ok `Pmdk
    | "makalu" -> Ok `Makalu
    | s -> Error (`Msg (Printf.sprintf "unknown allocator %S" s))
  in
  let print ppf a =
    Format.pp_print_string ppf
      (match a with `Poseidon -> "poseidon" | `Pmdk -> "pmdk" | `Makalu -> "makalu")
  in
  Arg.conv (parse, print)

let factory_of = function
  | `Poseidon -> Workloads.Factories.poseidon ()
  | `Pmdk -> Workloads.Factories.pmdk ()
  | `Makalu -> Workloads.Factories.makalu ()

let allocator_arg =
  Arg.(
    value
    & opt allocator_conv `Poseidon
    & info [ "a"; "allocator" ] ~docv:"NAME"
        ~doc:"Allocator under test: poseidon, pmdk or makalu.")

let threads_arg =
  Arg.(
    value
    & opt int 8
    & info [ "t"; "threads" ] ~docv:"N" ~doc:"Simulated threads.")

let workload_conv =
  Arg.enum
    [ ("micro", `Micro); ("larson", `Larson); ("ackermann", `Ackermann);
      ("kruskal", `Kruskal); ("nqueens", `Nqueens); ("ycsb", `Ycsb) ]

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record a simulated-time event trace of the run and write it to \
           $(docv) as Chrome trace-event JSON (load in Perfetto or \
           chrome://tracing).")

(* Tracing brackets the whole subcommand so setup, crash injection and
   recovery all land in the trace, not just the steady state. *)
let with_tracing trace_out f =
  if trace_out <> None then Obs.Trace.start ();
  let r = f () in
  match trace_out with
  | None -> r
  | Some file ->
    Obs.Trace.stop ();
    let r =
      try
        Obs.Trace.write_chrome file;
        let dropped = Obs.Trace.dropped () in
        Printf.printf "trace: %d events -> %s (%d emitted, %d dropped)\n"
          (Obs.Trace.count ()) file
          (Obs.Trace.total_emitted ())
          dropped;
        if dropped > 0 then
          Printf.printf
            "trace: WARNING: ring overflowed — the oldest %d event(s) were \
             overwritten and are missing from %s (raise the ring capacity or \
             trace a shorter run)\n"
            dropped file;
        let span_dropped = Obs.Span.dropped () in
        if span_dropped > 0 then
          Printf.printf
            "trace: WARNING: span store filled — %d span(s) dropped; the \
             exported span trees are incomplete\n"
            span_dropped;
        r
      with Sys_error msg ->
        Printf.eprintf "trace: cannot write trace file: %s\n" msg;
        1
    in
    Obs.Trace.clear ();
    r

(* ---------- bench ---------- *)

let bench_cmd =
  let workload_arg =
    Arg.(
      value
      & opt workload_conv `Micro
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:"Workload: micro, larson, ackermann, kruskal, nqueens, ycsb.")
  in
  let size_arg =
    Arg.(
      value
      & opt int 256
      & info [ "s"; "size" ] ~docv:"BYTES"
          ~doc:"Object size (micro workload only).")
  in
  let ops_arg =
    Arg.(
      value
      & opt int 20_000
      & info [ "n"; "ops" ] ~docv:"N" ~doc:"Total operations / iterations.")
  in
  let run allocator threads workload size ops trace_out =
    with_tracing trace_out @@ fun () ->
    let factory = factory_of allocator in
    let name = factory.Workloads.Factories.name in
    (match workload with
     | `Micro ->
       let mops =
         Workloads.Microbench.run ~factory ~size ~threads ~total_ops:ops ()
       in
       Printf.printf "%s micro %dB x%d: %.3f Mops/s\n" name size threads mops
     | `Larson ->
       let ops_s =
         Workloads.Larson.run ~factory ~threads ~duration_s:0.005 ()
       in
       Printf.printf "%s larson x%d: %.0f ops/s\n" name threads ops_s
     | `Ackermann ->
       let mops =
         Workloads.Ackermann.run ~factory ~threads ~iterations:(max 1 (ops / 100)) ()
       in
       Printf.printf "%s ackermann x%d: %.4f Miter/s\n" name threads mops
     | `Kruskal ->
       let mops = Workloads.Kruskal.run ~factory ~threads ~iterations:ops () in
       Printf.printf "%s kruskal x%d: %.4f Miter/s\n" name threads mops
     | `Nqueens ->
       let mops = Workloads.Nqueens.run ~factory ~threads ~iterations:ops () in
       Printf.printf "%s nqueens x%d: %.4f Miter/s\n" name threads mops
     | `Ycsb ->
       let r =
         Workloads.Ycsb.run ~factory ~threads ~records:(max 100 (ops / 2))
           ~operations:ops ()
       in
       Printf.printf "%s ycsb x%d: load %.3f Mops/s, workload A %.3f Mops/s\n"
         name threads r.Workloads.Ycsb.load_mops r.Workloads.Ycsb.a_mops);
    0
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one workload on one allocator.")
    Term.(
      const run $ allocator_arg $ threads_arg $ workload_arg $ size_arg
      $ ops_arg $ trace_out_arg)

(* ---------- safety ---------- *)

let safety_cmd =
  let run () =
    List.iter
      (fun row ->
        Printf.printf "%s\n" row.Workloads.Safety.attack;
        List.iter
          (fun (name, o) ->
            Printf.printf "  %-12s %s\n" name
              (Workloads.Safety.outcome_to_string o))
          row.Workloads.Safety.results)
      (Workloads.Safety.matrix ());
    0
  in
  Cmd.v
    (Cmd.info "safety"
       ~doc:"Replay the paper's Fig. 3 corruption attacks on every allocator.")
    Term.(const run $ const ())

(* ---------- stress ---------- *)

let stress_cmd =
  let rounds_arg =
    Arg.(
      value & opt int 50
      & info [ "r"; "rounds" ] ~docv:"N" ~doc:"Crash/recovery rounds.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
  in
  let run rounds seed trace_out =
    with_tracing trace_out @@ fun () ->
    let module Prng = Repro_util.Prng in
    let base = 1 lsl 30 in
    let mach = Machine.create () in
    let heap =
      ref
        (Poseidon.Heap.create mach ~base ~size:(1 lsl 34) ~heap_id:1
           ~sub_data_size:(1 lsl 20) ())
    in
    let rng = Prng.create seed in
    let dev = Machine.dev mach in
    for round = 1 to rounds do
      for _ = 1 to 20 + Prng.int rng 50 do
        if Prng.bool rng then
          ignore (Poseidon.Heap.alloc !heap (32 lsl Prng.int rng 8))
        else ignore (Poseidon.Heap.tx_alloc !heap 64 ~is_end:(Prng.bool rng))
      done;
      let strict = Prng.bool rng in
      (* on failure, report where we were before re-raising: the round,
         seed and crash mode are what a reproduction needs *)
      (try
         Nvmm.Memdev.crash dev (if strict then `Strict else `Adversarial rng);
         heap := Poseidon.Heap.attach mach ~base ();
         Poseidon.Heap.check_invariants !heap
       with e ->
         Printf.eprintf
           "stress: FAILED at round %d/%d (seed %d, crash mode %s): %s\n%!"
           round rounds seed
           (if strict then "strict" else "adversarial")
           (Printexc.to_string e);
         raise e);
      if round mod 10 = 0 then
        Printf.printf "round %d: invariants OK (live=%d bytes)\n%!" round
          (Poseidon.Heap.stats !heap).Poseidon.Heap.live_bytes
    done;
    Printf.printf "stress: %d crash/recovery rounds, all invariants held\n"
      rounds;
    0
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:"Random allocation/crash/recovery torture with invariant checks.")
    Term.(const run $ rounds_arg $ seed_arg $ trace_out_arg)

(* ---------- crashcheck ---------- *)

let crashcheck_cmd =
  let scenario_arg =
    let names seeded_bug =
      String.concat ", "
        (List.filter_map
           (fun (name, _, bug) -> if bug = seeded_bug then Some name else None)
           Crashcheck.scenarios)
    in
    Arg.(
      value & opt string "all"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Scenario to explore: %s, or all (every one of those).  \
                Deliberately buggy, for mutation sanity checks: %s."
               (names false) (names true)))
  in
  let max_points_arg =
    Arg.(
      value & opt int 0
      & info [ "max-points" ] ~docv:"N"
          ~doc:
            "Budget: explore at most $(docv) crash points per scenario \
             (evenly strided); 0 = exhaustive.")
  in
  let subsets_arg =
    Arg.(
      value & opt int 2
      & info [ "subsets" ] ~docv:"N"
          ~doc:
            "Budget: adversarial dirty-line subsets tried per crash point, \
             in addition to the dirty-lost-all crash.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S" ~doc:"Base seed for subset derivation.")
  in
  let point_arg =
    Arg.(
      value & opt (some int) None
      & info [ "point" ] ~docv:"K"
          ~doc:
            "Replay a single crash at persistence point $(docv) of the \
             chosen scenario instead of sweeping (counterexample replay).")
  in
  let subset_seed_arg =
    Arg.(
      value & opt (some int) None
      & info [ "subset-seed" ] ~docv:"S"
          ~doc:
            "With --point: crash in dirty-subset mode with this derived \
             seed (as printed in the counterexample); omit for \
             dirty-lost-all.")
  in
  let run scenario max_points subsets seed point subset_seed trace_out =
    with_tracing trace_out @@ fun () ->
    let module C = Crashcheck in
    let scenarios =
      if scenario = "all" then Ok (C.all_scenarios ())
      else
        match C.scenario_by_name scenario with
        | Some s -> Ok [ s ]
        | None -> Error (Printf.sprintf "unknown scenario %S" scenario)
    in
    match scenarios with
    | Error msg ->
      Printf.eprintf "crashcheck: %s\n" msg;
      2
    | Ok scenarios -> (
      match point with
      | Some point -> (
        match scenarios with
        | [ scn ] -> (
          let mode =
            match subset_seed with
            | Some s -> C.Dirty_subset s
            | None -> C.Dirty_lost_all
          in
          match C.check_point scn ~point ~mode with
          | None ->
            Printf.printf
              "crashcheck: %s point %d (%s): recovery verified, all oracles \
               green\n"
              scn.C.sname point (C.mode_to_string mode);
            0
          | Some cx ->
            Format.printf "%a@." C.pp_counterexample cx;
            1)
        | _ ->
          Printf.eprintf
            "crashcheck: --point needs a single --scenario, not 'all'\n";
          2)
      | None ->
        let reports =
          List.map
            (fun scn ->
              let r =
                C.run ~max_points ~subsets_per_point:subsets ~seed scn
              in
              Format.printf "%a@." C.pp_report r;
              r)
            scenarios
        in
        let points =
          List.fold_left (fun a r -> a + r.C.points_explored) 0 reports
        and subsets_tried =
          List.fold_left (fun a r -> a + r.C.subsets_tried) 0 reports
        and verified =
          List.fold_left (fun a r -> a + r.C.recoveries_verified) 0 reports
        and cexs = List.concat_map (fun r -> r.C.counterexamples) reports in
        Printf.printf
          "crashcheck: %d crash points explored, %d subsets tried, %d \
           recoveries verified, %d counterexample(s)\n"
          points subsets_tried verified (List.length cexs);
        List.iter
          (fun cx ->
            Printf.printf
              "replay: poseidon-repro crashcheck --scenario %s --point %d%s \
               --trace-out cex.json\n"
              cx.C.cx_scenario cx.C.cx_point
              (match cx.C.cx_mode with
               | C.Dirty_lost_all -> ""
               | C.Dirty_subset s -> Printf.sprintf " --subset-seed %d" s))
          cexs;
        if cexs = [] then 0 else 1)
  in
  Cmd.v
    (Cmd.info "crashcheck"
       ~doc:
         "Systematic persistency model checking: crash at every persistence \
          point of each covered heap operation (dirty-lost-all plus seeded \
          adversarial dirty-line subsets), recover, and verify \
          durability/atomicity oracles.")
    Term.(
      const run $ scenario_arg $ max_points_arg $ subsets_arg $ seed_arg
      $ point_arg $ subset_seed_arg $ trace_out_arg)

(* ---------- inspect ---------- *)

let inspect_cmd =
  let tcache_mag_arg =
    Arg.(
      value & opt int 0
      & info [ "tcache-mag" ] ~docv:"K"
          ~doc:
            "Magazine size of the DRAM thread cache layered over the \
             allocator (Poseidon only); 0 disables the cache — the \
             uncached legacy path.")
  in
  let run allocator threads tcache_mag trace_out =
    if tcache_mag > 0 && allocator <> `Poseidon then begin
      Printf.eprintf
        "inspect: --tcache-mag needs -a poseidon: the baselines have no \
         cache support\n";
      2
    end
    else
    with_tracing trace_out @@ fun () ->
    let factory = factory_of allocator in
    (* Poseidon keeps its heap handle so the aggregate statistics can
       be rendered below *)
    let mach, inst, pheap =
      match allocator with
      | `Poseidon ->
        let mach = Machine.create () in
        let heap =
          Poseidon.Heap.create mach ~base:Workloads.Factories.heap_base
            ~size:Workloads.Factories.default_window ~heap_id:1
            ~sub_data_size:(128 * 1024 * 1024) ()
        in
        (mach, Poseidon.instance heap, Some heap)
      | _ ->
        let mach, inst = factory.Workloads.Factories.make () in
        (mach, inst, None)
    in
    let inst, tcache =
      if tcache_mag > 0 then
        let inst, t = Tcache.wrap ~mag:tcache_mag inst in
        (inst, Some t)
      else (inst, None)
    in
    let _ =
      Machine.parallel mach ~threads (fun i ->
          let rng = Repro_util.Prng.create i in
          let live = Array.make 50 Alloc_intf.null in
          for j = 0 to 199 do
            let s = j mod 50 in
            if not (Alloc_intf.is_null live.(s)) then
              Alloc_intf.i_free inst live.(s);
            live.(s) <-
              (match
                 Alloc_intf.i_alloc inst (16 + Repro_util.Prng.int rng 2000)
               with
               | Some p -> p
               | None -> Alloc_intf.null)
          done)
    in
    Printf.printf "workload done on %s with %d threads\n"
      factory.Workloads.Factories.name threads;
    (match pheap with
     | Some heap ->
       let s = Poseidon.Heap.stats heap in
       Printf.printf
         "heap: %d subheaps, %d live B, %d free B, %d merges, %d defrag \
          passes, %d hash extends\n"
         s.Poseidon.Heap.subheaps_active s.Poseidon.Heap.live_bytes
         s.Poseidon.Heap.free_bytes s.Poseidon.Heap.merges
         s.Poseidon.Heap.defrag_passes s.Poseidon.Heap.hash_extends;
       Printf.printf
         "heap: %d invalid frees, %d double frees, %d tx commits, %d tx \
          aborts, %d recovery replays\n"
         s.Poseidon.Heap.invalid_frees s.Poseidon.Heap.double_frees
         s.Poseidon.Heap.tx_commits s.Poseidon.Heap.tx_aborts
         s.Poseidon.Heap.recovery_replays;
       let hits, misses, refills, flushes =
         match tcache with Some t -> Tcache.stats t | None -> (0, 0, 0, 0)
       in
       Printf.printf
         "tcache: %d hits, %d misses, %d bin refills, %d bin flushes, %d \
          record-hint hits, %d hint misses\n"
         hits misses refills flushes s.Poseidon.Heap.hint_hits
         s.Poseidon.Heap.hint_misses;
       (* outside the simulation: these metadata reads are uncharged *)
       print_string "hash levels (full) [slot reads] per subheap:";
       Poseidon.Heap.iter_subheaps heap (fun sh ->
           let ht = sh.Poseidon.Subheap.ht in
           Printf.printf " %d:%d(%d)[%d]" sh.Poseidon.Subheap.index
             (Poseidon.Hashtable.levels ht)
             (Poseidon.Hashtable.full_levels ht)
             (Poseidon.Hashtable.slot_reads ht));
       print_newline ()
     | None -> ());
    let c = Nvmm.Memdev.counters (Machine.dev mach) in
    Printf.printf
      "device: %d loads, %d stores, %d lines flushed, %d fences\n"
      c.Nvmm.Memdev.loads c.Nvmm.Memdev.stores c.Nvmm.Memdev.lines_flushed
      c.Nvmm.Memdev.fences;
    Printf.printf "mpk faults observed: %d\n"
      (Mpk.faults_observed (Machine.mpk mach));
    Printf.printf "locks (%d):\n" (List.length (Machine.lock_stats mach));
    List.iter
      (fun (lname, s) ->
        Printf.printf "  %-20s %6d acquisitions, %5d contended, %10d ns waited\n"
          lname s.Machine.Lock.acquisitions s.Machine.Lock.contended
          s.Machine.Lock.wait_ns)
      (Machine.lock_stats mach);
    0
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Run a small mixed workload and dump counters.")
    Term.(const run $ allocator_arg $ threads_arg $ tcache_mag_arg
          $ trace_out_arg)

(* ---------- fsck ---------- *)

let fsck_cmd =
  let crash_arg =
    Arg.(
      value & flag
      & info [ "crash" ] ~doc:"Crash-inject before checking (strict mode).")
  in
  let run threads crash =
    let base = Workloads.Factories.heap_base in
    let mach = Machine.create () in
    let heap =
      Poseidon.Heap.create mach ~base ~size:(1 lsl 38) ~heap_id:1
        ~sub_data_size:(1 lsl 22) ()
    in
    let inst = Poseidon.instance heap in
    let _ =
      Machine.parallel mach ~threads (fun i ->
          let rng = Repro_util.Prng.create i in
          let live = Array.make 64 Alloc_intf.null in
          for j = 0 to 299 do
            let s = j mod 64 in
            if not (Alloc_intf.is_null live.(s)) then
              Alloc_intf.i_free inst live.(s);
            live.(s) <-
              Option.value ~default:Alloc_intf.null
                (Alloc_intf.i_alloc inst (32 lsl Repro_util.Prng.int rng 8))
          done)
    in
    let heap =
      if crash then begin
        Nvmm.Memdev.crash (Machine.dev mach) `Strict;
        Poseidon.Heap.attach mach ~base ()
      end
      else heap
    in
    let report = Poseidon.Fsck.run heap in
    Format.printf "%a" Poseidon.Fsck.pp report;
    if Poseidon.Fsck.is_clean report then 0 else 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Run a mixed workload, optionally crash, and print a full heap \
          consistency report.")
    Term.(const run $ threads_arg $ crash_arg)

(* ---------- serve ---------- *)

let serve_cmd =
  let module S = Service.Server in
  let d = S.default_config and dr = S.default_repl_config in
  let shards_arg =
    Arg.(
      value & opt int d.S.shards
      & info [ "shards" ] ~docv:"N" ~doc:"Server shards (one simulated CPU each).")
  in
  let clients_arg =
    Arg.(
      value & opt int d.S.clients
      & info [ "clients" ] ~docv:"N" ~doc:"Open-loop client threads.")
  in
  let rate_arg =
    Arg.(
      value & opt float d.S.rate
      & info [ "rate" ] ~docv:"OPS"
          ~doc:"Total offered load, requests per simulated second.")
  in
  let duration_arg =
    Arg.(
      value & opt float d.S.duration
      & info [ "duration" ] ~docv:"SECS" ~doc:"Simulated seconds of traffic.")
  in
  let value_size_arg =
    Arg.(
      value & opt int d.S.value_size
      & info [ "value-size" ] ~docv:"BYTES" ~doc:"Value object size.")
  in
  let zipf_arg =
    Arg.(
      value & opt float d.S.zipf_theta
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:"Zipfian skew of key popularity (YCSB default 0.99).")
  in
  let keyspace_arg =
    Arg.(
      value & opt int d.S.keyspace
      & info [ "keyspace" ] ~docv:"N" ~doc:"Distinct keys.")
  in
  let queue_arg =
    Arg.(
      value & opt int d.S.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Per-shard request queue bound (admission control).")
  in
  let read_pct_arg =
    Arg.(
      value & opt int d.S.read_pct
      & info [ "read-pct" ] ~docv:"PCT"
          ~doc:"Percentage of requests that are gets.")
  in
  let scan_pct_arg =
    Arg.(
      value & opt int d.S.scan_pct
      & info [ "scan-pct" ] ~docv:"PCT"
          ~doc:"Percentage of requests that are scans.")
  in
  let mvcc_window_arg =
    Arg.(
      value & opt int d.S.mvcc_window
      & info [ "mvcc-window" ] ~docv:"K"
          ~doc:
            "MVCC version-chain window: retain up to K committed versions \
             per mutated key and serve every get/scan as a lock-free \
             snapshot read (scans become multi-shard, consistent at one \
             timestamp).  0 = the pre-MVCC locked read path, \
             byte-identically.")
  in
  let serve_tcache_mag_arg =
    Arg.(
      value & opt int d.S.tcache_mag
      & info [ "tcache-mag" ] ~docv:"K"
          ~doc:
            "Magazine size of the DRAM thread cache layered over the \
             allocator: allocations pop volatile per-CPU bins (refilled K \
             blocks per carve under one allocator transaction) and frees \
             stash and flush in bulk.  0 = no cache, byte-identically the \
             uncached path.")
  in
  let serve_rcache_arg =
    Arg.(
      value & opt int d.S.rcache_entries
      & info [ "rcache-entries" ] ~docv:"K"
          ~doc:
            "Per-shard slot count of the DRAM read cache layered in front \
             of the persistent trees: gets (and snapshot gets whose \
             timestamp allows) answer from a volatile digest cache on a \
             hit, write-through invalidated by every mutation path.  0 = \
             no cache, byte-identically the uncached read path.")
  in
  let txn_pct_arg =
    Arg.(
      value & opt int d.S.txn_pct
      & info [ "txn-pct" ] ~docv:"PCT"
          ~doc:
            "Percentage of requests that are cross-shard atomic \
             transactions (2PC on the shards' own slots, committed by the \
             lowest participant's decided word).")
  in
  let txn_ops_arg =
    Arg.(
      value & opt int d.S.txn_ops
      & info [ "txn-ops" ] ~docv:"N"
          ~doc:"Operations per generated transaction (distinct keys).")
  in
  let crash_at_arg =
    Arg.(
      value & opt (some float) d.S.crash_at
      & info [ "crash-at" ] ~docv:"FRAC"
          ~doc:
            "Crash the machine at $(docv) x duration (in (0,1)), then \
             re-attach, replay in-flight effects and verify the store \
             against the ledger of acked writes.")
  in
  let seed_arg =
    Arg.(value & opt int d.S.seed & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
  in
  let json_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write results + metrics snapshot as JSON to $(docv).")
  in
  let replicate_arg =
    Arg.(
      value & flag
      & info [ "replicate" ]
          ~doc:
            "Serve on a two-machine cluster: ship every mutation to a backup \
             machine; with --crash-at the backup is $(i,promoted) (seal + \
             tail replay) instead of re-attaching the primary.")
  in
  let repl_mode_arg =
    Arg.(
      value
      & opt (enum [ ("sync", Replica.Sync); ("async", Replica.Async) ])
          dr.S.repl_mode
      & info [ "repl-mode" ] ~docv:"MODE"
          ~doc:
            "sync: hold each reply until the backup acks every record it \
             saw (acked writes survive primary loss); async: reply after \
             the local persist, backup lag bounded by the window.")
  in
  let wire_ns_arg =
    Arg.(
      value & opt int dr.S.wire_ns
      & info [ "wire-ns" ] ~docv:"NS"
          ~doc:"One-way inter-machine link latency.")
  in
  let repl_window_arg =
    Arg.(
      value & opt int dr.S.repl_window
      & info [ "repl-window" ] ~docv:"N"
          ~doc:"Max unacked records per shard (the async lag bound).")
  in
  let drop_pct_arg =
    Arg.(
      value & opt int dr.S.link_drop_pct
      & info [ "drop-pct" ] ~docv:"PCT"
          ~doc:"Seeded link loss percentage (go-back-N recovers).")
  in
  let batch_window_arg =
    Arg.(
      value & opt int d.S.batch_window
      & info [ "batch-window" ] ~docv:"N"
          ~doc:
            "Group-commit window: up to N consecutive queued mutations \
             persist under one covering flush and ship as one replication \
             frame.  1 = every mutation is a group of one.")
  in
  let dup_pct_arg =
    Arg.(
      value & opt int dr.S.link_dup_pct
      & info [ "dup-pct" ] ~docv:"PCT"
          ~doc:"Seeded duplicate-delivery percentage (applier dedups).")
  in
  let run shards clients rate duration value_size zipf keyspace queue read_pct
      scan_pct txn_pct txn_ops crash_at seed json_out replicate repl_mode
      wire_ns repl_window drop_pct dup_pct batch_window mvcc_window tcache_mag
      rcache_entries trace_out =
    with_tracing trace_out @@ fun () ->
    (* Span store on for every serve run — attribution is part of the
       result, not an opt-in.  Cleared (not stopped) afterwards so a
       --trace-out export written by [with_tracing] still sees it. *)
    Obs.Span.clear ();
    Obs.Span.start ();
    let cfg =
      { d with
        shards;
        clients;
        rate;
        duration;
        value_size;
        zipf_theta = zipf;
        keyspace;
        queue_capacity = queue;
        read_pct;
        scan_pct;
        txn_pct;
        txn_ops;
        crash_at;
        seed;
        batch_window;
        mvcc_window;
        tcache_mag;
        rcache_entries }
    in
    let factory = Workloads.Factories.poseidon () in
    let repl, r =
      if replicate then begin
        let rcfg =
          { S.repl_mode;
            wire_ns;
            repl_window;
            link_drop_pct = drop_pct;
            link_dup_pct = dup_pct }
        in
        let rr =
          S.run_replicated
            ~make:(fun mach -> Workloads.Factories.poseidon_on mach)
            cfg rcfg
        in
        (Some rr, rr.S.base)
      end
      else
        ( None,
          S.run
            ~make:(fun () -> factory.Workloads.Factories.make ())
            ~reattach:(fun mach ->
              Poseidon.instance
                (Poseidon.Heap.attach mach
                   ~base:Workloads.Factories.heap_base ()))
            cfg )
    in
    Printf.printf
      "poseidon-kv: %d shards, %d clients, offered %.0f req/s for %.3f s%s\n"
      shards clients rate duration
      (match crash_at with
       | Some f -> Printf.sprintf " (crash at %.0f%%)" (f *. 100.)
       | None -> "");
    Printf.printf
      "  offered %d  admitted %d  shed %d (Overloaded)  completed %d\n"
      r.S.offered r.S.admitted r.S.shed r.S.completed;
    Printf.printf "  throughput %.0f req/s  goodput %.0f req/s\n" r.S.throughput
      r.S.goodput;
    Printf.printf
      "  latency: p50 %d ns  p99 %d ns  p999 %d ns  mean %.0f ns  max %d ns \
       (%d samples)\n"
      r.S.latency.S.p50 r.S.latency.S.p99 r.S.latency.S.p999 r.S.latency.S.mean
      r.S.latency.S.max r.S.latency.S.samples;
    Printf.printf "  op mix (offered): %d read, %d write, %d scan%s\n"
      r.S.ops_read r.S.ops_write r.S.ops_scan
      ((if mvcc_window > 0 then
          Printf.sprintf "  [mvcc window %d: lock-free reads]" mvcc_window
        else "")
      ^ (if tcache_mag > 0 then
           Printf.sprintf "  [tcache mag %d: cached allocs]" tcache_mag
         else "")
      ^
      if rcache_entries > 0 then
        Printf.sprintf "  [rcache %d/shard: cached reads]" rcache_entries
      else "");
    Printf.printf "  read latency:  p50 %d ns  p99 %d ns (%d samples)\n"
      r.S.read_latency.S.p50 r.S.read_latency.S.p99 r.S.read_latency.S.samples;
    Printf.printf "  write latency: p50 %d ns  p99 %d ns (%d samples)\n"
      r.S.write_latency.S.p50 r.S.write_latency.S.p99
      r.S.write_latency.S.samples;
    Printf.printf "  scan latency:  p50 %d ns  p99 %d ns (%d samples)\n"
      r.S.scan_latency.S.p50 r.S.scan_latency.S.p99 r.S.scan_latency.S.samples;
    Printf.printf "  max shard queue depth %d (capacity %d)\n"
      r.S.queue_max_depth queue;
    (* gauges the run published under its scope *)
    let gauge ?(scope = cfg.S.scope) name =
      int_of_float
        (Option.value ~default:0. (Obs.Metrics.get_gauge ~scope name))
    in
    if tcache_mag > 0 then
      Printf.printf
        "  tcache: %d hits, %d misses, %d refills on a miss, %d idle \
         refills, %d flushes\n"
        (gauge "tcache_hits") (gauge "tcache_misses")
        (gauge "tcache_bin_refills") (gauge "tcache_idle_refills")
        (gauge "tcache_bin_flushes");
    print_string "  apply after reply, ns per shard:";
    for i = 0 to shards - 1 do
      Printf.printf " %d:%d" i
        (gauge
           ~scope:(Printf.sprintf "%s/shard%d" cfg.S.scope i)
           "apply_after_reply_ns")
    done;
    print_newline ();
    if txn_pct > 0 then begin
      Printf.printf "  txns: %d committed, %d aborted (%d ops each)\n"
        r.S.txns_committed r.S.txns_aborted txn_ops;
      Printf.printf
        "  txn latency: p50 %d ns  p99 %d ns  mean %.0f ns (%d samples)\n"
        r.S.txn_latency.S.p50 r.S.txn_latency.S.p99 r.S.txn_latency.S.mean
        r.S.txn_latency.S.samples
    end;
    if r.S.crashed then begin
      (match r.S.recovery with
       | Some rc ->
         Printf.printf
           "  crash: recovered %d shards — %d slot(s) redone, %d rolled \
            back; RTO %d ns\n"
           shards rc.Service.Kv.replayed rc.Service.Kv.rolled_back r.S.rto_ns
       | None -> ());
      (match repl with
       | Some rr ->
         Printf.printf
           "  crash: primary lost — backup promoted, %d tail record(s) \
            replayed, %d in-doubt txn slot(s) aborted; RTO %d ns\n"
           rr.S.tail_replayed rr.S.indoubt_aborted r.S.rto_ns
       | None -> ());
      Printf.printf "  in flight at crash: %d key(s) (not checked)\n"
        r.S.in_flight_at_crash
    end;
    Printf.printf "  ledger: %d key(s) checked, %d ambiguous, %d mismatch(es)\n"
      r.S.ledger.S.checked r.S.ledger.S.ambiguous r.S.ledger.S.mismatches;
    (match repl with
     | None -> ()
     | Some rr ->
       Printf.printf
         "  replication (%s): shipped %d  acked %d  retransmits %d  max lag \
          %d\n"
         (if rr.S.sync then "sync" else "async")
         rr.S.shipped rr.S.acked_records rr.S.retransmits rr.S.max_lag;
       Printf.printf
         "  link: %d dropped, %d duplicated; backup applied %d record(s)\n"
         rr.S.link_dropped rr.S.link_duplicated rr.S.backup_applied;
       (match rr.S.backup_ledger with
        | Some l ->
          Printf.printf
            "  backup ledger: %d key(s) checked, %d ambiguous, %d \
             mismatch(es)\n"
            l.S.checked l.S.ambiguous l.S.mismatches
        | None -> ()));
    let att = Obs.Attrib.analyze () in
    Format.printf "%a@?" Obs.Attrib.pp_report att;
    Obs.Metrics.set_gauge ~scope:"trace" "dropped_events"
      (float_of_int (Obs.Trace.dropped ()));
    if att.Obs.Attrib.span_dropped > 0 then
      Printf.printf
        "  WARNING: span store filled — %d span(s) dropped, attribution \
         covers a prefix of the run\n"
        att.Obs.Attrib.span_dropped;
    (match json_out with
     | None -> ()
     | Some file ->
       let module J = Obs.Json in
       let json =
         J.Obj
           [ ("schema", J.Str "poseidon-serve/v1"); ("rev", Obs.Bench.rev ());
             ("config", S.config_json cfg);
             ("results", S.result_json ?repl r);
             ("attribution", Obs.Attrib.report_json att);
             ("metrics", Obs.Metrics.snapshot ()) ]
       in
       let oc = open_out file in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () -> output_string oc (J.to_string json));
       Printf.printf "results -> %s\n" file);
    let backup_mismatch =
      match repl with
      | Some rr when rr.S.sync -> (
        match rr.S.backup_ledger with
        | Some l -> l.S.mismatches > 0
        | None -> false)
      | _ -> false
    in
    if r.S.ledger.S.mismatches > 0 || backup_mismatch then begin
      Printf.eprintf "serve: LEDGER MISMATCH — acked writes lost\n";
      1
    end
    else 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the sharded persistent KV server (poseidon-kv) under open-loop \
          simulated traffic — optionally replicated to a backup machine \
          (--replicate) — crash it mid-serving, and verify recovery (or \
          failover promotion) against the client ledger.")
    Term.(
      const run $ shards_arg $ clients_arg $ rate_arg $ duration_arg
      $ value_size_arg $ zipf_arg $ keyspace_arg $ queue_arg $ read_pct_arg
      $ scan_pct_arg $ txn_pct_arg $ txn_ops_arg $ crash_at_arg $ seed_arg
      $ json_out_arg $ replicate_arg $ repl_mode_arg $ wire_ns_arg
      $ repl_window_arg $ drop_pct_arg $ dup_pct_arg $ batch_window_arg
      $ mvcc_window_arg $ serve_tcache_mag_arg $ serve_rcache_arg
      $ trace_out_arg)

(* ---------- trace ---------- *)

let trace_cmd =
  let events_arg =
    Arg.(
      value & opt int 5000
      & info [ "n"; "events" ] ~docv:"N" ~doc:"Trace length in events.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
  in
  let run events seed =
    let trace = Workloads.Trace.random ~seed ~events () in
    Printf.printf "replaying a %d-event trace on each allocator:\n" events;
    List.iter
      (fun (f : Workloads.Factories.factory) ->
        let mach, inst = f.Workloads.Factories.make () in
        let r = Workloads.Trace.replay_timed ~mach inst trace in
        Printf.printf
          "  %-10s %8.3f simulated ms  (%d allocs, %d frees, %d failed)\n"
          f.Workloads.Factories.name
          (r.Workloads.Trace.simulated_seconds *. 1e3)
          r.Workloads.Trace.allocs_ok r.Workloads.Trace.frees
          r.Workloads.Trace.allocs_failed)
      [ Workloads.Factories.poseidon (); Workloads.Factories.pmdk ();
        Workloads.Factories.makalu () ];
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Generate a random trace and replay it on every allocator.")
    Term.(const run $ events_arg $ seed_arg)

(* ---------- tracecheck / benchdiff ---------- *)

let read_json file =
  try Ok (Obs.Json.parse (In_channel.with_open_bin file In_channel.input_all))
  with
  | Sys_error m -> Error m
  | Obs.Json.Parse_error m -> Error (Printf.sprintf "JSON parse error: %s" m)

(* Validates an exported Chrome trace: JSON well-formedness, required
   fields per event phase, and flow-event integrity — every
   cross-machine flow start ("ph":"s") must have a matching finish
   ("ph":"f") and vice versa, else Perfetto silently drops the arrow
   and the causal link between machines is lost.  check.sh gates on
   this after exporting a replicated serve trace. *)
let tracecheck_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace-event JSON file to validate.")
  in
  let run file =
    let module J = Obs.Json in
    match read_json file with
    | Error m ->
      Printf.eprintf "tracecheck: %s: %s\n" file m;
      1
    | Ok root ->
      let errors = ref 0 in
      let err fmt =
        Printf.ksprintf
          (fun m ->
            incr errors;
            if !errors <= 20 then Printf.eprintf "tracecheck: %s\n" m)
          fmt
      in
      let events =
        match Option.bind (J.member "traceEvents" root) J.to_list with
        | Some evs -> evs
        | None ->
          err "top-level object has no \"traceEvents\" array";
          []
      in
      let slices = ref 0 and insts = ref 0 and metas = ref 0 in
      (* flow links keyed by (cat, id); counts tolerate duplicates *)
      let starts : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
      let finishes : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
      let bump tbl k =
        Hashtbl.replace tbl k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      in
      List.iteri
        (fun i ev ->
          let num k = Option.bind (J.member k ev) J.to_float in
          let str k = Option.bind (J.member k ev) J.to_str in
          match str "ph" with
          | None -> err "event %d: missing \"ph\"" i
          | Some ph ->
            let need k =
              if num k = None then
                err "event %d (ph %S): missing numeric %S" i ph k
            in
            (match ph with
             | "X" ->
               incr slices;
               List.iter need [ "ts"; "dur"; "pid"; "tid" ];
               if str "name" = None then err "event %d (X): missing name" i
             | "i" ->
               incr insts;
               List.iter need [ "ts"; "pid"; "tid" ]
             | "M" -> incr metas
             | "s" | "f" ->
               List.iter need [ "ts"; "pid"; "tid" ];
               if ph = "f" && str "bp" <> Some "e" then
                 err "event %d (f): missing \"bp\":\"e\" binding" i;
               (match num "id" with
                | None -> err "event %d (ph %S): flow without id" i ph
                | Some id ->
                  let k =
                    (Option.value ~default:"" (str "cat"), int_of_float id)
                  in
                  if ph = "s" then bump starts k else bump finishes k)
             | other -> err "event %d: unknown \"ph\":%S" i other))
        events;
      Hashtbl.iter
        (fun (cat, id) _ ->
          if Hashtbl.find_opt finishes (cat, id) = None then
            err "flow start (cat %S, id %d) has no matching finish" cat id)
        starts;
      Hashtbl.iter
        (fun (cat, id) _ ->
          if Hashtbl.find_opt starts (cat, id) = None then
            err "flow finish (cat %S, id %d) has no matching start" cat id)
        finishes;
      if !errors = 0 then begin
        Printf.printf
          "tracecheck: %s OK — %d event(s): %d slice(s), %d instant(s), %d \
           metadata, %d flow link(s) all matched\n"
          file (List.length events) !slices !insts !metas
          (Hashtbl.length starts);
        0
      end
      else begin
        Printf.eprintf "tracecheck: %s: %d violation(s)\n" file !errors;
        1
      end
  in
  Cmd.v
    (Cmd.info "tracecheck"
       ~doc:
         "Validate an exported Chrome trace file: JSON shape, per-phase \
          required fields, and that every cross-machine flow start has a \
          matching finish.")
    Term.(const run $ file_arg)

(* The bench regression gate, run by scripts/bench_diff.sh on every
   committed BENCH_*.json baseline against the fresh snapshot of the
   same suite (rules in Obs.Bench.diff). *)
let benchdiff_cmd =
  let file_arg n docv doc =
    Arg.(required & pos n (some string) None & info [] ~docv ~doc)
  in
  let run base fresh =
    match (read_json base, read_json fresh) with
    | Error m, _ ->
      Printf.eprintf "benchdiff: %s: %s\n" base m;
      1
    | _, Error m ->
      Printf.eprintf "benchdiff: %s: %s\n" fresh m;
      1
    | Ok base, Ok fresh_doc -> (
      match Obs.Bench.diff ~base ~fresh:fresh_doc with
      | compared, [] ->
        Printf.printf
          "benchdiff: %s: every gate passes; %d p50 block(s) within 25%% of \
           the baseline\n"
          fresh compared;
        0
      | _, problems ->
        List.iter (Printf.eprintf "benchdiff: %s: %s\n" fresh) problems;
        1)
  in
  Cmd.v
    (Cmd.info "benchdiff"
       ~doc:
         "Compare a fresh BENCH snapshot with its baseline: fails on a failed \
          gate, a run or gate present on one side only, or a percentile \
          block whose p50 grew by more than 25%.")
    Term.(
      const run
      $ file_arg 0 "BASE" "Baseline BENCH snapshot."
      $ file_arg 1 "FRESH" "Fresh BENCH snapshot of the same suite.")

let () =
  let info =
    Cmd.info "poseidon-repro"
      ~doc:
        "Reproduction of 'Poseidon: Safe, Fast and Scalable Persistent \
         Memory Allocator' (Middleware '20) on a simulated NVMM machine."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ bench_cmd; safety_cmd; stress_cmd; crashcheck_cmd; inspect_cmd;
            fsck_cmd; serve_cmd; trace_cmd; tracecheck_cmd; benchdiff_cmd ]))
