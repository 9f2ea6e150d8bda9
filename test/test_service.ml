(* poseidon-kv service layer: shard routing, the intent-slot
   durability protocol, the open-loop server under clean / overloaded /
   crashing traffic, the one serving loop across every durability sink,
   batch window and crash mode (and which path each knob selects), and
   a bounded crashcheck sweep of the KV write path. *)

module S = Service.Server
module Kv = Service.Kv
module H = Poseidon.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let heap_base = 1 lsl 30

let mk_store ~shards () =
  let cfg =
    { Machine.Config.default with
      Machine.Config.num_cpus = 1;
      numa_domains = 1 }
  in
  let mach = Machine.create ~cfg () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 20) ()
  in
  let inst = Poseidon.instance heap in
  (mach, inst, Kv.create inst ~shards ~value_size:64)

(* ---------- shard routing ---------- *)

let test_routing_partition () =
  let _, _, kv = mk_store ~shards:4 () in
  let per_shard = Array.make 4 0 in
  for key = 1 to 400 do
    let s = Kv.shard_of_key kv key in
    check "shard in range" true (s >= 0 && s < 4);
    check_int "routing is deterministic" s (Kv.shard_of_key kv key);
    per_shard.(s) <- per_shard.(s) + 1;
    check "key stored" true (Kv.put kv ~key ~vseed:key)
  done;
  (* every key landed in exactly one shard: totals are a partition *)
  check_int "no key lost or duplicated" 400 (Kv.count_keys kv);
  Array.iter (fun n -> check "hash spreads keys" true (n > 0)) per_shard

(* ---------- direct store semantics ---------- *)

let test_kv_roundtrip () =
  let _, inst, kv = mk_store ~shards:2 () in
  check "put fresh" true (Kv.put kv ~key:7 ~vseed:100);
  check "get matches oracle" true
    (Kv.get kv ~key:7 = Some (Kv.value_checksum kv ~vseed:100));
  check "overwrite" true (Kv.put kv ~key:7 ~vseed:200);
  check "get sees new value" true
    (Kv.get kv ~key:7 = Some (Kv.value_checksum kv ~vseed:200));
  check "absent key" true (Kv.get kv ~key:8 = None);
  check "delete present" true (Kv.delete kv ~key:7);
  check "delete absent" false (Kv.delete kv ~key:7);
  check "deleted is gone" true (Kv.get kv ~key:7 = None);
  for k = 1 to 50 do
    ignore (Kv.put kv ~key:k ~vseed:(1000 + k))
  done;
  check "scan visits entries" true (Kv.scan kv ~from_key:1 ~n:10 > 0);
  Kv.check kv;
  (* clean re-attach finds everything with nothing to replay *)
  let kv2, rec_ = Kv.attach inst in
  check_int "no replay on clean attach" 0
    (rec_.Kv.replayed + rec_.Kv.rolled_back);
  check_int "re-attach sees all keys" 50 (Kv.count_keys kv2);
  check "re-attach reads values" true
    (Kv.get kv2 ~key:13 = Some (Kv.value_checksum kv2 ~vseed:1013))

(* ---------- server runs ---------- *)

let factory = Workloads.Factories.poseidon ()

let serve cfg =
  S.run
    ~make:(fun () -> factory.Workloads.Factories.make ())
    ~reattach:(fun mach ->
      Poseidon.instance
        (H.attach mach ~base:Workloads.Factories.heap_base ()))
    cfg

let base_cfg =
  { S.default_config with
    S.shards = 2;
    clients = 8;
    rate = 40_000.;
    duration = 0.005;
    keyspace = 512;
    preload = 256;
    scope = "test/service" }

let test_clean_run () =
  let r = serve { base_cfg with S.scope = "test/service/clean" } in
  check "requests completed" true (r.S.completed > 0);
  check "not crashed" false r.S.crashed;
  check_int "no recovery without a crash" 0 r.S.rto_ns;
  check "ledger checked keys" true (r.S.ledger.S.checked > 0);
  check_int "nothing ambiguous without a crash" 0 r.S.ledger.S.ambiguous;
  check_int "ledger matches store" 0 r.S.ledger.S.mismatches;
  check "latency histogram populated" true (r.S.latency.S.samples > 0);
  check "p50 <= p99 <= p999" true
    (r.S.latency.S.p50 <= r.S.latency.S.p99
    && r.S.latency.S.p99 <= r.S.latency.S.p999)

let test_crash_run () =
  let r =
    serve
      { base_cfg with S.crash_at = Some 0.5; scope = "test/service/crash" }
  in
  check "crashed" true r.S.crashed;
  check "recovery ran" true (r.S.recovery <> None);
  check "RTO is nonzero simulated time" true (r.S.rto_ns > 0);
  check "ledger checked keys" true (r.S.ledger.S.checked > 0);
  check_int "every acked write survived" 0 r.S.ledger.S.mismatches

(* At 2x saturation the bounded queues must shed ([Overloaded]) rather
   than deadlock or grow without bound; goodput stays a fraction of
   the offered rate. *)
let test_backpressure_sheds () =
  let r =
    serve
      { base_cfg with
        S.rate = 2_000_000.;
        clients = 16;
        queue_capacity = 8;
        scope = "test/service/overload" }
  in
  check "requests shed" true (r.S.shed > 0);
  check "some requests still served" true (r.S.completed > 0);
  check "queue depth bounded" true (r.S.queue_max_depth <= 8);
  check "goodput below offered rate" true
    (r.S.goodput < 2_000_000. /. 2.);
  check_int "shedding loses no acked write" 0 r.S.ledger.S.mismatches

(* ---------- one serving loop: sink x window x crash ---------- *)

type sink = Local | Async | Sync

let sink_name = function Local -> "local" | Async -> "async" | Sync -> "sync"

(* a run through [S.run] (Local) or [S.run_replicated]; the second
   component is the backup ledger of a replicated run *)
let serve_on sink cfg =
  match sink with
  | Local -> (serve cfg, None)
  | Async | Sync ->
    let r =
      S.run_replicated
        ~make:(fun mach -> Workloads.Factories.poseidon_on mach)
        cfg
        { S.default_repl_config with
          S.repl_mode = (if sink = Sync then Replica.Sync else Replica.Async) }
    in
    (r.S.base, Some r.S.backup_ledger)

(* [f ()] with the span store on; also returns whether each stage
   recorded a closed span *)
let traced f =
  Obs.Span.clear ();
  Obs.Span.start ();
  let r = f () in
  let seen = Hashtbl.create 16 in
  Obs.Span.iter (fun ~id:_ ~trace:_ ~parent:_ ~stage ~t0:_ ~t1:_ ~mach:_ ~tid:_ ->
      Hashtbl.replace seen stage ());
  Obs.Span.clear ();
  (r, Hashtbl.mem seen)

let gauge ~scope name = Obs.Metrics.get_gauge ~scope name

let tier_gauges =
  [ "tcache_hits"; "tcache_misses"; "tcache_bin_refills"; "tcache_bin_flushes";
    "rcache_hits"; "rcache_misses"; "rcache_evictions"; "rcache_invalidations" ]

(* Every axis the loop branches on, with every DRAM tier armed: each
   run keeps every acked write, and the sync group path is the only
   one that waits on a covering flush *)
let test_loop_table () =
  List.iter
    (fun sink ->
      List.iter
        (fun window ->
          List.iter
            (fun crash_at ->
              let name =
                Printf.sprintf "%s w%d %s" (sink_name sink) window
                  (if crash_at = None then "clean" else "crash")
              in
              let scope = "test/service/loop/" ^ name in
              let cfg =
                { base_cfg with
                  S.txn_pct = 10;
                  mvcc_window = 8;
                  tcache_mag = 4;
                  rcache_entries = 64;
                  batch_window = window;
                  crash_at;
                  scope }
              in
              let (r, backup), saw = traced (fun () -> serve_on sink cfg) in
              check_int (name ^ ": no acked write lost") 0 r.S.ledger.S.mismatches;
              check (name ^ ": mutations acked") true (r.S.acked_mutations > 0);
              check (name ^ ": crash as configured") (crash_at <> None) r.S.crashed;
              (match backup with
               | Some (Some l) ->
                 check_int (name ^ ": backup ledger clean") 0 l.S.mismatches
               | Some None ->
                 check (name ^ ": backup ledger on clean runs") true
                   (crash_at <> None)
               | None -> ());
              check (name ^ ": flush_wait only on the sync group path")
                (sink = Sync && window > 1)
                (saw Obs.Span.Flush_wait);
              check (name ^ ": snapshot reads") true (saw Obs.Span.Snapshot);
              List.iter
                (fun g ->
                  check (name ^ ": publishes " ^ g) true (gauge ~scope g <> None))
                tier_gauges)
            [ None; Some 0.5 ])
        [ 1; 4 ])
    [ Local; Async; Sync ]

(* the knobs' off positions select the plain paths: mvcc 0 reads under
   the shard lock, tcache 0 and rcache 0 arm no cache and so publish
   none of its gauges *)
let test_tiers_off_paths () =
  List.iter
    (fun sink ->
      let scope = "test/service/tiers-off/" ^ sink_name sink in
      let cfg = { base_cfg with S.txn_pct = 10; scope } in
      let (r, _), saw = traced (fun () -> serve_on sink cfg) in
      check "requests completed" true (r.S.completed > 0);
      check "reads served" true (r.S.read_latency.S.samples > 0);
      check "mvcc 0: no snapshot span" false (saw Obs.Span.Snapshot);
      check "mvcc 0: reads wait for the shard lock" true
        (saw Obs.Span.Lock_wait);
      List.iter
        (fun g -> check ("tiers off: no " ^ g) true (gauge ~scope g = None))
        tier_gauges)
    [ Local; Sync ]

(* A replicated crash run publishes the serving gauges of the primary,
   the store that served the traffic, as a local crash run does — not
   of the promoted backup, whose only reads were the ledger check. *)
let test_repl_crash_gauges_from_primary () =
  let scope = "test/service/repl-crash-gauges" in
  let r, _ =
    serve_on Sync
      { base_cfg with
        S.read_pct = 80;
        scan_pct = 0;
        mvcc_window = 8;
        rcache_entries = 64;
        crash_at = Some 0.5;
        scope }
  in
  let gauge name = Option.value ~default:0. (gauge ~scope name) in
  check "crashed" true r.S.crashed;
  check "cached reads hit" true (gauge "rcache_hits" > 0.);
  check "writes invalidated cached entries" true
    (gauge "rcache_invalidations" > 0.);
  check "the ledger check's reads are not counted" true
    (gauge "rcache_misses" < float_of_int r.S.ledger.S.checked)

(* ---------- crashcheck sweep of the KV write path ---------- *)

let test_crashcheck_kv () =
  List.iter
    (fun name ->
      let scn = Option.get (Crashcheck.scenario_by_name name) in
      let r = Crashcheck.run ~max_points:6 ~subsets_per_point:1 scn in
      check (name ^ " sweeps points") true (r.Crashcheck.points_explored >= 6);
      check_int
        (name ^ " has no counterexamples")
        0
        (List.length r.Crashcheck.counterexamples))
    [ "kv-put"; "kv-delete" ]

let () =
  Alcotest.run "service"
    [ ( "kv",
        [ Alcotest.test_case "shard routing is a partition" `Quick
            test_routing_partition;
          Alcotest.test_case "put/get/delete/scan round-trip" `Quick
            test_kv_roundtrip ] );
      ( "server",
        [ Alcotest.test_case "clean run: ledger matches store" `Quick
            test_clean_run;
          Alcotest.test_case "crash run: recovery + nonzero RTO" `Quick
            test_crash_run;
          Alcotest.test_case "overload sheds instead of deadlocking" `Quick
            test_backpressure_sheds;
          Alcotest.test_case "sink x window x crash, tiers armed" `Quick
            test_loop_table;
          Alcotest.test_case "tiers off select the plain paths" `Quick
            test_tiers_off_paths;
          Alcotest.test_case "replicated crash gauges: primary" `Quick
            test_repl_crash_gauges_from_primary ] );
      ( "crashcheck",
        [ Alcotest.test_case "kv scenarios: bounded sweep clean" `Quick
            test_crashcheck_kv ] ) ]
