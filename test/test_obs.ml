(* Observability layer: tracer ordering guarantees, Chrome-trace
   export well-formedness, cross-checks of the trace and the machine's
   own accounting, what the metrics registry holds, and the
   zero-cost-when-disabled contract. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let micro ~threads ~total_ops () =
  Workloads.Microbench.run
    ~factory:(Workloads.Factories.poseidon ())
    ~size:256 ~threads ~total_ops ()

(* ---------- JSON writer/parser ---------- *)

let test_json_roundtrip () =
  let module J = Obs.Json in
  let v =
    J.Obj
      [ ("s", J.Str "a\"b\\c\nd\té");
        ("n", J.Num 1.5);
        ("neg", J.Num (-3.));
        ("t", J.Bool true);
        ("f", J.Bool false);
        ("z", J.Null);
        ("a", J.Arr [ J.Num 1.; J.Str "x"; J.Obj [] ]) ]
  in
  let v' = J.parse (J.to_string v) in
  check "round-trip" true (v = v');
  check "parse ws" true
    (J.parse "  { \"k\" : [ 1 , 2.25e1 , -4 ] }  "
     = J.Obj [ ("k", J.Arr [ J.Num 1.; J.Num 22.5; J.Num (-4.) ]) ]);
  check "rejects garbage" true
    (match J.parse "{\"k\":}" with
     | exception J.Parse_error _ -> true
     | _ -> false)

(* ---------- tracer ---------- *)

let test_trace_monotone () =
  Obs.Trace.clear ();
  Obs.Trace.start ();
  ignore (micro ~threads:4 ~total_ops:2_000 ());
  Obs.Trace.stop ();
  check "events recorded" true (Obs.Trace.count () > 0);
  check_int "nothing dropped" 0 (Obs.Trace.dropped ());
  let last : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let kinds_seen : (Obs.Event.kind, int) Hashtbl.t = Hashtbl.create 16 in
  Obs.Trace.iter
    (fun ~ts ~dur:_ ~tid ~cpu:_ ~node ~kind ~a1:_ ~a2:_ ~name:_ ->
      (match Hashtbl.find_opt last tid with
       | Some prev -> check "per-thread ts monotone" true (ts >= prev)
       | None -> ());
      Hashtbl.replace last tid ts;
      if tid >= 0 then check "node resolved for sim threads" true (node >= 0);
      Hashtbl.replace kinds_seen kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt kinds_seen kind)));
  let seen k = Hashtbl.mem kinds_seen k in
  check "alloc events" true (seen Obs.Event.Alloc);
  check "free events" true (seen Obs.Event.Free);
  check "clwb events" true (seen Obs.Event.Clwb);
  check "sfence events" true (seen Obs.Event.Sfence);
  check "persist events" true (seen Obs.Event.Persist);
  check "wrpkru events" true (seen Obs.Event.Wrpkru);
  check "lock acquire events" true (seen Obs.Event.Lock_acquire);
  check "subheap creation events" true (seen Obs.Event.Subheap_create);
  Obs.Trace.clear ()

let test_trace_chrome_export () =
  let module J = Obs.Json in
  let mem k v =
    match J.member k v with
    | Some x -> x
    | None -> Alcotest.failf "missing field %S" k
  in
  let str v =
    match J.to_str v with Some s -> s | None -> Alcotest.fail "not a string"
  in
  let flo v =
    match J.to_float v with Some f -> f | None -> Alcotest.fail "not a number"
  in
  Obs.Trace.clear ();
  Obs.Trace.start ();
  ignore (micro ~threads:4 ~total_ops:2_000 ());
  Obs.Trace.stop ();
  let doc = J.parse (Obs.Trace.to_chrome_json ()) in
  let evs =
    match J.to_list (mem "traceEvents" doc) with
    | Some l -> l
    | None -> Alcotest.fail "traceEvents is not an array"
  in
  (* every retained event + process metadata + one name per thread *)
  check "all events exported" true (List.length evs > Obs.Trace.count ());
  let names = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace names (str (mem "name" e)) ();
      match str (mem "ph" e) with
      | "M" -> ()
      | "i" -> check "instant ts >= 0" true (flo (mem "ts" e) >= 0.)
      | "X" ->
        check "span dur >= 0" true (flo (mem "dur" e) >= 0.);
        check "span ts >= 0" true (flo (mem "ts" e) >= 0.)
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    evs;
  check "alloc exported" true (Hashtbl.mem names "alloc");
  check "persist exported" true (Hashtbl.mem names "persist");
  check "thread metadata" true (Hashtbl.mem names "thread_name");
  Obs.Trace.clear ()

(* ---------- metrics ---------- *)

let test_metrics_cross_check () =
  Obs.Trace.clear ();
  Obs.Trace.start ();
  (* Deterministic single-thread micro run: ops_per_thread = 2000, so
     10 rounds of 100 batched pairs -> 1000 allocs + 1000 frees, plus
     the one warm-up object per thread.  The run raises on a failed
     allocation. *)
  ignore (micro ~threads:1 ~total_ops:2_000 ());
  Obs.Trace.stop ();
  check_int "nothing dropped" 0 (Obs.Trace.dropped ());
  let counts = Hashtbl.create 16 in
  Obs.Trace.iter
    (fun ~ts:_ ~dur:_ ~tid:_ ~cpu:_ ~node:_ ~kind ~a1:_ ~a2:_ ~name:_ ->
      Hashtbl.replace counts kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind)));
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check_int "allocs" 1_001 (count Obs.Event.Alloc);
  check_int "frees" 1_001 (count Obs.Event.Free);
  check_int "tx_allocs" 0 (count Obs.Event.Tx_alloc);
  Obs.Trace.clear ()

let test_metrics_vs_profile () =
  let mach = Machine.create () in
  let base = 1 lsl 30 in
  Machine.add_region mach ~base ~size:(1 lsl 20) ~kind:Nvmm.Memdev.Nvmm
    ~numa:0;
  ignore
    (Machine.parallel mach ~threads:4 (fun i ->
         let a = base + (i * 4096) in
         for j = 0 to 99 do
           Machine.write_u64 mach (a + (8 * (j mod 64))) j;
           Machine.persist mach (a + (8 * (j mod 64))) 8
         done;
         Machine.sfence mach));
  let p = Machine.profile mach in
  let sfence_ns = (Machine.cfg mach).Machine.Config.sfence_ns in
  (* the independent fence count must explain the profiled fence time *)
  check_int "p_fence = sim_fences * sfence_ns"
    (Machine.sim_fences mach * sfence_ns)
    p.Machine.p_fence;
  check_int "404 fences" 404 (Machine.sim_fences mach);
  let c = Nvmm.Memdev.counters (Machine.dev mach) in
  check "device agrees with machine" true
    (c.Nvmm.Memdev.fences = Machine.sim_fences mach)

let test_lock_stats () =
  let mach = Machine.create () in
  let l = Machine.Lock.create mach ~name:"test-lock" () in
  let shared = ref 0 in
  ignore
    (Machine.parallel mach ~threads:4 (fun _ ->
         for _ = 1 to 25 do
           Machine.Lock.with_lock l (fun () ->
               Machine.compute mach 50;
               incr shared)
         done));
  check_int "critical sections ran" 100 !shared;
  let s = Machine.Lock.stats l in
  check_int "acquisitions" 100 s.Machine.Lock.acquisitions;
  check "contention observed" true (s.Machine.Lock.contended > 0);
  check "wait time recorded" true (s.Machine.Lock.wait_ns > 0);
  check "named" true (Machine.Lock.name l = "test-lock");
  check "listed on machine" true
    (List.mem_assoc "test-lock" (Machine.lock_stats mach))

(* The registry holds only what a run publishes beyond its typed
   result.  An allocator run, a crash and a recovery publish nothing:
   their counts live in Heap.stats, the device counters and the trace.
   A serving run publishes its own gauges and histograms, but none of
   the counts Server.result already holds. *)
let test_registry_holds_no_copies () =
  Obs.Metrics.reset ();
  let module H = Poseidon.Heap in
  let mach = Machine.create () in
  let base = Workloads.Factories.heap_base in
  let h =
    H.create mach ~base ~size:Workloads.Factories.default_window ~heap_id:1 ()
  in
  ignore
    (Machine.parallel mach ~threads:2 (fun _ ->
         for _ = 1 to 50 do
           match H.alloc h 256 with
           | Some p -> H.free h p
           | None -> Alcotest.fail "out of memory"
         done;
         ignore (H.tx_alloc h 64 ~is_end:false);
         H.tx_abort h));
  Nvmm.Memdev.crash (Machine.dev mach) `Strict;
  ignore (H.attach mach ~base ());
  check "allocator run, crash and re-attach publish nothing" true
    (Obs.Metrics.snapshot () = Obs.Json.Obj []);
  let module S = Service.Server in
  let factory = Workloads.Factories.poseidon () in
  let scope = "test/obs/serve" in
  let r =
    S.run
      ~make:(fun () -> factory.Workloads.Factories.make ())
      ~reattach:(fun _ -> assert false)
      { S.default_config with
        S.shards = 2;
        clients = 4;
        rate = 30_000.;
        duration = 0.004;
        keyspace = 256;
        preload = 64;
        scope }
  in
  check "requests offered" true (r.S.offered > 0);
  check "handled gauge" true (Obs.Metrics.get_gauge ~scope "handled" <> None);
  check "latency histogram" true
    (Obs.Metrics.get_log_histogram ~scope "latency_ns" <> None);
  List.iter
    (fun name ->
      check ("no " ^ name ^ " gauge") true
        (Obs.Metrics.get_gauge ~scope name = None))
    [ "offered"; "admitted"; "shed"; "completed"; "acked_mutations";
      "queue_max_depth"; "rto_ns"; "txn_committed"; "txn_aborted";
      "ops_read"; "ops_write"; "ops_scan" ]

(* ---------- log-linear histogram ---------- *)

(* 32 sub-buckets per octave bound the relative error of any recorded
   value's bucket midpoint by ~3.2 %. *)
let test_hist_bucket_accuracy () =
  let module Hi = Obs.Hist in
  let v = ref 3 in
  while !v < 1 lsl 40 do
    let h = Hi.create () in
    (* two samples so the clamp-to-min/max can't mask bucketing *)
    Hi.record h !v;
    Hi.record h (!v * 3);
    let got = Hi.percentile h 50. in
    let err =
      abs_float (float_of_int (got - !v)) /. float_of_int !v
    in
    if err > 0.033 then
      Alcotest.failf "value %d bucketed to %d (%.1f%% error)" !v got
        (100. *. err);
    v := (!v * 7 / 3) + 1
  done

let test_hist_percentiles () =
  let module Hi = Obs.Hist in
  let h = Hi.create () in
  for i = 1 to 10_000 do
    Hi.record h i
  done;
  check_int "count" 10_000 (Hi.count h);
  check_int "total is exact" (10_000 * 10_001 / 2) (Hi.total h);
  check_int "min exact" 1 (Hi.min_value h);
  check_int "max exact" 10_000 (Hi.max_value h);
  let near p expect =
    let got = Hi.percentile h p in
    let err =
      abs_float (float_of_int got -. float_of_int expect)
      /. float_of_int expect
    in
    if err > 0.04 then
      Alcotest.failf "p%.1f = %d, expected ~%d (%.1f%% off)" p got expect
        (100. *. err)
  in
  near 50. 5_000;
  near 99. 9_900;
  near 99.9 9_990;
  check_int "p0 clamps to min" 1 (Hi.percentile h 0.);
  check_int "p100 clamps to max" 10_000 (Hi.percentile h 100.);
  check "mean" true (abs_float (Hi.mean h -. 5_000.5) < 0.01);
  (* negative samples clamp to zero instead of crashing *)
  let h2 = Hi.create () in
  Hi.record h2 (-42);
  check_int "negative clamps to 0" 0 (Hi.percentile h2 50.);
  check_int "empty histogram percentile" 0 (Hi.percentile (Hi.create ()) 99.)

let test_hist_merge () =
  let module Hi = Obs.Hist in
  let a = Hi.create () and b = Hi.create () and all = Hi.create () in
  for i = 1 to 4_000 do
    Hi.record (if i <= 2_000 then a else b) i;
    Hi.record all i
  done;
  Hi.merge ~into:a b;
  check_int "merged count" (Hi.count all) (Hi.count a);
  check_int "merged total" (Hi.total all) (Hi.total a);
  check_int "merged min" (Hi.min_value all) (Hi.min_value a);
  check_int "merged max" (Hi.max_value all) (Hi.max_value a);
  List.iter
    (fun p ->
      check_int
        (Printf.sprintf "merged p%.1f matches single-pass" p)
        (Hi.percentile all p) (Hi.percentile a p))
    [ 50.; 99.; 99.9 ];
  Hi.clear a;
  check_int "clear resets" 0 (Hi.count a)

(* the registry integration: same instance on re-lookup, and p999
   lands in the JSON snapshot *)
let test_log_histogram_registry () =
  let module J = Obs.Json in
  let h = Obs.Metrics.log_histogram ~scope:"test/hist" "lat_ns" in
  Obs.Hist.clear h;
  for i = 1 to 1_000 do
    Obs.Hist.record h (i * 100)
  done;
  check "re-lookup returns the same histogram" true
    (Obs.Metrics.log_histogram ~scope:"test/hist" "lat_ns" == h);
  check "get_log_histogram finds it" true
    (Obs.Metrics.get_log_histogram ~scope:"test/hist" "lat_ns" = Some h);
  let field name =
    match Obs.Metrics.snapshot () with
    | J.Obj scopes -> (
      match List.assoc "test/hist" scopes with
      | J.Obj metrics -> (
        match List.assoc "lat_ns" metrics with
        | J.Obj fields -> List.assoc_opt name fields
        | _ -> None)
      | _ -> None)
    | _ -> None
  in
  (match field "count" with
   | Some (J.Num n) -> check "snapshot count" true (n = 1_000.)
   | _ -> Alcotest.fail "count missing from snapshot");
  match field "p999" with
  | Some (J.Num p) ->
    check "p999 in tail" true (p >= 95_000. && p <= 100_000.)
  | _ -> Alcotest.fail "p999 missing from snapshot"

(* ---------- disabled tracer is inert ---------- *)

let test_disabled_identical () =
  Obs.Trace.clear ();
  let off1 = micro ~threads:4 ~total_ops:2_000 () in
  Obs.Trace.start ();
  let on_ = micro ~threads:4 ~total_ops:2_000 () in
  Obs.Trace.stop ();
  Obs.Trace.clear ();
  let off2 = micro ~threads:4 ~total_ops:2_000 () in
  check "tracing does not change results" true (off1 = on_);
  check "runs are deterministic" true (off1 = off2);
  check_int "no events retained when disabled" 0 (Obs.Trace.count ())

(* ---------- BENCH snapshots: the regression gate ---------- *)

let bench_gate pass =
  Obs.Bench.gate "g" ~value:(Obs.Json.Num 1.) ~bound:(Obs.Json.Num 1.) pass

let bench_doc ?(gates = [ bench_gate true ]) runs =
  Obs.Bench.doc ~suite:"t" ~config:(Obs.Json.Obj []) ~runs ~gates

(* a run whose result holds one percentile block, [latency] *)
let bench_run ?(samples = 100.) label p50 =
  let module J = Obs.Json in
  Obs.Bench.run ~label ~config:(J.Obj [])
    (J.Obj
       [ ( "latency",
           J.Obj
             [ ("p50", J.Num p50); ("p99", J.Num (4. *. p50));
               ("samples", J.Num samples) ] );
         ("throughput", J.Num 1e6) ])

let test_bench_diff () =
  let passes base fresh = snd (Obs.Bench.diff ~base ~fresh) = [] in
  let runs ?samples a = [ bench_run ?samples "a" a; bench_run "b" 2000. ] in
  let base = bench_doc (runs 1000.) in
  check "identical documents pass" true (passes base base);
  check_int "both blocks compared" 2 (fst (Obs.Bench.diff ~base ~fresh:base));
  check "a parsed copy passes" true
    (passes base (Obs.Json.parse (Obs.Json.to_string base)));
  check "latency.p50 x1.2 passes" true (passes base (bench_doc (runs 1200.)));
  check "latency.p50 x1.3 fails" false (passes base (bench_doc (runs 1300.)));
  check "a failed gate fails" false
    (passes base (bench_doc ~gates:[ bench_gate false ] (runs 1000.)));
  let only_a = bench_doc [ bench_run "a" 1000. ] in
  check "run only in the baseline fails" false (passes base only_a);
  check "run only in the fresh snapshot fails" false (passes only_a base);
  let no_gates = bench_doc ~gates:[] (runs 1000.) in
  check "gate only in the baseline fails" false (passes base no_gates);
  check "gate only in the fresh snapshot fails" false (passes no_gates base);
  let empty = bench_doc (runs ~samples:0. 1000.) in
  check "baseline block with no samples is skipped" true
    (passes empty (bench_doc (runs 9000.)));
  check_int "only the sampled block compared" 1
    (fst (Obs.Bench.diff ~base:empty ~fresh:(bench_doc (runs 9000.))))

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip ] );
      ( "trace",
        [ Alcotest.test_case "per-thread monotone timestamps" `Quick
            test_trace_monotone;
          Alcotest.test_case "chrome export parses" `Quick
            test_trace_chrome_export ] );
      ( "metrics",
        [ Alcotest.test_case "heap counters vs known workload" `Quick
            test_metrics_cross_check;
          Alcotest.test_case "fence accounting vs profile" `Quick
            test_metrics_vs_profile;
          Alcotest.test_case "lock stats" `Quick test_lock_stats;
          Alcotest.test_case "registry holds no copied count" `Quick
            test_registry_holds_no_copies ] );
      ( "hist",
        [ Alcotest.test_case "bucket midpoint error <= 3.3%" `Quick
            test_hist_bucket_accuracy;
          Alcotest.test_case "percentiles on a uniform ramp" `Quick
            test_hist_percentiles;
          Alcotest.test_case "merge equals single-pass" `Quick
            test_hist_merge;
          Alcotest.test_case "registry + p999 in snapshot" `Quick
            test_log_histogram_registry ] );
      ( "overhead",
        [ Alcotest.test_case "disabled tracer is inert" `Quick
            test_disabled_identical ] );
      ( "bench",
        [ Alcotest.test_case "regression gate cases" `Quick test_bench_diff ]
      ) ]
