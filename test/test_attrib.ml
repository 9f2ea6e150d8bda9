(* Distributed tracing + latency attribution: span-store bounds, the
   causal integrity of span trees shipped across the replication wire
   (including under seeded drop/dup faults and batched shipping), the
   budget's coverage of measured end-to-end latency, and bit-for-bit
   determinism of the whole attribution report across same-seed runs. *)

module S = Service.Server
module Span = Obs.Span
module Attrib = Obs.Attrib
module J = Obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- span store unit behaviour ---------- *)

let test_span_store_bounds () =
  Span.clear ();
  (* off: every operation is a no-op through the -1 path *)
  check_int "new_trace off" (-1) (Span.new_trace ());
  check_int "open_span off" (-1)
    (Span.open_span ~trace:0 ~parent:(-1) Span.Request);
  Span.start ~capacity:4 ();
  let tr = Span.new_trace () in
  check "trace id allocated" true (tr >= 0);
  let ids =
    List.init 10 (fun _ ->
        let id = Span.open_span ~trace:tr ~parent:(-1) Span.Store in
        Span.close_span id;
        id)
  in
  let live = List.filter (fun id -> id >= 0) ids in
  check_int "store holds exactly its capacity" 4 (List.length live);
  check_int "count stops at capacity" 4 (Span.count ());
  check_int "overflow is counted, not overwritten" 6 (Span.dropped ());
  (* dropped spans returned -1: closing them must be harmless *)
  List.iter Span.close_span ids;
  Span.clear ();
  check_int "clear resets the store" 0 (Span.count ())

(* ---------- harness ---------- *)

let repl_cfg scope =
  { S.default_config with
    S.shards = 2;
    clients = 8;
    rate = 15_000.;
    duration = 0.005;
    keyspace = 512;
    preload = 256;
    read_pct = 20;
    txn_pct = 25;
    txn_ops = 2;
    scope }

let run_replicated ?(rcfg = S.default_repl_config) cfg =
  S.run_replicated
    ~make:(fun mach -> Workloads.Factories.poseidon_on mach)
    cfg rcfg

(* ---------- causal span trees survive the wire ---------- *)

(* Every closed span must point at a parent in the same trace, and the
   chrome export's cross-machine flow events must pair up: one finish
   per start, same id.  Run on a lossy, duplicating link — retransmits
   and duplicate deliveries must not orphan or double-close a span. *)
let test_span_tree_integrity_under_faults () =
  Span.clear ();
  Span.start ();
  Obs.Trace.start ();
  let r =
    run_replicated
      ~rcfg:
        { S.default_repl_config with
          S.link_drop_pct = 20;
          link_dup_pct = 10;
          retransmit_ns = 60_000 }
      (repl_cfg "test/attrib/faults")
  in
  Obs.Trace.stop ();
  check "faults actually injected" true
    (r.S.link_dropped > 0 || r.S.link_duplicated > 0);
  check "requests completed" true (r.S.base.S.completed > 0);
  (* structural: parents exist, stay in-trace, and nest in time *)
  let info = Hashtbl.create 4096 in
  Span.iter (fun ~id ~trace ~parent:_ ~stage:_ ~t0 ~t1 ~mach:_ ~tid:_ ->
      Hashtbl.replace info id (trace, t0, t1));
  let total = Span.count () in
  let orphans = ref 0 and cross_trace = ref 0 and spans = ref 0 in
  let cross_machine = ref 0 in
  Span.iter (fun ~id:_ ~trace ~parent ~stage:_ ~t0:_ ~t1:_ ~mach ~tid:_ ->
      incr spans;
      if parent >= 0 then begin
        if parent >= total then incr orphans
        else
          (* a parent absent from [info] is merely still open (an
             in-flight request's root at shutdown) — that's fine *)
          (match Hashtbl.find_opt info parent with
           | Some (ptrace, _, _) -> if ptrace <> trace then incr cross_trace
           | None -> ());
        if Span.mach_of parent <> mach then incr cross_machine
      end);
  check "spans recorded" true (!spans > 0);
  check_int "no orphaned parents" 0 !orphans;
  check_int "no cross-trace edges" 0 !cross_trace;
  check "replication produced cross-machine edges" true (!cross_machine > 0);
  (* export: every flow start has exactly its matching finish *)
  let doc = J.parse (Obs.Trace.to_chrome_json ()) in
  let events =
    match Option.bind (J.member "traceEvents" doc) J.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "export has no traceEvents"
  in
  let starts = Hashtbl.create 256 and finishes = Hashtbl.create 256 in
  List.iter
    (fun ev ->
      let str k = Option.bind (J.member k ev) J.to_str in
      let id () =
        match Option.bind (J.member "id" ev) J.to_float with
        | Some f -> int_of_float f
        | None -> Alcotest.fail "flow event without id"
      in
      match str "ph" with
      | Some "s" -> Hashtbl.replace starts (id ()) ()
      | Some "f" ->
        check "finish binds enclosing slice" true (str "bp" = Some "e");
        Hashtbl.replace finishes (id ()) ()
      | _ -> ())
    events;
  check "flow events exported" true (Hashtbl.length starts > 0);
  Hashtbl.iter
    (fun id () ->
      check "every flow start matched" true (Hashtbl.mem finishes id))
    starts;
  Hashtbl.iter
    (fun id () ->
      check "every flow finish matched" true (Hashtbl.mem starts id))
    finishes;
  Obs.Trace.clear ();
  Span.clear ()

(* ---------- batched records keep their request's context ---------- *)

(* At batch window 4 a group member's record ships with its trace and
   store span, and a piggybacked transaction's records with its trace
   and txn span: the backup's wire hop and apply show up as detail
   stages, each hop hanging off the span that shipped it. *)
let test_batched_records_traced () =
  Span.clear ();
  Span.start ();
  ignore
    (run_replicated
       { (repl_cfg "test/attrib/batched") with
         S.batch_window = 4;
         txn_pct = 20;
         read_pct = 30 });
  let rep = Attrib.analyze () in
  let detail stage =
    List.exists
      (fun (row : Attrib.stage_row) -> row.Attrib.stage = stage)
      rep.Attrib.detail
  in
  check "repl_wire detail stage" true (detail Span.Repl_wire);
  check "backup_apply detail stage" true (detail Span.Backup_apply);
  let stage_of = Hashtbl.create 4096 in
  Span.iter (fun ~id ~trace:_ ~parent:_ ~stage ~t0:_ ~t1:_ ~mach:_ ~tid:_ ->
      Hashtbl.replace stage_of id stage);
  let hops = ref 0 and stray = ref 0 in
  Span.iter (fun ~id:_ ~trace:_ ~parent ~stage ~t0:_ ~t1:_ ~mach:_ ~tid:_ ->
      if stage = Span.Repl_wire then begin
        incr hops;
        match Hashtbl.find_opt stage_of parent with
        | Some (Span.Store | Span.Txn) -> ()
        | _ -> incr stray
      end);
  check "wire hops recorded" true (!hops > 0);
  check_int "every hop hangs off its store or txn span" 0 !stray;
  check_int "no spans dropped" 0 rep.Attrib.span_dropped;
  Span.clear ()

(* ---------- the budget explains the measured latency ---------- *)

let test_budget_covers_e2e () =
  Span.clear ();
  Span.start ();
  let r = run_replicated (repl_cfg "test/attrib/coverage") in
  let rep = Attrib.analyze () in
  Span.clear ();
  check "requests analyzed" true (rep.Attrib.requests > 0);
  check_int "every completed request has a span tree"
    r.S.base.S.completed rep.Attrib.requests;
  (* the root span is closed at reply delivery, so its duration IS the
     measured client latency: the percentiles must agree exactly *)
  check_int "e2e p50 equals measured p50" r.S.base.S.latency.S.p50
    rep.Attrib.e2e_p50_ns;
  check_int "e2e p99 equals measured p99" r.S.base.S.latency.S.p99
    rep.Attrib.e2e_p99_ns;
  (* budget stages partition the root: they explain >= 90% of the
     end-to-end time and never exceed it *)
  check "coverage >= 0.9" true (rep.Attrib.coverage >= 0.9);
  check "coverage <= 1.0" true (rep.Attrib.coverage <= 1.0);
  check "no spans dropped at this scale" true (rep.Attrib.span_dropped = 0);
  (* sync replication must surface as a repl_ack budget row *)
  check "repl_ack stage present" true
    (List.exists
       (fun (row : Attrib.stage_row) -> row.Attrib.stage = Span.Repl_ack)
       rep.Attrib.budget);
  (* detail stages refine, never join, the budget *)
  List.iter
    (fun (row : Attrib.stage_row) ->
      check "detail stages are not budget stages" false
        (Span.is_budget row.Attrib.stage))
    rep.Attrib.detail

(* ---------- determinism ---------- *)

let test_attribution_deterministic () =
  let go () =
    Span.clear ();
    Span.start ();
    ignore (run_replicated (repl_cfg "test/attrib/det"));
    let rep = Attrib.analyze () in
    let spans = Span.count () in
    Span.clear ();
    (rep, spans)
  in
  let r1, n1 = go () in
  let r2, n2 = go () in
  check_int "same seed, same span count" n1 n2;
  check "same seed, same attribution report" true (r1 = r2);
  (* and the JSON rendering is byte-identical (what the bench pins) *)
  check "same seed, same report JSON" true
    (J.to_string (Attrib.report_json r1) = J.to_string (Attrib.report_json r2))

let () =
  Alcotest.run "attrib"
    [ ( "span-store",
        [ Alcotest.test_case "fixed capacity, counted drops" `Quick
            test_span_store_bounds ] );
      ( "causality",
        [ Alcotest.test_case "span trees + flow links survive a lossy wire"
            `Quick test_span_tree_integrity_under_faults;
          Alcotest.test_case "batched records keep their trace" `Quick
            test_batched_records_traced ] );
      ( "budget",
        [ Alcotest.test_case "stages explain >= 90% of measured latency"
            `Quick test_budget_covers_e2e ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same attribution" `Quick
            test_attribution_deterministic ] ) ]
