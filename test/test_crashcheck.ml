(* Tests for the persistency model checker (lib/crashcheck): exhaustive
   crash-point sweeps of the five covered operation paths must verify
   recovery everywhere, budgets must bound the sweep, counterexamples
   must replay from their recorded coordinates, and — the mutation
   sanity check — a deliberately-broken missing-flush protocol must be
   caught. *)

module C = Crashcheck
module H = Poseidon.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sweep_clean mk min_points () =
  let scn = mk () in
  let r = C.run ~subsets_per_point:1 scn in
  List.iter
    (fun cx -> Alcotest.failf "%s" (Format.asprintf "%a" C.pp_counterexample cx))
    r.C.counterexamples;
  check "sweep covers the whole operation" true
    (r.C.points_explored >= min_points);
  (* every point ran dirty-lost-all + 1 subset, all verified *)
  check_int "all recoveries verified" (2 * r.C.points_explored)
    r.C.recoveries_verified

(* exhaustive sweeps, one per covered operation path; minimum point
   counts keep the scenarios honest about actually exercising fences *)
let test_sweep_alloc = sweep_clean C.scn_alloc 30
let test_sweep_free = sweep_clean C.scn_free 20
let test_sweep_tx_commit = sweep_clean C.scn_tx_commit 20
let test_sweep_tx_abort = sweep_clean C.scn_tx_abort 20
let test_sweep_extend = sweep_clean C.scn_extend 50
let test_sweep_carve_tombstones = sweep_clean C.scn_carve_tombstones 6

let test_hundred_points_across_operations () =
  (* the standing acceptance bar: >= 100 distinct crash points across
     the five operations, each recovery verified *)
  let reports = List.map (C.run ~subsets_per_point:0) (C.all_scenarios ()) in
  let points = List.fold_left (fun a r -> a + r.C.points_explored) 0 reports in
  check "over 100 distinct crash points" true (points >= 100);
  List.iter
    (fun r ->
      check_int
        (Printf.sprintf "%s: every point's recovery verified" r.C.rp_scenario)
        r.C.points_explored r.C.recoveries_verified)
    reports

let test_extend_scenario_extends_hash () =
  (* the extend sweep is only meaningful if the op really grows the
     sub-heap hash table *)
  let scn = C.scn_extend () in
  let env = scn.C.setup () in
  scn.C.op env;
  check "hash extension exercised" true ((H.stats env.C.heap).H.hash_extends > 0)

(* The carve-tombstones sweep covers [Record.init]'s every-field branch
   only if the carve's records really land in tombstone slots. *)
let test_carve_reuses_tombstones () =
  let scn = C.scn_carve_tombstones () in
  let env = scn.C.setup () in
  let module Ht = Poseidon.Hashtable in
  let before = ref [] in
  H.iter_subheaps env.C.heap (fun sh ->
      let ht = sh.Poseidon.Subheap.ht in
      for level = 0 to Ht.levels ht - 1 do
        for idx = 0 to Ht.level_buckets ht level - 1 do
          let a = Ht.bucket_addr ht ~level ~idx in
          if Poseidon.Record.get_status env.C.mach a = Poseidon.Layout.st_tombstone
          then before := a :: !before
        done
      done);
  scn.C.op env;
  let reused = List.filter (Poseidon.Record.is_live env.C.mach) !before in
  check_int "seven records land in tombstone slots" 7 (List.length reused)

let test_measure_deterministic () =
  let scn = C.scn_alloc () in
  check_int "same fence count on every dry run" (C.measure scn) (C.measure scn)

let test_budget_caps_points () =
  let r = C.run ~max_points:5 ~subsets_per_point:0 (C.scn_alloc ()) in
  check_int "budget respected" 5 r.C.points_explored;
  check "budget still samples the full span" true (r.C.fences_total > 5);
  let r1 = C.run ~max_points:1 ~subsets_per_point:0 (C.scn_alloc ()) in
  check_int "degenerate budget" 1 r1.C.points_explored

let test_subsets_budget () =
  let r = C.run ~max_points:3 ~subsets_per_point:4 (C.scn_free ()) in
  check_int "subsets per point honoured" (3 * 4) r.C.subsets_tried;
  check_int "strict + subsets all verified" (3 * 5) r.C.recoveries_verified

(* ---------- mutation sanity check ---------- *)

let test_broken_protocol_detected () =
  let r = C.run ~subsets_per_point:1 (C.scn_broken_missing_flush ()) in
  check "missing flush caught" true (r.C.counterexamples <> []);
  let cx = List.hd r.C.counterexamples in
  Alcotest.(check string) "the app oracle flags it" "app-commit" cx.C.cx_oracle;
  (* dirty-lost-all at the flag's fence is the deterministic witness *)
  check "found at a real persistence point" true
    (cx.C.cx_point >= 1 && cx.C.cx_point <= r.C.fences_total + 1)

let test_counterexample_replays () =
  (* a counterexample's recorded coordinates (scenario, point, mode)
     must reproduce it on a fresh scenario instance — seed-replayable *)
  let r = C.run ~subsets_per_point:1 (C.scn_broken_missing_flush ()) in
  List.iter
    (fun cx ->
      let scn = Option.get (C.scenario_by_name cx.C.cx_scenario) in
      match C.check_point scn ~point:cx.C.cx_point ~mode:cx.C.cx_mode with
      | Some cx' ->
        Alcotest.(check string) "same oracle on replay" cx.C.cx_oracle
          cx'.C.cx_oracle
      | None -> Alcotest.fail "counterexample did not replay")
    r.C.counterexamples;
  (* adversarial subsets are seeded: at least the strict mode must be
     among the counterexamples, and derived seeds must be stable *)
  check "strict counterexample present" true
    (List.exists (fun cx -> cx.C.cx_mode = C.Dirty_lost_all) r.C.counterexamples);
  check_int "subset seed derivation is stable"
    (C.subset_seed ~seed:1 ~point:7 0)
    (C.subset_seed ~seed:1 ~point:7 0)

(* Every seeded bug of the scenario table, at scripts/check.sh's budget
   ((max points, subsets), 0 = exhaustive) and seed: the oracle that
   must flag it, and the prefix every counterexample's detail has.  A
   seeded bug written wrongly, so that it breaks the heap instead of
   the target property, still exits 1 and passes the mutation gates;
   here it fails. *)
let seeded_bugs =
  [ ("broken", (2, 0), "app-commit", "");
    ("kv-commit-broken", (0, 2), "kv-store", "dangling value");
    ("kv-ack-broken", (0, 2), "kv-store", "recovered store matches no plan prefix");
    ("kv-txn-broken", (0, 2), "kv-store", "");
    ("kv-coord-broken", (0, 2), "kv-store", "");
    ("mvcc-broken", (6, 1), "snapshot-reads", "");
    ("rcache-broken", (8, 1), "cached-reads", "");
    ("kv-batched-broken", (6, 1), "kv-batched", "");
    ("tcache-broken", (8, 1), "value-census", "") ]

let test_seeded_bugs_trip_their_oracle () =
  Alcotest.(check (list string)) "one expectation per seeded entry, in order"
    (List.filter_map (fun (name, _, bug) -> if bug then Some name else None)
       C.scenarios)
    (List.map (fun (name, _, _, _) -> name) seeded_bugs);
  List.iter
    (fun (name, (max_points, subsets_per_point), oracle, detail) ->
      let scn = Option.get (C.scenario_by_name name) in
      let r = C.run ~max_points ~subsets_per_point ~seed:42 scn in
      check (name ^ " flagged") true (r.C.counterexamples <> []);
      List.iter
        (fun cx ->
          Alcotest.(check string) (name ^ ": the oracle") oracle cx.C.cx_oracle;
          check (name ^ ": the detail") true
            (String.starts_with ~prefix:detail cx.C.cx_detail))
        r.C.counterexamples)
    seeded_bugs

let test_healthy_point_is_green () =
  match C.check_point (C.scn_alloc ()) ~point:3 ~mode:C.Dirty_lost_all with
  | None -> ()
  | Some cx -> Alcotest.failf "unexpected: %s" cx.C.cx_detail

(* ---------- the KV driver and the scenario table ---------- *)

(* An executor that acks a delete without running it leaves the
   deleted key in the store.  No later op touches that key, so only a
   prefix rule that checks every key of the universe can see it: the
   acked-prefix oracle must flag every crash point after the delete,
   the one past the whole plan included. *)
let test_prefix_oracle_sees_acked_delete () =
  let skip_deletes r i = function
    | C.Kdel _ -> ()
    | o -> C.kv_exec r i o
  in
  let honest =
    { C.kv_default with
      C.kname = "kv-delete-put";
      preload = [ (1, 11); (2, 12); (3, 13) ];
      plan = [ C.Kdel 2; C.Kput (3, 23) ] }
  in
  let r =
    C.run ~subsets_per_point:0
      (C.kv_sweep { honest with C.kname = "kv-skipped-delete"; exec = skip_deletes })
  in
  check "the put's fences are swept" true (r.C.points_explored > 1);
  check_int "every crash point flagged" r.C.points_explored
    (List.length r.C.counterexamples);
  List.iter
    (fun cx ->
      Alcotest.(check string) "by the prefix oracle" "kv-store" cx.C.cx_oracle)
    r.C.counterexamples;
  (* the same plan run honestly is green *)
  check_int "the honest run is green" 0
    (List.length
       (C.run ~subsets_per_point:0 (C.kv_sweep honest)).C.counterexamples)

let test_scenario_table () =
  List.iter
    (fun (name, mk, _) ->
      Alcotest.(check string) "table name is the scenario's sname" name
        (mk ()).C.sname)
    C.scenarios;
  Alcotest.(check (list string)) "all_scenarios: the correct entries, in order"
    (List.filter_map
       (fun (name, _, bug) -> if bug then None else Some name)
       C.scenarios)
    (List.map (fun s -> s.C.sname) (C.all_scenarios ()));
  check "an unknown name is no scenario" true
    (C.scenario_by_name "kv-commit-brokn" = None)

let () =
  Alcotest.run "crashcheck"
    [ ( "sweeps",
        [ Alcotest.test_case "alloc path exhaustive" `Quick test_sweep_alloc;
          Alcotest.test_case "free path exhaustive" `Quick test_sweep_free;
          Alcotest.test_case "tx-commit path exhaustive" `Quick
            test_sweep_tx_commit;
          Alcotest.test_case "tx-abort path exhaustive" `Quick
            test_sweep_tx_abort;
          Alcotest.test_case "extend path exhaustive" `Slow test_sweep_extend;
          Alcotest.test_case "100+ points across operations" `Slow
            test_hundred_points_across_operations;
          Alcotest.test_case "carve-tombstones path exhaustive" `Quick
            test_sweep_carve_tombstones;
          Alcotest.test_case "carve really reuses tombstones" `Quick
            test_carve_reuses_tombstones;
          Alcotest.test_case "extend really extends" `Quick
            test_extend_scenario_extends_hash ] );
      ( "budgets",
        [ Alcotest.test_case "measure deterministic" `Quick
            test_measure_deterministic;
          Alcotest.test_case "max-points budget" `Quick test_budget_caps_points;
          Alcotest.test_case "subsets budget" `Quick test_subsets_budget ] );
      ( "mutation",
        [ Alcotest.test_case "missing flush detected" `Quick
            test_broken_protocol_detected;
          Alcotest.test_case "counterexamples replay" `Quick
            test_counterexample_replays;
          Alcotest.test_case "each seeded bug trips its own oracle" `Slow
            test_seeded_bugs_trip_their_oracle;
          Alcotest.test_case "healthy point green" `Quick
            test_healthy_point_is_green ] );
      ( "kv driver",
        [ Alcotest.test_case "prefix oracle sees an acked delete" `Quick
            test_prefix_oracle_sees_acked_delete;
          Alcotest.test_case "scenario table names" `Quick test_scenario_table ] ) ]
