(* Tiny-scale run of every benchmark workload: each metric BENCHMARK.json
   declares is emitted with its unit and a finite value, the result line
   parses, and every correctness gate (ledgers, heap invariants, Larson
   object census, tracing leaves simulated time unchanged) passes. *)

open Benchkit

let declared section =
  let ic = open_in "../BENCHMARK.json" in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc = Obs.Json.parse src in
  match Option.bind (Obs.Json.member section doc) Obs.Json.to_list with
  | Some l ->
    List.map
      (fun m ->
        let str k = Option.get (Option.bind (Obs.Json.member k m) Obs.Json.to_str) in
        (str "name", str "unit"))
      l
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" section

let seed = 7
let kv = List.map (Kvbench.shrink 16) Kvbench.specs
let larson = Larsonbench.shrink 16 Larsonbench.spec

let with_seed (s : Kvbench.spec) = { s with Kvbench.cfg = { s.Kvbench.cfg with Service.Server.seed } }

let e2e () =
  List.map (fun s -> Kvbench.e2e (with_seed s) ~scale:1.) kv
  @ [ Larsonbench.e2e ~spec:larson ~scale:1. ~seed () ]

let traced () =
  List.map (fun s -> Kvbench.layers (with_seed s) ~scale:1.) kv
  @ [ Larsonbench.layers ~spec:larson ~scale:1. ~seed () ]

let check_outcomes section outcomes =
  let want = declared section in
  List.iter
    (fun (o : Report.outcome) ->
      Alcotest.(check (list string)) (o.Report.workload ^ " correct") [] o.Report.errors;
      Alcotest.(check bool) (o.Report.workload ^ " attempted") true (o.Report.attempted > 0);
      Alcotest.(check int) (o.Report.workload ^ " failed") 0 o.Report.failed;
      List.iter
        (fun (name, unit) ->
          match List.find_opt (fun x -> x.Report.name = name) o.Report.metrics with
          | None -> Alcotest.failf "%s: %s not emitted" o.Report.workload name
          | Some x ->
            Alcotest.(check string) (o.Report.workload ^ " " ^ name ^ " unit") unit x.Report.unit;
            if not (Float.is_finite x.Report.value) then
              Alcotest.failf "%s: %s = %g" o.Report.workload name x.Report.value)
        want;
      Alcotest.(check int)
        (o.Report.workload ^ " emits exactly the declared metrics")
        (List.length want) (List.length o.Report.metrics))
    outcomes;
  (* the result line of each outcome parses back to the declared metrics *)
  List.iter
    (fun o ->
      let line = Obs.Json.parse (Report.result_line [ o ]) in
      let num k = Option.bind (Obs.Json.member k line) Obs.Json.to_float in
      Alcotest.(check bool) "correct" true (Obs.Json.member "correct" line = Some (Obs.Json.Bool true));
      Alcotest.(check bool) "attempted" true (num "attempted" = Some (float_of_int o.Report.attempted));
      match Obs.Json.member "metrics" line with
      | Some (Obs.Json.Obj ms) -> Alcotest.(check int) "metric count" (List.length want) (List.length ms)
      | _ -> Alcotest.fail "no metrics object")
    outcomes

let e2e_outcomes = lazy (e2e ())

(* the ledger gate looked at keys: each KV run reports how many it verified *)
let ledger_checked () =
  List.iter
    (fun (o : Report.outcome) ->
      if o.Report.workload <> Larsonbench.name then
        match List.find_opt (fun x -> x.Report.name = "ledger_checked") o.Report.detail with
        | Some x -> Alcotest.(check bool) (o.Report.workload ^ " keys verified") true (x.Report.value > 0.)
        | None -> Alcotest.failf "%s: ledger_checked missing" o.Report.workload)
    (Lazy.force e2e_outcomes)

let () =
  Alcotest.run "benchmark"
    [ ( "benchmark",
        [ Alcotest.test_case "e2e metrics of every workload" `Quick (fun () ->
              check_outcomes "end_to_end" (Lazy.force e2e_outcomes));
          Alcotest.test_case "per-layer metrics of every workload" `Quick (fun () ->
              check_outcomes "per_layer" (traced ()));
          Alcotest.test_case "seeded ledger check" `Quick ledger_checked ] ) ]
