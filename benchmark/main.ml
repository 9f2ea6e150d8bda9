(* Seeded end-to-end and per-layer benchmark of the serving stack and the
   allocator.  See benchmark/README.md.

     dune exec benchmark/main.exe -- --workload kv-write --seed 42 --seconds 20 --trace 0

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
   The exit code is non-zero when any correctness gate fails. *)

open Benchkit

let workloads = [ "kv-write"; "kv-read"; "kv-repl"; Larsonbench.name ]

(* [--seconds] at which one run measures the full traffic of every
   workload; other values scale the simulated traffic linearly *)
let reference_seconds = 20.

(* the metrics measured in process CPU time rather than simulated time;
   set-up time's bound is the one in BENCHMARK.json *)
let setup_bound = 0.25
let cpu_metrics = [ "setup_s"; "obs.trace_overhead" ]

let run_one ~trace ~seed ~scale w =
  match List.find_opt (fun s -> s.Kvbench.name = w) Kvbench.specs with
  | Some spec ->
    let spec = { spec with Kvbench.cfg = { spec.Kvbench.cfg with Service.Server.seed } } in
    if trace then Kvbench.layers spec ~scale else Kvbench.e2e spec ~scale
  | None ->
    if trace then Larsonbench.layers ~scale ~seed () else Larsonbench.e2e ~scale ~seed ()

let run_set ~trace ~seed ~scale ws =
  List.map
    (fun w ->
      let o = run_one ~trace ~seed ~scale w in
      Report.print_outcome o;
      flush stdout;
      o)
    ws

let value o name = (List.find (fun x -> x.Report.name = name) o.Report.metrics).Report.value

(* --repeat: simulated metrics must match bit for bit between sets, and
   set-up time within its bound *)
let compare_sets a b =
  let errs = ref [] in
  List.iter2
    (fun (x : Report.outcome) (y : Report.outcome) ->
      List.iter
        (fun (mx : Report.metric) ->
          let vy = value y mx.Report.name in
          let name = x.Report.workload ^ "/" ^ mx.Report.name in
          if mx.Report.name = "setup_s" then begin
            let d = Float.abs (mx.Report.value -. vy) /. Float.min mx.Report.value vy in
            Printf.printf "repeat: %-40s %.4f vs %.4f s (%.1f%%)\n" name mx.Report.value vy (100. *. d);
            if d > setup_bound then errs := (name ^ " differs beyond its bound") :: !errs
          end
          else if List.mem mx.Report.name cpu_metrics then
            Printf.printf "repeat: %-40s %.3f vs %.3f\n" name mx.Report.value vy
          else if mx.Report.value <> vy then
            errs := Printf.sprintf "%s: %.17g vs %.17g" name mx.Report.value vy :: !errs)
        x.Report.metrics)
    a b;
  List.rev !errs

(* --seeds: min / median / max of each metric across seeds, and the
   distance between the quartiles as a share of the median *)
let seeds_table per_seed =
  match per_seed with
  | [] -> ()
  | (_, first) :: _ ->
    Printf.printf "\nseed spread over %d seeds: min / median / max, IQR as %% of median\n"
      (List.length per_seed);
    List.iteri
      (fun i (o : Report.outcome) ->
        List.iter
          (fun (mx : Report.metric) ->
            let vs = List.map (fun (_, os) -> value (List.nth os i) mx.Report.name) per_seed in
            let med = Samples.median vs in
            let q1, q3 = Samples.quartiles vs in
            Printf.printf "  %-14s %-22s %12.6g %12.6g %12.6g %-6s IQR %5.2f%%\n" o.Report.workload
              mx.Report.name (List.fold_left Float.min infinity vs) med
              (List.fold_left Float.max neg_infinity vs) mx.Report.unit
              (if med = 0. then 0. else 100. *. (q3 -. q1) /. med))
          o.Report.metrics)
      first

let () =
  let workload = ref "all" and seed = ref 42 and seconds = ref reference_seconds in
  let trace = ref false and json_out = ref "" and repeat = ref 1 and seeds = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " workloads ^ ", or all");
      ("--seed", Arg.Set_int seed, "N  seed of every generated input (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  run length; scales the simulated traffic (default 20)");
      ("--trace", Arg.Int (fun v -> trace := v <> 0), "0|1  1 = the traced per-layer run");
      ("--traced", Arg.Set trace, " same as --trace 1");
      ("--json-out", Arg.Set_string json_out, "F  write every outcome, with detail metrics, to F");
      ("--repeat", Arg.Set_int repeat, "N  run the full set N times and check they agree");
      ("--seeds", Arg.Set_string seeds, "A,B,..  run each seed and print the spread of every e2e metric") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "benchmark/main.exe [options]";
  let ws = if !workload = "all" then workloads else [ !workload ] in
  List.iter
    (fun w ->
      if not (List.mem w workloads) then begin
        prerr_endline ("unknown workload " ^ w);
        exit 2
      end)
    ws;
  if !seconds <= 0. then (prerr_endline "--seconds must be positive"; exit 2);
  let scale = !seconds /. reference_seconds in
  let outcomes, extra_errors =
    if !seeds <> "" then begin
      let per_seed =
        List.map
          (fun s ->
            let s = int_of_string (String.trim s) in
            Printf.printf "\n### seed %d\n" s;
            (s, run_set ~trace:!trace ~seed:s ~scale ws))
          (String.split_on_char ',' !seeds)
      in
      seeds_table per_seed;
      let errs =
        List.concat_map (fun (_, os) -> List.concat_map (fun o -> o.Report.errors) os) per_seed
      in
      (snd (List.hd per_seed), errs)
    end
    else if !repeat > 1 then begin
      let set () =
        let e2e = run_set ~trace:false ~seed:!seed ~scale ws in
        e2e @ run_set ~trace:true ~seed:!seed ~scale ws
      in
      let first = set () in
      let errs =
        List.concat_map
          (fun _ ->
            let again = set () in
            compare_sets first again @ List.concat_map (fun o -> o.Report.errors) again)
          (List.init (!repeat - 1) Fun.id)
      in
      List.iter (fun e -> Printf.printf "repeat MISMATCH: %s\n" e) errs;
      (first, errs)
    end
    else (run_set ~trace:!trace ~seed:!seed ~scale ws, [])
  in
  if !json_out <> "" then begin
    let oc = open_out !json_out in
    output_string oc
      (Report.json_string
         (Obs.Json.Obj
            [ ("seed", Obs.Json.Num (float_of_int !seed));
              ("seconds", Obs.Json.Num !seconds);
              ("trace", Obs.Json.Bool !trace);
              ("outcomes", Obs.Json.Arr (List.map Report.outcome_json outcomes)) ]));
    output_char oc '\n';
    close_out oc
  end;
  let correct = extra_errors = [] && List.for_all (fun o -> o.Report.errors = []) outcomes in
  print_endline (Report.result_line ~correct outcomes);
  if not correct then exit 1
