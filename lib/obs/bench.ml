(** The BENCH snapshot format ([poseidon-bench/v2]) and the baseline
    comparison CI's bench regression gate runs on it.

    A snapshot is
    [{schema, suite, rev, config, runs[], gates[], metrics}]:
    - a run is [{label, config, result}], plus any field a suite adds
      (an attribution report, a cache hit rate);
    - a gate is [{name, value, bound, pass}], where [pass] is the
      suite's own comparison and [value] / [bound] show its operands;
    - [metrics] is the {!Metrics} registry at the end of the suite:
      the suite's figure cells under [bench/<title>] and what its
      serving runs published beyond their [result] (DRAM-tier and
      per-shard gauges, latency histograms).

    A {e percentile block} is any object inside a run that has both a
    [p50] and a [samples] member; {!diff} compares every block's p50
    against the baseline's. *)

let schema = "poseidon-bench/v2"

type gate = { name : string; value : Json.v; bound : Json.v; pass : bool }

let gate name ~value ~bound pass = { name; value; bound; pass }

let run ?(extra = []) ~label ~config result =
  Json.Obj
    ([ ("label", Json.Str label); ("config", config); ("result", result) ]
    @ extra)

(** The git revision the snapshot was taken at, [null] outside a
    checkout. *)
let rev () =
  match Repro_util.Gitrev.short () with
  | Some r -> Json.Str r
  | None -> Json.Null

let gate_json g =
  Json.Obj
    [ ("name", Json.Str g.name); ("value", g.value); ("bound", g.bound);
      ("pass", Json.Bool g.pass) ]

(** The snapshot of one suite, stamped with {!rev} and the metrics
    registry. *)
let doc ~suite ~config ~runs ~gates =
  Json.Obj
    [ ("schema", Json.Str schema); ("suite", Json.Str suite); ("rev", rev ());
      ("config", config); ("runs", Json.Arr runs);
      ("gates", Json.Arr (List.map gate_json gates));
      ("metrics", Metrics.snapshot ()) ]

(* ---------- baseline comparison ---------- *)

let str key v = Option.bind (Json.member key v) Json.to_str
let num key v = Option.bind (Json.member key v) Json.to_float

(* [key]-named members of the [field] array, in document order *)
let named field key doc =
  Option.value ~default:[] (Option.bind (Json.member field doc) Json.to_list)
  |> List.filter_map (fun item ->
         Option.map (fun n -> (n, item)) (str key item))

(* every percentile block of a run as (dotted path, (p50, samples)) *)
let blocks run =
  let rec walk path v acc =
    match v with
    | Json.Obj fields ->
      let acc =
        match (num "p50" v, num "samples" v) with
        | Some p50, Some samples -> (path, (p50, samples)) :: acc
        | _ -> acc
      in
      List.fold_left
        (fun acc (k, v) ->
          walk (if path = "" then k else path ^ "." ^ k) v acc)
        acc fields
    | _ -> acc
  in
  List.rev (walk "" run [])

(** [diff ~base ~fresh] checks a fresh snapshot against its baseline
    and returns the number of percentile blocks compared and every
    problem found.  A problem is: a changed schema or suite (nothing
    else is then compared); a fresh gate that fails; a run label or
    gate name present on one side only; a baseline block (with
    [samples] > 0) missing from the fresh run; or a p50 that grew by
    more than 25% (fresh × 4 > base × 5, exact on integer
    nanoseconds).  Blocks are keyed by run label and path; a baseline
    block with no samples is not compared. *)
let diff ~base ~fresh =
  let problems = ref [] and compared = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun key ->
      let show v = Option.value ~default:"(none)" (str key v) in
      if str key base <> str key fresh then
        fail "%s changed: %s -> %s" key (show base) (show fresh))
    [ "schema"; "suite" ];
  if !problems = [] then begin
    let base_gates = named "gates" "name" base
    and fresh_gates = named "gates" "name" fresh
    and base_runs = named "runs" "label" base
    and fresh_runs = named "runs" "label" fresh in
    List.iter
      (fun (name, g) ->
        if Json.member "pass" g <> Some (Json.Bool true) then
          let show k =
            Json.to_string (Option.value ~default:Json.Null (Json.member k g))
          in
          fail "gate %s failed: value %s, bound %s" name (show "value")
            (show "bound"))
      fresh_gates;
    let one_sided what a b side =
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n b) then
            fail "%s %S only in the %s" what n side)
        a
    in
    one_sided "run" base_runs fresh_runs "baseline";
    one_sided "run" fresh_runs base_runs "fresh snapshot";
    one_sided "gate" base_gates fresh_gates "baseline";
    one_sided "gate" fresh_gates base_gates "fresh snapshot";
    List.iter
      (fun (label, brun) ->
        match List.assoc_opt label fresh_runs with
        | None -> ()
        | Some frun ->
          let fresh_blocks = blocks frun in
          List.iter
            (fun (path, (p50, samples)) ->
              if samples > 0. then
                match List.assoc_opt path fresh_blocks with
                | None -> fail "run %S: block %s missing" label path
                | Some (fp50, _) ->
                  incr compared;
                  if 4. *. fp50 > 5. *. p50 then
                    fail "run %S: %s p50 regressed %.0f -> %.0f ns (>25%%)"
                      label path p50 fp50)
            (blocks brun))
      base_runs
  end;
  (!compared, List.rev !problems)
