(** Metrics registry: named gauges and log histograms grouped by
    scope, snapshottable to JSON.

    It holds only what a run publishes beyond its typed result: the
    serving loop's gauges (its DRAM tiers, per-shard MVCC chains and
    apply lag) and latency histograms under the run's scope, the
    [serve] command's [trace/dropped_events], and the bench harness's
    figure cells under [bench/<title>].  A count some
    typed record already holds ([Heap.stats], [Server.result], a
    crashcheck report) is read from that record, not copied here.

    Scopes are free-form strings chosen by the publisher.  Histograms
    are fixed-bucket {!Hist} instances and export count/mean/percentile
    summaries.  There is one registry per process. *)

type value =
  | Gauge of float ref
  | Loghist of Hist.t

let tbl : (string * string, value) Hashtbl.t = Hashtbl.create 64
let order : (string * string) list ref = ref [] (* reverse insertion order *)

let reset () =
  Hashtbl.reset tbl;
  order := []

let find_or_add key mk =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = mk () in
    Hashtbl.add tbl key v;
    order := key :: !order;
    v

let set_gauge ~scope name x =
  match find_or_add (scope, name) (fun () -> Gauge (ref 0.)) with
  | Gauge r -> r := x
  | _ -> invalid_arg (Printf.sprintf "Metrics.set_gauge: %s/%s is not a gauge" scope name)

(** Fixed-bucket log-scale histogram ({!Hist}) for high-volume
    simulated-ns latency samples; exports p50/p99/p999 in snapshots. *)
let log_histogram ~scope name =
  match find_or_add (scope, name) (fun () -> Loghist (Hist.create ())) with
  | Loghist h -> h
  | _ ->
    invalid_arg
      (Printf.sprintf "Metrics.log_histogram: %s/%s is not a log histogram"
         scope name)

(* ---------- lookup (tests, cross-checks) ---------- *)

let get_gauge ~scope name =
  match Hashtbl.find_opt tbl (scope, name) with
  | Some (Gauge r) -> Some !r
  | _ -> None

let get_log_histogram ~scope name =
  match Hashtbl.find_opt tbl (scope, name) with
  | Some (Loghist h) -> Some h
  | _ -> None

(* ---------- snapshot ---------- *)

let value_to_json = function
  | Gauge r -> Json.Num !r
  | Loghist h ->
    if Hist.count h = 0 then Json.Obj [ ("count", Json.Num 0.) ]
    else
      Json.Obj
        [ ("count", Json.Num (float_of_int (Hist.count h)));
          ("mean", Json.Num (Hist.mean h));
          ("min", Json.Num (float_of_int (Hist.min_value h)));
          ("p50", Json.Num (float_of_int (Hist.percentile h 50.)));
          ("p99", Json.Num (float_of_int (Hist.percentile h 99.)));
          ("p999", Json.Num (float_of_int (Hist.percentile h 99.9)));
          ("max", Json.Num (float_of_int (Hist.max_value h))) ]

(** Snapshot as a JSON value: one object per scope, in first-insertion
    order, each mapping metric names to numbers (gauges) or summary
    objects (histograms). *)
let snapshot () =
  let keys = List.rev !order in
  let scopes = Hashtbl.create 16 in
  let scope_order = ref [] in
  List.iter
    (fun (scope, name) ->
      let entry =
        match Hashtbl.find_opt scopes scope with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.add scopes scope l;
          scope_order := scope :: !scope_order;
          l
      in
      entry := (name, value_to_json (Hashtbl.find tbl (scope, name))) :: !entry)
    keys;
  Json.Obj
    (List.rev_map
       (fun scope ->
         (scope, Json.Obj (List.rev !(Hashtbl.find scopes scope))))
       !scope_order)
