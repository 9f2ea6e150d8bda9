(** Metrics registry: named counters, gauges and log histograms
    grouped by scope, snapshottable to JSON.

    Scopes are free-form strings chosen by the instrumented layer —
    ["machine"], ["heap1"], ["lock/subheap-3"], ["bench/Fig 6 - 256 B"]
    — so per-heap, per-sub-heap, per-lock and machine-wide metrics all
    live in one registry and export together.

    Counter handles are plain [int ref]s: incrementing one is as cheap
    as the hand-rolled stat fields it replaces, so live counters stay
    enabled unconditionally.  Histograms are fixed-bucket {!Hist}
    instances and export count/mean/percentile summaries.

    A process-global {!default} registry serves the common case;
    every function takes [?m] to target a private registry (tests). *)

type value =
  | Counter of int ref
  | Gauge of float ref
  | Loghist of Hist.t

type t = {
  tbl : (string * string, value) Hashtbl.t;
  mutable order : (string * string) list; (* reverse insertion order *)
}

let create () = { tbl = Hashtbl.create 64; order = [] }

let default = create ()

let reset ?(m = default) () =
  Hashtbl.reset m.tbl;
  m.order <- []

let find_or_add m key mk =
  match Hashtbl.find_opt m.tbl key with
  | Some v -> v
  | None ->
    let v = mk () in
    Hashtbl.add m.tbl key v;
    m.order <- key :: m.order;
    v

let counter ?(m = default) ~scope name =
  match find_or_add m (scope, name) (fun () -> Counter (ref 0)) with
  | Counter r -> r
  | _ -> invalid_arg (Printf.sprintf "Metrics.counter: %s/%s is not a counter" scope name)

let incr r = Stdlib.incr r
let add r n = r := !r + n
let value r = !r

let set_gauge ?(m = default) ~scope name x =
  match find_or_add m (scope, name) (fun () -> Gauge (ref 0.)) with
  | Gauge r -> r := x
  | _ -> invalid_arg (Printf.sprintf "Metrics.set_gauge: %s/%s is not a gauge" scope name)

(** Fixed-bucket log-scale histogram ({!Hist}) for high-volume
    simulated-ns latency samples; exports p50/p99/p999 in snapshots. *)
let log_histogram ?(m = default) ~scope name =
  match find_or_add m (scope, name) (fun () -> Loghist (Hist.create ())) with
  | Loghist h -> h
  | _ ->
    invalid_arg
      (Printf.sprintf "Metrics.log_histogram: %s/%s is not a log histogram"
         scope name)

(* ---------- lookup (tests, cross-checks) ---------- *)

let get_counter ?(m = default) ~scope name =
  match Hashtbl.find_opt m.tbl (scope, name) with
  | Some (Counter r) -> Some !r
  | _ -> None

let get_gauge ?(m = default) ~scope name =
  match Hashtbl.find_opt m.tbl (scope, name) with
  | Some (Gauge r) -> Some !r
  | _ -> None

let get_log_histogram ?(m = default) ~scope name =
  match Hashtbl.find_opt m.tbl (scope, name) with
  | Some (Loghist h) -> Some h
  | _ -> None

(* ---------- snapshot ---------- *)

let value_to_json = function
  | Counter r -> Json.Num (float_of_int !r)
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
    order, each mapping metric names to numbers (counters, gauges) or
    summary objects (histograms). *)
let snapshot ?(m = default) () =
  let keys = List.rev m.order in
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
      entry := (name, value_to_json (Hashtbl.find m.tbl (scope, name))) :: !entry)
    keys;
  Json.Obj
    (List.rev_map
       (fun scope ->
         (scope, Json.Obj (List.rev !(Hashtbl.find scopes scope))))
       !scope_order)
