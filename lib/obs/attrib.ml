(** Latency attribution: per-stage histograms and a critical-path
    budget over the span trees in {!Span}.

    [analyze] walks every complete trace (a closed [Request] root),
    sums each budget stage's spans per request, and accumulates three
    views:

    - an end-to-end histogram of root durations;
    - a per-stage HDR histogram of per-request stage time, from which
      the p50/p99 "latency budget" rows are read;
    - a critical-path tally: for each request, the budget stage with
      the largest share of its wall-clock time gets one vote, so the
      [dominant] stage is the one that most often sits on the critical
      path (what a group-commit or read-path PR must attack first).

    [coverage] is the fraction of end-to-end time the budget stages
    explain (sum of stage time / sum of root time).  Anything the
    instrumentation misses — scheduler gaps, polling quanta — shows up
    as [1 - coverage], so a low number means the stage taxonomy has a
    hole, not that the requests were fast.  Detail stages (persist,
    txn prepare/decide, replication wire/apply/ack) are reported
    separately and do not count toward coverage: they refine a budget
    stage rather than partition the root. *)

type stage_row = {
  stage : Span.stage;
  requests : int; (* requests in which the stage appears *)
  total_ns : int;
  share : float; (* of summed end-to-end time *)
  p50_ns : int;
  p99_ns : int;
  dominant_pct : float; (* % of requests where this stage is the max *)
}

type report = {
  requests : int; (* complete traces analyzed *)
  incomplete : int; (* traces without a closed root (in flight at end) *)
  coverage : float;
  e2e_p50_ns : int;
  e2e_p99_ns : int;
  budget : stage_row list; (* budget stages, largest share first *)
  detail : stage_row list; (* detail stages, largest total first *)
  span_count : int;
  span_dropped : int;
}

(* per-trace accumulator: root duration + per-stage sums *)
type acc = { mutable root_dur : int; stage_ns : int array }

let analyze () =
  let traces : (int, acc) Hashtbl.t = Hashtbl.create 1024 in
  let get tr =
    match Hashtbl.find_opt traces tr with
    | Some a -> a
    | None ->
      let a = { root_dur = -1; stage_ns = Array.make Span.stage_count 0 } in
      Hashtbl.add traces tr a;
      a
  in
  (* detail stages are histogrammed per span occurrence *)
  let detail_h = Array.init Span.stage_count (fun _ -> Hist.create ()) in
  let detail_req : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  Span.iter (fun ~id:_ ~trace ~parent:_ ~stage ~t0 ~t1 ~mach:_ ~tid:_ ->
      let a = get trace in
      let dur = t1 - t0 in
      match stage with
      | Span.Request -> a.root_dur <- dur
      | st when Span.is_budget st ->
        let i = Span.stage_to_int st in
        a.stage_ns.(i) <- a.stage_ns.(i) + dur
      | st ->
        let i = Span.stage_to_int st in
        a.stage_ns.(i) <- a.stage_ns.(i) + dur;
        Hist.record detail_h.(i) dur;
        Hashtbl.replace detail_req (trace, i) ());
  let e2e = Hist.create () in
  let budget_h = Array.init Span.stage_count (fun _ -> Hist.create ()) in
  let appears = Array.make Span.stage_count 0 in
  let totals = Array.make Span.stage_count 0 in
  let dominant = Array.make Span.stage_count 0 in
  let complete = ref 0 and incomplete = ref 0 in
  let root_total = ref 0 and covered_total = ref 0 in
  Hashtbl.iter
    (fun _ a ->
      if a.root_dur < 0 then incr incomplete
      else begin
        incr complete;
        Hist.record e2e a.root_dur;
        root_total := !root_total + a.root_dur;
        let best = ref (-1) and best_ns = ref (-1) in
        for i = 0 to Span.stage_count - 1 do
          let ns = a.stage_ns.(i) in
          if ns > 0 then begin
            if Span.is_budget (Span.stage_of_int i) then begin
              covered_total := !covered_total + ns;
              Hist.record budget_h.(i) ns;
              appears.(i) <- appears.(i) + 1;
              totals.(i) <- totals.(i) + ns;
              if ns > !best_ns then begin
                best_ns := ns;
                best := i
              end
            end
            else totals.(i) <- totals.(i) + ns
          end
        done;
        if !best >= 0 then dominant.(!best) <- dominant.(!best) + 1
      end)
    traces;
  let n = !complete in
  let pct a b = if b = 0 then 0. else 100. *. float_of_int a /. float_of_int b in
  let row ~budget i =
    let st = Span.stage_of_int i in
    let h = if budget then budget_h.(i) else detail_h.(i) in
    let requests =
      if budget then appears.(i)
      else
        Hashtbl.fold
          (fun (_, j) () k -> if j = i then k + 1 else k)
          detail_req 0
    in
    { stage = st;
      requests;
      total_ns = totals.(i);
      share =
        (if !root_total = 0 then 0.
         else float_of_int totals.(i) /. float_of_int !root_total);
      p50_ns = Hist.percentile h 50.;
      p99_ns = Hist.percentile h 99.;
      dominant_pct = (if budget then pct dominant.(i) n else 0.) }
  in
  let budget = ref [] and detail = ref [] in
  for i = Span.stage_count - 1 downto 0 do
    let st = Span.stage_of_int i in
    if st <> Span.Request && totals.(i) > 0 then
      if Span.is_budget st then budget := row ~budget:true i :: !budget
      else detail := row ~budget:false i :: !detail
  done;
  let by_total = List.sort (fun a b -> compare b.total_ns a.total_ns) in
  { requests = n;
    incomplete = !incomplete;
    coverage =
      (if !root_total = 0 then 0.
       else float_of_int !covered_total /. float_of_int !root_total);
    e2e_p50_ns = Hist.percentile e2e 50.;
    e2e_p99_ns = Hist.percentile e2e 99.;
    budget = by_total !budget;
    detail = by_total !detail;
    span_count = Span.count ();
    span_dropped = Span.dropped () }

(** Budget stage that most often dominates a request's critical path. *)
let dominant_stage r =
  match
    List.sort (fun a b -> compare b.dominant_pct a.dominant_pct) r.budget
  with
  | top :: _ when top.dominant_pct > 0. -> Some top
  | _ -> None

let row_json r =
  Json.Obj
    [ ("stage", Json.Str (Span.stage_name r.stage));
      ("requests", Json.Num (float_of_int r.requests));
      ("total_ns", Json.Num (float_of_int r.total_ns));
      ("share", Json.Num r.share);
      ("p50_ns", Json.Num (float_of_int r.p50_ns));
      ("p99_ns", Json.Num (float_of_int r.p99_ns));
      ("dominant_pct", Json.Num r.dominant_pct) ]

let report_json r =
  Json.Obj
    [ ("requests", Json.Num (float_of_int r.requests));
      ("incomplete", Json.Num (float_of_int r.incomplete));
      ("coverage", Json.Num r.coverage);
      ("e2e_p50_ns", Json.Num (float_of_int r.e2e_p50_ns));
      ("e2e_p99_ns", Json.Num (float_of_int r.e2e_p99_ns));
      ( "dominant_stage",
        match dominant_stage r with
        | Some row -> Json.Str (Span.stage_name row.stage)
        | None -> Json.Null );
      ("budget", Json.Arr (List.map row_json r.budget));
      ("detail", Json.Arr (List.map row_json r.detail));
      ("span_count", Json.Num (float_of_int r.span_count));
      ("span_dropped", Json.Num (float_of_int r.span_dropped)) ]

(** Human-readable latency-budget table (for serve's stdout). *)
let pp_report ppf r =
  Format.fprintf ppf
    "latency budget: %d requests, %.1f%% of end-to-end time attributed \
     (e2e p50 %d ns, p99 %d ns)@\n"
    r.requests (100. *. r.coverage) r.e2e_p50_ns r.e2e_p99_ns;
  Format.fprintf ppf "  %-12s %9s %9s %7s %9s@\n" "stage" "p50_ns" "p99_ns"
    "share" "dominant";
  List.iter
    (fun row ->
      Format.fprintf ppf "  %-12s %9d %9d %6.1f%% %8.1f%%@\n"
        (Span.stage_name row.stage)
        row.p50_ns row.p99_ns (100. *. row.share) row.dominant_pct)
    r.budget;
  if r.detail <> [] then begin
    Format.fprintf ppf "  detail:@\n";
    List.iter
      (fun row ->
        Format.fprintf ppf "  %-12s %9d %9d %6.1f%%@\n"
          (Span.stage_name row.stage)
          row.p50_ns row.p99_ns (100. *. row.share))
      r.detail
  end
