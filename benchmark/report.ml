(** Metrics as the benchmark reports them, the per-layer metric
    definitions shared by every workload, and the output formats. *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(** What one workload's traced operating run hands to {!layers}.  Layers
    a workload does not run read as zero. *)
type layer_input = {
  ops : int; (** completed requests (KV) or replace ops (Larson) *)
  writes : int; (** completed writes *)
  user_bytes : float; (** bytes the workload asked to write *)
  attrib : Obs.Attrib.report;
  root_ns : int; (** summed end-to-end time of the analysed requests *)
  store_self_ns : int; (** Store time minus its persist/alloc/rcache details *)
  shim : Shim.t;
  delta : Shim.delta;
  live_bytes : int;
  gauge : string -> float; (** service gauge by name, 0 when absent *)
  chain_versions : int;
  queue_max_depth : int;
  frames : int; (** replication doorbell frames *)
  max_lag : int;
  retransmits : int;
  txn_committed : int;
  txn_aborted : int;
  trace_overhead : float; (** traced / untraced CPU time of the traffic *)
}

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let row (r : Obs.Attrib.report) st =
  List.find_opt
    (fun (x : Obs.Attrib.stage_row) -> x.Obs.Attrib.stage = st)
    (r.Obs.Attrib.budget @ r.Obs.Attrib.detail)

let share r st = match row r st with Some x -> x.Obs.Attrib.share | None -> 0.

let stage_p r st p =
  match row r st with
  | Some x -> fi (if p = 50 then x.Obs.Attrib.p50_ns else x.Obs.Attrib.p99_ns)
  | None -> 0.

let stage_total r st =
  match row r st with Some x -> fi x.Obs.Attrib.total_ns | None -> 0.

let profile_total (p : Machine.profile) =
  let open Machine in
  p.p_read_hit + p.p_read_miss + p.p_write + p.p_flush + p.p_fence + p.p_bandwidth_wait
  + p.p_compute + p.p_wrpkru

(** [(declared, detail)]: the declared metrics are the ones BENCHMARK.json
    lists — on every workload each is a ratio, a count, or a time that
    the workload spends and that moves with the data; [detail] adds
    per-stage latencies that exist only where a layer runs, and medians
    of fixed-cost calls that read the same on every seed.  Both are
    printed; only [declared] goes into the result line. *)
let layers (i : layer_input) =
  let module Sp = Obs.Span in
  let a = i.attrib in
  let ops = fi (max 1 i.ops) in
  let per_op x = x /. ops in
  let per_kreq x = 1000. *. x /. ops in
  let p = i.delta.Shim.d_prof in
  let shard_acq, shard_cont = i.delta.Shim.d_lock "kv-shard-" in
  let sub_acq, sub_cont = i.delta.Shim.d_lock "subheap-" in
  let g = i.gauge in
  let sh = i.shim in
  let c = sh.Shim.cache in
  let allocs = Shim.pooled sh Shim.alloc_class and frees = Shim.pooled sh Shim.free_class in
  let declared =
    [ m "net.queue_share" "frac" (share a Sp.Queue);
      m "net.wire_share" "frac" (share a Sp.Req_wire +. share a Sp.Rep_wire);
      m "net.queue_max_depth" "count" (fi i.queue_max_depth);
      m "service.store_share" "frac" (share a Sp.Store);
      m "service.lock_wait_share" "frac" (share a Sp.Lock_wait);
      m "service.shard_lock_contended_frac" "frac"
        (ratio (fi shard_cont) (fi shard_acq));
      m "btree.self_share" "frac" (ratio (fi i.store_self_ns) (fi i.root_ns));
      m "mvcc.snapshot_share" "frac" (share a Sp.Snapshot);
      m "mvcc.chain_versions" "count" (fi i.chain_versions);
      m "mvcc.truncated_reads" "count" (g "mvcc_truncated_reads");
      m "rcache.share" "frac" (share a Sp.Rcache);
      m "rcache.invalidations_per_kreq" "1/kreq"
        (per_kreq (g "rcache_invalidations"));
      m "tcache.hit_rate" "frac" (ratio (fi c.Shim.hits) (fi (c.Shim.hits + c.Shim.misses)));
      m "tcache.refills_per_kreq" "1/kreq" (per_kreq (fi c.Shim.refills));
      m "tcache.flushes_per_kreq" "1/kreq" (per_kreq (fi c.Shim.flushes));
      m "alloc.share" "frac" (share a Sp.Alloc);
      m "persist.share" "frac" (share a Sp.Persist);
      m "core.calls_per_op" "1/op" (per_op (fi (Shim.calls sh)));
      m "core.busy_ns_per_op" "ns" (per_op (fi (Shim.busy_ns sh)));
      m "core.alloc_p99_ns" "ns" (Samples.percentile allocs 99.);
      m "core.free_p99_ns" "ns" (Samples.percentile frees 99.);
      m "core.subheap_lock_contended_frac" "frac" (ratio (fi sub_cont) (fi sub_acq));
      m "core.live_bytes" "bytes" (fi i.live_bytes);
      m "machine.fence_ns_per_op" "ns" (per_op (fi p.Machine.p_fence));
      m "machine.flush_ns_per_op" "ns" (per_op (fi p.Machine.p_flush));
      m "machine.read_miss_ns_per_op" "ns" (per_op (fi p.Machine.p_read_miss));
      m "machine.write_ns_per_op" "ns" (per_op (fi p.Machine.p_write));
      m "machine.bw_wait_ns_per_op" "ns" (per_op (fi p.Machine.p_bandwidth_wait));
      m "mpk.wrpkru_frac" "frac" (ratio (fi p.Machine.p_wrpkru) (fi (profile_total p)));
      m "nvmm.fences_per_write" "1/write"
        (ratio (fi i.delta.Shim.d_fences) (fi i.writes));
      m "nvmm.lines_flushed_per_write" "1/write"
        (ratio (fi i.delta.Shim.d_lines_flushed) (fi i.writes));
      m "nvmm.write_amp" "ratio"
        (ratio (64. *. fi i.delta.Shim.d_lines_flushed) i.user_bytes);
      m "replica.ack_share" "frac" (share a Sp.Repl_ack);
      m "replica.frames_per_write" "1/write" (ratio (fi i.frames) (fi i.writes));
      m "replica.max_lag" "count" (fi i.max_lag);
      m "replica.retransmits" "count" (fi i.retransmits);
      m "txn.share" "frac" (share a Sp.Txn);
      m "txn.abort_frac" "frac"
        (ratio (fi i.txn_aborted) (fi (i.txn_committed + i.txn_aborted)));
      m "obs.span_dropped" "count" (fi a.Obs.Attrib.span_dropped);
      m "obs.trace_overhead" "ratio" i.trace_overhead ]
  in
  let reqs = fi (max 1 a.Obs.Attrib.requests) in
  let detail =
    [ m "core.alloc_p50_ns" "ns" (Samples.percentile allocs 50.);
      m "core.free_p50_ns" "ns" (Samples.percentile frees 50.);
      m "machine.compute_ns_per_op" "ns" (per_op (fi p.Machine.p_compute));
      m "mpk.wrpkru_ns_per_op" "ns" (per_op (fi p.Machine.p_wrpkru));
      m "net.req_wire_p50_ns" "ns" (stage_p a Sp.Req_wire 50);
      m "net.queue_p50_ns" "ns" (stage_p a Sp.Queue 50);
      m "net.queue_p99_ns" "ns" (stage_p a Sp.Queue 99);
      m "service.store_p50_ns" "ns" (stage_p a Sp.Store 50);
      m "service.store_p99_ns" "ns" (stage_p a Sp.Store 99);
      m "service.lock_wait_p99_ns" "ns" (stage_p a Sp.Lock_wait 99);
      m "btree.store_self_ns_per_req" "ns" (fi i.store_self_ns /. reqs);
      m "mvcc.snapshot_p50_ns" "ns" (stage_p a Sp.Snapshot 50);
      m "mvcc.snapshot_p99_ns" "ns" (stage_p a Sp.Snapshot 99);
      m "rcache.probe_ns_per_req" "ns" (stage_total a Sp.Rcache /. reqs);
      m "tcache.alloc_detail_p99_ns" "ns" (stage_p a Sp.Alloc 99);
      m "replica.repl_ack_p50_ns" "ns" (stage_p a Sp.Repl_ack 50);
      m "replica.repl_ack_p99_ns" "ns" (stage_p a Sp.Repl_ack 99);
      m "replica.backup_apply_p50_ns" "ns" (stage_p a Sp.Backup_apply 50);
      m "replica.flush_wait_p50_ns" "ns" (stage_p a Sp.Flush_wait 50);
      m "txn.prepare_p50_ns" "ns" (stage_p a Sp.Txn_prepare 50);
      m "txn.decide_p50_ns" "ns" (stage_p a Sp.Txn_decide 50);
      m "obs.span_count" "count" (fi a.Obs.Attrib.span_count) ]
    (* each allocator entry point the traffic called: calls per op and tail *)
    @ List.concat_map
        (fun e ->
          let s = Shim.samples sh e and n = "core.call." ^ Shim.entry_name e in
          if Samples.count s = 0 then []
          else
            [ m (n ^ ".per_op") "1/op" (per_op (fi (Samples.count s)));
              m (n ^ ".p99_ns") "ns" (Samples.percentile s 99.) ])
        Shim.entries
  in
  (declared, detail)

(** Sum of root durations and of Store self time (Store minus the
    Persist, Alloc and Rcache detail spans parented to it) over the
    closed spans of the current trace store. *)
let span_totals () =
  let module Sp = Obs.Span in
  let stage_of = Hashtbl.create 4096 in
  let root = ref 0 and self = ref 0 in
  Sp.iter (fun ~id ~trace:_ ~parent ~stage ~t0 ~t1 ~mach:_ ~tid:_ ->
      Hashtbl.replace stage_of id stage;
      match stage with
      | Sp.Request -> root := !root + (t1 - t0)
      | Sp.Store -> self := !self + (t1 - t0)
      | Sp.Persist | Sp.Alloc | Sp.Rcache
        when Hashtbl.find_opt stage_of parent = Some Sp.Store ->
        self := !self - (t1 - t0)
      | _ -> ());
  (!root, !self)

(** One workload's outcome. *)
type outcome = {
  workload : string;
  metrics : metric list; (** e2e metrics, or the declared layer metrics *)
  detail : metric list; (** printed and written to --json-out only *)
  attempted : int;
  failed : int;
  errors : string list; (** correctness failures; empty = correct *)
}

(* ---------- output ---------- *)

(* Obs.Json rounds numbers to 6 digits; the result line carries every
   digit the measurement has *)
let rec json_to buf = function
  | Obs.Json.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Obs.Json.Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun k v ->
        if k > 0 then Buffer.add_char buf ',';
        json_to buf v)
      items;
    Buffer.add_char buf ']'
  | Obs.Json.Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun k (key, v) ->
        if k > 0 then Buffer.add_char buf ',';
        Obs.Json.escape_to buf key;
        Buffer.add_char buf ':';
        json_to buf v)
      fields;
    Buffer.add_char buf '}'
  | v -> Buffer.add_string buf (Obs.Json.to_string v)

let json_string v =
  let buf = Buffer.create 1024 in
  json_to buf v;
  Buffer.contents buf

let metrics_json ms =
  Obs.Json.Obj
    (List.map
       (fun x ->
         (x.name, Obs.Json.Obj [ ("value", Obs.Json.Num x.value); ("unit", Obs.Json.Str x.unit) ]))
       ms)

let outcome_json o =
  Obs.Json.Obj
    [ ("workload", Obs.Json.Str o.workload);
      ("correct", Obs.Json.Bool (o.errors = []));
      ("errors", Obs.Json.Arr (List.map (fun e -> Obs.Json.Str e) o.errors));
      ("attempted", Obs.Json.Num (fi o.attempted));
      ("failed", Obs.Json.Num (fi o.failed));
      ("metrics", metrics_json o.metrics);
      ("detail", metrics_json o.detail) ]

(** The result line: one JSON object over every outcome; [correct]
    also needs every outcome's gates to have passed. *)
let result_line ?(correct = true) outcomes =
  json_string
    (Obs.Json.Obj
       [ ("correct", Obs.Json.Bool (correct && List.for_all (fun o -> o.errors = []) outcomes));
         ("attempted", Obs.Json.Num (fi (List.fold_left (fun s o -> s + o.attempted) 0 outcomes)));
         ("failed", Obs.Json.Num (fi (List.fold_left (fun s o -> s + o.failed) 0 outcomes)));
         ( "metrics",
           metrics_json
             (List.concat_map
                (fun o ->
                  if List.length outcomes = 1 then o.metrics
                  else List.map (fun x -> { x with name = o.workload ^ "/" ^ x.name }) o.metrics)
                outcomes) ) ])

let print_outcome o =
  Printf.printf "== %s: %s (%d attempted, %d failed)\n" o.workload
    (if o.errors = [] then "correct" else "INCORRECT")
    o.attempted o.failed;
  List.iter (fun e -> Printf.printf "   error: %s\n" e) o.errors;
  let pr tag x = Printf.printf "   %-6s %-36s %16.6g %s\n" tag x.name x.value x.unit in
  List.iter (pr "") o.metrics;
  List.iter (pr "detail") o.detail
