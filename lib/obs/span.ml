(** Request-scoped causal spans for distributed tracing.

    A process-global store of spans, each belonging to a {e trace} (one
    client request) and pointing at a parent span, so a completed
    request yields a causal tree: client queue wait, request wire hop,
    decode, shard-lock wait, store/txn work, replication wire, backup
    apply, ack wire, reply wire.  Because the whole cluster runs on one
    simulated clock, span ids are globally valid and a context crosses
    machines as two plain ints (trace id + parent span id) carried on
    the transport envelope — no allocation on the hot path.

    The store is a set of parallel int arrays of fixed capacity; unlike
    the event ring in {!Trace} it never overwrites (span ids must stay
    valid for the lifetime of the run), so when it fills up new spans
    are dropped and counted.  Every operation on span id [-1] (or trace
    id [-1]) is a no-op, which makes "context absent" and "store full"
    the same cheap code path for instrumented call sites.

    Stages come in two depths: {e budget} stages are direct children of
    the request root and partition its wall-clock time (the latency
    budget {!Attrib} reports); {e detail} stages sit below a budget
    stage and refine it (e.g. the clwb/fence persist portion of store
    work, or the wire/apply/ack decomposition of a sync replication
    wait). *)

(* ---------- stage taxonomy ---------- *)

type stage =
  | Request  (** root: client enqueue to reply delivery *)
  | Req_wire  (** client -> server wire hop *)
  | Queue  (** delivered, waiting in the server inbox for a handler *)
  | Decode  (** request decode CPU on the handler *)
  | Lock_wait  (** waiting for the shard lock *)
  | Store  (** single-op store work under the shard lock *)
  | Txn  (** cross-shard 2PC transaction: locks, prepare, decide, apply *)
  | Repl_ack  (** sync mode: waiting for the backup's cumulative ack *)
  | Rep_wire  (** server -> client reply hop *)
  | Persist  (** detail of Store/Txn: clwb + fence charges *)
  | Txn_prepare  (** detail of Txn: participant prepare phase *)
  | Txn_decide  (** detail of Txn: decided-word persist + apply *)
  | Repl_wire  (** detail of Repl_ack: record's primary -> backup hop *)
  | Backup_apply  (** detail of Repl_ack: in-order apply on the backup *)
  | Ack_wire  (** detail of Repl_ack: cumulative ack's hop back *)
  | Flush_wait
      (** group commit: waiting for the covering batch flush + ack —
          the shared replication wait of a batched mutation group *)
  | Snapshot
      (** MVCC read path: lock-free snapshot get/scan work (version
          chain resolution + tree floor reads), no shard lock taken *)
  | Alloc
      (** detail of Store/Txn: time inside allocator calls (bin pops,
          refill carves, stash bookkeeping, inner alloc fallbacks) *)
  | Rcache
      (** detail of Store/Snapshot: DRAM read-cache probe charges on
          the read path (hits answer entirely inside this stage) *)

let stage_name = function
  | Request -> "request"
  | Req_wire -> "req_wire"
  | Queue -> "queue"
  | Decode -> "decode"
  | Lock_wait -> "lock_wait"
  | Store -> "store"
  | Txn -> "txn"
  | Repl_ack -> "repl_ack"
  | Rep_wire -> "rep_wire"
  | Persist -> "persist"
  | Txn_prepare -> "txn_prepare"
  | Txn_decide -> "txn_decide"
  | Repl_wire -> "repl_wire"
  | Backup_apply -> "backup_apply"
  | Ack_wire -> "ack_wire"
  | Flush_wait -> "flush_wait"
  | Snapshot -> "snapshot"
  | Alloc -> "alloc"
  | Rcache -> "rcache"

let stage_to_int = function
  | Request -> 0
  | Req_wire -> 1
  | Queue -> 2
  | Decode -> 3
  | Lock_wait -> 4
  | Store -> 5
  | Txn -> 6
  | Repl_ack -> 7
  | Rep_wire -> 8
  | Persist -> 9
  | Txn_prepare -> 10
  | Txn_decide -> 11
  | Repl_wire -> 12
  | Backup_apply -> 13
  | Ack_wire -> 14
  | Flush_wait -> 15
  | Snapshot -> 16
  | Alloc -> 17
  | Rcache -> 18

let stage_of_int = function
  | 0 -> Request
  | 1 -> Req_wire
  | 2 -> Queue
  | 3 -> Decode
  | 4 -> Lock_wait
  | 5 -> Store
  | 6 -> Txn
  | 7 -> Repl_ack
  | 8 -> Rep_wire
  | 9 -> Persist
  | 10 -> Txn_prepare
  | 11 -> Txn_decide
  | 12 -> Repl_wire
  | 13 -> Backup_apply
  | 14 -> Ack_wire
  | 15 -> Flush_wait
  | 16 -> Snapshot
  | 17 -> Alloc
  | 18 -> Rcache
  | n -> invalid_arg (Printf.sprintf "Span.stage_of_int: %d" n)

let stage_count = 19

(** Budget stages: direct children of the request root whose durations
    are meant to partition its wall-clock time. *)
let is_budget = function
  | Req_wire | Queue | Decode | Lock_wait | Store | Txn | Repl_ack | Rep_wire
  | Flush_wait | Snapshot -> true
  | Request | Persist | Txn_prepare | Txn_decide | Repl_wire
  | Backup_apply | Ack_wire | Alloc | Rcache -> false

(* ---------- clock plumbing ---------- *)

(* Same shape as Trace's clock; Trace.set_clock forwards here so the
   scheduler's single registration wires both.  This module must not
   reference Trace (Trace depends on it for the chrome export). *)

let clk_in_sim : (unit -> bool) ref = ref (fun () -> false)
let clk_now : (unit -> int) ref = ref (fun () -> 0)
let clk_tid : (unit -> int) ref = ref (fun () -> -1)

let set_clock ~in_sim ~now ~tid =
  clk_in_sim := in_sim;
  clk_now := now;
  clk_tid := tid

let now_or last = if !clk_in_sim () then !clk_now () else last
let tid_or_main () = if !clk_in_sim () then !clk_tid () else -1

(* ---------- the store ---------- *)

type store = {
  cap : int;
  trace : int array;
  parent : int array;
  stage : int array;
  t0 : int array;
  t1 : int array; (* -1 = still open *)
  mach : int array;
  tid : int array;
  mutable next : int; (* next free slot *)
  mutable dropped : int; (* spans refused because the store was full *)
  mutable last_ts : int;
}

let mk_store cap =
  { cap;
    trace = Array.make cap (-1);
    parent = Array.make cap (-1);
    stage = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap (-1);
    mach = Array.make cap 0;
    tid = Array.make cap (-1);
    next = 0;
    dropped = 0;
    last_ts = 0 }

let on = ref false
let store : store option ref = ref None
let trace_counter = ref 0

let default_capacity = 1 lsl 18

let start ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Span.start: capacity must be positive";
  store := Some (mk_store capacity);
  trace_counter := 0;
  on := true

let stop () = on := false

(* simulated ns per (thread, detail stage); see [note] *)
let detail_ns : (int * stage, int ref) Hashtbl.t = Hashtbl.create 64

let clear () =
  on := false;
  store := None;
  trace_counter := 0;
  Hashtbl.reset detail_ns

let enabled () = !on

let count () = match !store with Some s -> s.next | None -> 0
let dropped () = match !store with Some s -> s.dropped | None -> 0

(** Fresh trace id for a new request; [-1] when tracing is off, which
    turns every downstream span operation into a no-op. *)
let new_trace () =
  if !on then begin
    let t = !trace_counter in
    trace_counter := t + 1;
    t
  end
  else -1

let alloc s =
  if s.next >= s.cap then begin
    s.dropped <- s.dropped + 1;
    -1
  end
  else begin
    let i = s.next in
    s.next <- i + 1;
    i
  end

let stamp s ts = if ts > s.last_ts then s.last_ts <- ts

let open_span ~trace ~parent ?(mach = 0) stage =
  if (not !on) || trace < 0 then -1
  else
    match !store with
    | None -> -1
    | Some s ->
      let i = alloc s in
      if i >= 0 then begin
        let ts = now_or s.last_ts in
        stamp s ts;
        s.trace.(i) <- trace;
        s.parent.(i) <- parent;
        s.stage.(i) <- stage_to_int stage;
        s.t0.(i) <- ts;
        s.t1.(i) <- -1;
        s.mach.(i) <- mach;
        s.tid.(i) <- tid_or_main ()
      end;
      i

let close_span id =
  if !on && id >= 0 then
    match !store with
    | None -> ()
    | Some s ->
      let ts = now_or s.last_ts in
      stamp s ts;
      s.t1.(id) <- max ts s.t0.(id)

(** Close at an explicit timestamp — e.g. a root span ends when the
    reply was {e delivered}, not when the client thread got around to
    draining it. *)
let close_span_at id ~t1 =
  if !on && id >= 0 then
    match !store with
    | None -> ()
    | Some s ->
      stamp s t1;
      s.t1.(id) <- max t1 s.t0.(id)

(** Re-anchor an open span's start — e.g. align the root with the
    send timestamp recorded after the send's CPU charge. *)
let set_start id ~t0 =
  if !on && id >= 0 then
    match !store with Some s -> s.t0.(id) <- t0 | None -> ()

(** Record an already-completed interval (e.g. a wire hop known only at
    delivery: [t0 = sent_at], [t1 = now]). *)
let add_span ~trace ~parent ?(mach = 0) stage ~t0 ~t1 =
  if (not !on) || trace < 0 then -1
  else
    match !store with
    | None -> -1
    | Some s ->
      let i = alloc s in
      if i >= 0 then begin
        stamp s (max t0 t1);
        s.trace.(i) <- trace;
        s.parent.(i) <- parent;
        s.stage.(i) <- stage_to_int stage;
        s.t0.(i) <- t0;
        s.t1.(i) <- max t1 t0;
        s.mach.(i) <- mach;
        s.tid.(i) <- tid_or_main ()
      end;
      i

(* ---------- per-thread detail accounting ---------- *)

(* The layers under a store operation report their simulated charges
   here (guarded by [enabled]), keyed by simulated thread and detail
   stage: the machine every clwb/fence charge (Persist), the tcache
   wrapper each allocator entry point's time (Alloc), and the Kv read
   path each read-cache probe (Rcache).  A handler brackets one
   operation with [marks] and [details] and so learns exactly how many
   of its nanoseconds each layer spent. *)

(* the detail stages of a store operation, in emission order *)
let detail_stages = [ Persist; Alloc; Rcache ]

let note stage ns =
  if !on && ns > 0 then begin
    let key = (tid_or_main (), stage) in
    match Hashtbl.find_opt detail_ns key with
    | Some r -> r := !r + ns
    | None -> Hashtbl.add detail_ns key (ref ns)
  end

let mark stage =
  match Hashtbl.find_opt detail_ns (tid_or_main (), stage) with
  | Some r -> !r
  | None -> 0

let persist_mark () = mark Persist
let persist_since m = persist_mark () - m

(** Every detail stage's mark on the calling thread, before an
    operation. *)
let marks () = List.map mark detail_stages

(** After the operation: one span per detail stage under [parent], each
    the time that layer spent since [marks], ending at [t1]. *)
let details ~trace ~parent ~t1 marks =
  List.iter2
    (fun stage m ->
      let ns = mark stage - m in
      if ns > 0 then ignore (add_span ~trace ~parent stage ~t0:(t1 - ns) ~t1))
    detail_stages marks

(* ---------- reading back ---------- *)

(** Iterate closed spans in id order (open spans — requests still in
    flight when the run ended — are skipped). *)
let iter f =
  match !store with
  | None -> ()
  | Some s ->
    for i = 0 to s.next - 1 do
      if s.t1.(i) >= 0 then
        f ~id:i ~trace:s.trace.(i) ~parent:s.parent.(i)
          ~stage:(stage_of_int s.stage.(i))
          ~t0:s.t0.(i) ~t1:s.t1.(i) ~mach:s.mach.(i) ~tid:s.tid.(i)
    done

let mach_of id =
  match !store with
  | Some s when id >= 0 && id < s.next -> s.mach.(id)
  | _ -> 0

(* ---------- Chrome trace-event export fragment ---------- *)

let us ns = Printf.sprintf "%.3f" (float_of_int ns /. 1000.)

(** Append span slices and cross-machine flow events to a Chrome
    trace-event stream.  Spans are [ph:"X"] slices whose [pid] is the
    simulated machine; when a span's parent lives on a different
    machine, a flow arrow links them: [ph:"s"] anchored in the parent's
    slice, [ph:"f" bp:"e"] anchored in the child's, both keyed by the
    child's span id.  Call [sep] before each event. *)
let chrome_events buf ~sep =
  match !store with
  | None -> ()
  | Some s ->
    (* name the extra machine processes (pid 0 is named by Trace) *)
    let machs = Hashtbl.create 4 in
    for i = 0 to s.next - 1 do
      if s.t1.(i) >= 0 then Hashtbl.replace machs s.mach.(i) ()
    done;
    Hashtbl.iter
      (fun m () ->
        if m > 0 then begin
          sep ();
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\
                \"tid\":0,\"args\":{\"name\":\"poseidon-machine-%d\"}}"
               m m)
        end)
      machs;
    iter (fun ~id ~trace ~parent ~stage ~t0 ~t1 ~mach ~tid ->
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\
              \"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\
              \"args\":{\"trace\":%d,\"span\":%d,\"parent\":%d}}"
             (stage_name stage) (us t0) (us (t1 - t0)) mach tid trace id
             parent);
        if parent >= 0 && mach_of parent <> mach then begin
          (* flow start rides the parent's slice: clamp the anchor
             timestamp into the parent's interval so Perfetto binds it *)
          let pm = mach_of parent in
          let pt0 = s.t0.(parent) in
          let pt1 = if s.t1.(parent) >= 0 then s.t1.(parent) else t0 in
          let anchor = min (max t0 pt0) pt1 in
          sep ();
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"s\",\
                \"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}"
               (stage_name stage) id (us anchor) pm s.tid.(parent));
          sep ();
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"f\",\
                \"bp\":\"e\",\"id\":%d,\"ts\":%s,\"pid\":%d,\"tid\":%d}"
               (stage_name stage) id (us t0) mach tid)
        end)
