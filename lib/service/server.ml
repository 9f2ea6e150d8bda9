module Sched = Simcore.Sched
module Prng = Repro_util.Prng
module Zipf = Repro_util.Zipf
module Hist = Obs.Hist
module Span = Obs.Span

type config = {
  shards : int;
  clients : int;
  rate : float;
  duration : float;
  value_size : int;
  keyspace : int;
  zipf_theta : float;
  read_pct : int;
  delete_pct : int;
  scan_pct : int;
  txn_pct : int;
  txn_ops : int;
  queue_capacity : int;
  preload : int;
  crash_at : float option;
  seed : int;
  scope : string;
  batch_window : int;
  mvcc_window : int;
  tcache_mag : int;
      (* magazine size of the DRAM thread cache wrapped around the
         allocator (lib/tcache); 0 serves straight from the allocator *)
  rcache_entries : int;
      (* per-shard slot count of the DRAM read cache in front of the
         persistent trees (lib/rcache); 0 arms no cache hook *)
}

let default_config =
  { shards = 4;
    clients = 16;
    rate = 50_000.;
    duration = 0.02;
    value_size = 128;
    keyspace = 4096;
    zipf_theta = 0.99;
    read_pct = 50;
    delete_pct = 10;
    scan_pct = 5;
    txn_pct = 0;
    txn_ops = 3;
    queue_capacity = 64;
    preload = 2048;
    crash_at = None;
    seed = 42;
    scope = "service";
    batch_window = 1;
    mvcc_window = 0;
    tcache_mag = 0;
    rcache_entries = 0 }

type op_kind = KGet | KPut | KDel | KScan | KTxn

type payload =
  | Req of
      { rid : int;
        client : int;
        kind : op_kind;
        key : int;
        vseed : int;
        ops : Kv.txn_op list (* KTxn only; [] otherwise *) }
  | Rep of { rid : int; ok : bool; mutated : bool; fin : int }

(* client-side record of a request awaiting its reply *)
type pending = {
  p_kind : op_kind;
  p_key : int;
  p_vseed : int;
  p_ops : Kv.txn_op list;
  p_sent : int;
  p_trace : int; (* Obs.Span trace id; -1 when tracing is off *)
  p_span : int; (* the request's root span, closed at reply delivery *)
}

let txn_op_key = function Kv.Tput { key; _ } | Kv.Tdel { key } -> key

(* a commit-group member after decode: the message plus its request
   fields (copied out — [Req]'s inlined record cannot escape a match),
   its store op, its decode-start time and its still-open store span *)
type gmember = {
  g_msg : payload Net.msg;
  g_rid : int;
  g_client : int;
  g_op : Kv.txn_op;
  g_t0 : int;
  g_store : int;
}

type percentiles = {
  p50 : int;
  p99 : int;
  p999 : int;
  mean : float;
  max : int;
  samples : int;
}

let percentiles_of h =
  { p50 = Hist.percentile h 50.;
    p99 = Hist.percentile h 99.;
    p999 = Hist.percentile h 99.9;
    mean = Hist.mean h;
    max = Hist.max_value h;
    samples = Hist.count h }

type ledger_report = { checked : int; ambiguous : int; mismatches : int }

type result = {
  offered : int;
  admitted : int;
  shed : int;
  completed : int;
  acked_mutations : int;
  sim_ns : int;
  throughput : float;
  goodput : float;
  latency : percentiles;
  service : percentiles;
  crashed : bool;
  rto_ns : int;
  recovery : Kv.recovery option;
  ledger : ledger_report;
  in_flight_at_crash : int;
  queue_max_depth : int;
  txns_committed : int;
  txns_aborted : int;
  txn_latency : percentiles;
  read_latency : percentiles;
  write_latency : percentiles;
  scan_latency : percentiles;
  ops_read : int;
  ops_write : int;
  ops_scan : int;
}

(* ------------------------------------------------------------------ *)
(* The serving loop, shared by [run] and [run_replicated].             *)
(* ------------------------------------------------------------------ *)

(* Where a handled mutation's durability is settled before its reply
   leaves.  [Local]: the store's own persist is the whole promise, so
   the reply leaves at the commit point.  [Ship]: each committed
   mutation is also shipped to the backup inside its shard lock, and
   in [sync] mode a reply that saw shipped-but-unacked records parks
   until the backup's covering ack — until [deadline], past which it
   is withheld.  The handler polls for acks every [Replica.poll_ns]
   while it waits. *)
type ship = { shipper : Replica.Shipper.t; sync : bool; deadline : int }

type sink = Local | Ship of ship

(* A sync reply held on the primary until the backup's cumulative ack
   reaches every [(shard, seq)] in [covers]: the high-water marks of
   the shards it saw with records in flight when it was produced.
   [wait] is its open Repl_ack or Flush_wait span. *)
type parked = { covers : (int * int) list; wait : int; send : unit -> unit }

(* Commit groups per shard whose records may await the backup's ack at
   once; the next group waits for the oldest one's ack.  Two lets one
   group's round trip overlap the next group's commit; deeper
   pipelines only add queueing under overload.  On the batch suite's
   overloaded sync runs p50 was lowest at 2 of 1, 2, 3, 4 and 8
   groups: sync-w32 rose from 909 to 1163 µs at 8, and sync-w4 from
   925 to 1458 µs when only the 64-record replication window bounded
   the pipeline. *)
let groups_in_flight = 2

let grace_ns = 5_000_000

(* the crash cut, if any, and the time clients stop sending *)
let timeline cfg =
  let duration_ns = int_of_float (cfg.duration *. 1e9) in
  let t_crash =
    Option.map
      (fun f -> max 1 (int_of_float (f *. float_of_int duration_ns)))
      cfg.crash_at
  in
  let t_stop = match t_crash with Some c -> min c duration_ns | None -> duration_ns in
  (t_crash, t_stop)

let validate ~name cfg =
  let reject bad msg = if bad then invalid_arg (name ^ ": " ^ msg) in
  reject (cfg.shards < 1 || cfg.clients < 1) "shards and clients must be >= 1";
  reject (cfg.rate <= 0. || cfg.duration <= 0.)
    "rate and duration must be positive";
  reject (cfg.read_pct + cfg.delete_pct + cfg.scan_pct + cfg.txn_pct > 100)
    "op mix exceeds 100%";
  reject (cfg.txn_ops < 1 || cfg.txn_ops > Kv.max_txn_ops)
    "txn_ops out of range";
  reject (cfg.batch_window < 1) "batch_window < 1";
  reject (cfg.mvcc_window < 0) "mvcc_window < 0";
  reject (cfg.tcache_mag < 0) "tcache_mag < 0";
  reject (cfg.rcache_entries < 0) "rcache_entries < 0";
  reject
    (match cfg.crash_at with Some f -> f <= 0. || f >= 1. | None -> false)
    "crash_at must be in (0, 1)"

(* the allocator, behind a magazine cache when [tcache_mag > 0] *)
let wrap cfg inst =
  if cfg.tcache_mag > 0 then
    let i, t = Tcache.wrap ~mag:cfg.tcache_mag inst in
    (i, Some t)
  else (inst, None)

(* a fresh store over [inst] (wrapped), and its magazine cache *)
let build cfg inst =
  let inst, tch = wrap cfg inst in
  ( Kv.create ~mvcc_window:cfg.mvcc_window ~rcache_entries:cfg.rcache_entries
      inst ~shards:cfg.shards ~value_size:cfg.value_size,
    tch )

(* One serving run.  [mach] hosts the shard handlers, the clients and
   their network; [svc] is its store and [tch] its magazine cache, and
   every serving gauge reads them.  [mirror] (the backup machine and
   store) is preloaded alongside and, on a clean run, checked against
   the same ledger.  [spawn_aux] starts extra threads once the
   handlers exist; [servers_done] reports when every handler has left
   its loop.  At a crash cut the primary device loses its unfenced
   state and [recover] returns the recovery makespan (s), the store
   that serves from then on, and its replay report.  Returns the
   result and the mirror's ledger report. *)
let serve ~name ~mach ~svc ~tch ~mirror ~sink ~spawn_aux ~recover cfg =
  let ncpu = (Machine.cfg mach).Machine.Config.num_cpus in
  if cfg.shards > ncpu then invalid_arg (name ^ ": more shards than CPUs");

  (* durable baseline, identical on every member: preloaded keys are in
     the ledger from the start *)
  let stores = svc :: Option.to_list (Option.map snd mirror) in
  let preload_n = min cfg.preload cfg.keyspace in
  for k = 1 to preload_n do
    if not (List.for_all (fun s -> Kv.put s ~key:k ~vseed:k) stores) then
      failwith (name ^ ": preload exhausted the heap")
  done;
  Nvmm.Memdev.drain (Machine.dev mach);
  Option.iter (fun (m, _) -> Nvmm.Memdev.drain (Machine.dev m)) mirror;
  (* the magazine and value-index gauges count the traffic, not the
     preload *)
  let tcache_base =
    Option.map (fun t -> (Tcache.stats t, Tcache.idle_refills t)) tch
  in
  let vindex_base = Kv.vindex_stats svc in

  let t_crash, t_stop = timeline cfg in

  (* ports 0..shards-1: shard request queues (the admission bound);
     ports shards..shards+clients-1: client reply queues (generous) *)
  let reply_cap = max 1024 (4 * cfg.queue_capacity) in
  let client_cpu j =
    if cfg.shards >= ncpu then j mod ncpu
    else cfg.shards + (j mod (ncpu - cfg.shards))
  in
  let ports =
    Array.init (cfg.shards + cfg.clients) (fun i ->
        if i < cfg.shards then (i, cfg.queue_capacity)
        else (client_cpu (i - cfg.shards), reply_cap))
  in
  let net : payload Net.t = Net.create mach ~ports () in

  let offered = ref 0 and admitted = ref 0 and shed = ref 0 in
  let handled = ref 0 and completed = ref 0 and acked_mut = ref 0 in
  let reply_drops = ref 0 in
  (* idle top-ups that carved: each shard's handler time in them, and
     the requests delivered while their handler was in its latest one *)
  let idle_topup_ns = Array.make cfg.shards 0 and topup_waiters = ref 0 in
  let senders = ref cfg.clients in
  let live_servers = ref cfg.shards in
  let txn_commits = ref 0 and txn_aborts = ref 0 in
  let lat_h = Hist.create () and svc_h = Hist.create () in
  let txn_lat_h = Hist.create () in
  (* request latency split by op class, recorded at reply delivery *)
  let read_h = Hist.create ()
  and write_h = Hist.create ()
  and scan_h = Hist.create () in
  (* offered op mix, counted at generation (shed requests included) *)
  let n_read = ref 0 and n_write = ref 0 and n_scan = ref 0 in
  (* acked mutations: (key, Some vseed | None for delete, server finish ns).
     [fin] is captured inside the mutation's critical section (for a
     transaction: its lowest participant's decided word), so per key it orders
     exactly as the store applied the mutations even when single ops
     and cross-shard transactions interleave. *)
  let ledger : (int * int option * int) list ref = ref [] in
  let outstanding : (int, pending) Hashtbl.t array =
    Array.init cfg.clients (fun _ -> Hashtbl.create 64)
  in

  (* ---------- server threads (one per shard) ---------- *)
  let server_body i () =
    let server_end = match t_crash with Some c -> c | None -> max_int in
    (* sync replies awaiting their covering ack, newest first *)
    let parked = ref [] in
    (* sync: the last sequence number of each commit group this
       handler shipped and has not yet waited for, oldest first *)
    let inflight = Queue.create () in
    (* this handler's latest idle top-up that carved, [t0, t1) *)
    let topup = ref (0, 0) in
    let covered s (shard, seq) = Replica.Shipper.acked s.shipper ~shard >= seq in
    (* send every parked reply the absorbed acks now cover, oldest
       first, from this handler's own CPU *)
    let release () =
      match (sink, !parked) with
      | Ship s, _ :: _ ->
        Replica.Shipper.poll_acks s.shipper;
        let ready, rest =
          List.partition
            (fun p -> List.for_all (covered s) p.covers)
            (List.rev !parked)
        in
        parked := List.rev rest;
        List.iter
          (fun p ->
            Span.close_span p.wait;
            p.send ())
          ready
      | _ -> ()
    in
    (* the handler's one way to wait for acks: poll every
       [Replica.poll_ns], releasing parked replies as their acks
       arrive, until [cond] holds; [false] if the deadline passes
       first *)
    let rec await s cond =
      Replica.Shipper.poll_acks s.shipper;
      release ();
      if cond () then true
      else if Sched.now () >= s.deadline then false
      else begin
        Sched.sleep Replica.poll_ns;
        await s cond
      end
    in
    (* the request's hop in, split at the delivery timestamp — pure
       wire, then inbox queue wait, known only at dequeue — and its
       decode; returns the time handling began *)
    let ingress (m : payload Net.msg) =
      let t0 = Sched.now () in
      (let ta, tb = !topup in
       if m.delivered_at >= ta && m.delivered_at < tb then incr topup_waiters);
      ignore
        (Span.add_span ~trace:m.trace ~parent:m.span Span.Req_wire
           ~t0:m.sent_at ~t1:m.delivered_at);
      if t0 > m.delivered_at then
        ignore
          (Span.add_span ~trace:m.trace ~parent:m.span Span.Queue
             ~t0:m.delivered_at ~t1:t0);
      let sdec = Span.open_span ~trace:m.trace ~parent:m.span Span.Decode in
      Machine.compute mach 200 (* request decode / dispatch overhead *);
      Span.close_span sdec;
      t0
    in
    (* The one reply path; [saw] lists the shards whose state the reply
       reflects.  Under [Local] and async it leaves at once.  In sync
       mode, when one of those shards has shipped-but-unacked records,
       the reply parks until the backup's cumulative ack covers that
       shard's high-water mark as of now, under a [stage] span, and
       [release] sends it: no client sees state that losing the
       primary could undo.  A reply still parked at the deadline or the
       crash cut is withheld — the client keeps the request outstanding
       and the verifier treats its keys as ambiguous rather than
       guaranteed, which is what makes a promote-time presumed-abort of
       a half-delivered transaction safe.  Service time is handler
       time, recorded here. *)
    let reply (m : payload Net.msg) ~t0 ~client ~saw ~stage rep =
      incr handled;
      Hist.record svc_h (Sched.now () - t0);
      let send () =
        if
          not
            (Net.try_send ~trace:m.trace ~span:m.span net
               ~dst:(cfg.shards + client) rep)
        then incr reply_drops
      in
      match sink with
      | Ship ({ sync = true; _ } as s) ->
        Replica.Shipper.poll_acks s.shipper;
        let covers =
          List.filter_map
            (fun shard ->
              let hw = Replica.Shipper.high_water s.shipper ~shard in
              if covered s (shard, hw) then None else Some (shard, hw))
            saw
        in
        if covers = [] then send ()
        else
          parked :=
            { covers;
              wait = Span.open_span ~trace:m.trace ~parent:m.span stage;
              send }
            :: !parked
      | Local | Ship _ -> send ()
    in
    (* A committed transaction stages every participant's prepare and
       decide records under its locks and flushes them as one frame, so
       the decide never pays its own round trip; the locks go as soon
       as it returns, and its reply parks like any other.  Loss may
       deliver one participant's stream ahead of another's: the backup
       then parks the later records of a shard whose transaction has
       not published (Replica.Applier), so nothing here waits for the
       ack. *)
    let ship_txn s ~trace ~span res =
      List.iter
        (fun (shard, op) ->
          ignore (Replica.Shipper.ship s.shipper ~trace ~span ~shard op))
        (Kv.txn_records res);
      ignore (Replica.Shipper.flush s.shipper)
    in
    (* reads, scans and transactions; puts and deletes are commit
       groups ([handle_group]) *)
    let handle (m : payload Net.msg) =
      match m.payload with
      | Rep _ -> ()
      | Req r ->
        let t0 = ingress m in
        let trace = m.trace in
        let ok, mutated, fin, saw =
          match r.kind with
          | KTxn ->
            (* Kv.txn takes every participant's shard lock itself *)
            let stx = Span.open_span ~trace ~parent:m.span Span.Txn in
            let mk = Span.marks () in
            let on_commit =
              match sink with
              | Local -> None
              | Ship s -> Some (ship_txn s ~trace ~span:stx)
            in
            let res = Kv.txn svc r.ops ~trace ~span:stx ?on_commit in
            Span.close_span stx;
            Span.details ~trace ~parent:stx ~t1:(Sched.now ()) mk;
            if res.Kv.committed then incr txn_commits else incr txn_aborts;
            (* a commit wrote its participants, an abort read them *)
            ( res.Kv.committed, res.Kv.committed, res.Kv.fin,
              List.map fst res.Kv.participants )
          | (KGet | KScan) when cfg.mvcc_window > 0 ->
            (* lock-free snapshot read: no Lock_wait, no shard lock —
               the read minted a timestamp and resolves against the
               version chains (KScan becomes a multi-shard merged
               scan, ordered and consistent at one snapshot, so it saw
               every shard) *)
            let ssn = Span.open_span ~trace ~parent:m.span Span.Snapshot in
            let mk = Span.marks () in
            let ts = Kv.snapshot svc in
            let ok, saw =
              match r.kind with
              | KGet -> (Kv.snapshot_get svc ~ts ~key:r.key <> None, [ i ])
              | _ ->
                ignore
                  (Kv.snapshot_scan svc ~ts ~from_key:r.key ~n:16
                     (fun _ _ -> ()));
                (true, List.init cfg.shards Fun.id)
            in
            let fin = Sched.now () in
            Span.close_span ssn;
            Span.details ~trace ~parent:ssn ~t1:fin mk;
            (ok, false, fin, saw)
          | KGet | KScan ->
            let slw = Span.open_span ~trace ~parent:m.span Span.Lock_wait in
            Machine.Lock.with_lock (Kv.shard_lock svc i) (fun () ->
                Span.close_span slw;
                let sst = Span.open_span ~trace ~parent:m.span Span.Store in
                let mk = Span.marks () in
                let ok =
                  match r.kind with
                  | KGet -> Kv.get svc ~key:r.key <> None
                  | _ ->
                    ignore (Kv.scan svc ~from_key:r.key ~n:16);
                    true
                in
                let fin = Sched.now () in
                Span.close_span sst;
                Span.details ~trace ~parent:sst ~t1:fin mk;
                (ok, false, fin, [ i ]))
          | KPut | KDel -> assert false (* dispatched to [handle_group] *)
        in
        reply m ~t0 ~client:r.client ~saw ~stage:Span.Repl_ack
          (Rep { rid = r.rid; ok; mutated; fin })
    in
    (* Group commit: puts and deletes are commit groups executed by
       [Kv.group_commit] — one covering persist chain per chunk
       instead of per op.  At window 1 a group holds one op; above it,
       consecutive already-queued puts and deletes join it.  Collection
       is greedy over the inbox, no timers: while one group persists,
       more requests queue behind it, so the batch size self-tunes to
       the offered load.  A read or transaction ends collection and is
       handled, in arrival order, by [handle]. *)
    let is_group_member = function
      | Req r -> r.kind = KPut || r.kind = KDel
      | Rep _ -> false
    in
    let rec gather acc n =
      if n >= cfg.batch_window then (List.rev acc, None)
      else
        match Net.recv net ~port:i with
        | Some m when is_group_member m.Net.payload -> gather (m :: acc) (n + 1)
        | Some m -> (List.rev acc, Some m)
        | None -> (List.rev acc, None)
    in
    (* sync: a group beyond [groups_in_flight] waits for the oldest
       one's ack first *)
    let pace () =
      match sink with
      | Ship ({ sync = true; _ } as s)
        when Queue.length inflight >= groups_in_flight ->
        let oldest = Queue.pop inflight in
        ignore (await s (fun () -> covered s (i, oldest)))
      | Local | Ship _ -> ()
    in
    let handle_group msgs =
      (* per-request ingress and decode; each request's store span
         opens at its own decode end and closes as its reply is
         produced at its chunk's commit point, so the shared
         group-execution interval partitions every member's latency
         budget, and the group's per-layer detail up to that point
         lands under every member's store span *)
      let members =
        List.map
          (fun (m : payload Net.msg) ->
            match m.payload with
            | Req { rid; client; kind; key; vseed; _ } ->
              let t0 = ingress m in
              let sst = Span.open_span ~trace:m.trace ~parent:m.span Span.Store in
              { g_msg = m; g_rid = rid; g_client = client;
                g_op =
                  (if kind = KPut then Kv.Tput { key; vseed }
                   else Kv.Tdel { key });
                g_t0 = t0; g_store = sst }
            | Rep _ -> assert false)
          msgs
      in
      let ops = List.map (fun g -> g.g_op) members in
      let mk = Span.marks () in
      (* a parked group of one waits for its own round trip (Repl_ack);
         each member of a larger group waits for the covering flush
         (Flush_wait), not behind its predecessors' round trips *)
      let stage =
        match members with [ _ ] -> Span.Repl_ack | _ -> Span.Flush_wait
      in
      let answer g ~ok ~fin =
        Span.close_span g.g_store;
        Span.details ~trace:g.g_msg.trace ~parent:g.g_store
          ~t1:(Sched.now ()) mk;
        reply g.g_msg ~t0:g.g_t0 ~client:g.g_client ~saw:[ i ] ~stage
          (Rep { rid = g.g_rid; ok; mutated = ok; fin })
      in
      let member op = List.find (fun g -> g.g_op == op) members in
      (* At each chunk's commit point, before its apply: the chunk
         ships inside the shard lock as one doorbell frame, every
         record carrying its member's trace and store span, and then
         each member replies.  The apply runs after the replies. *)
      let last_seq = ref (-1) in
      let on_chunk ~fin cops =
        (match sink with
         | Local -> ()
         | Ship s ->
           List.iter
             (fun op ->
               let g = member op in
               let rop =
                 match op with
                 | Kv.Tput { key; vseed } -> Replica.Put { key; vseed }
                 | Kv.Tdel { key } -> Replica.Del { key }
               in
               last_seq :=
                 Replica.Shipper.ship s.shipper ~trace:g.g_msg.trace
                   ~span:g.g_store ~shard:i rop)
             cops;
           ignore (Replica.Shipper.flush s.shipper));
        List.iter (fun op -> answer (member op) ~ok:true ~fin) cops
      in
      let results = Kv.group_commit svc ~shard:i ops ~on_chunk in
      (match sink with
       | Ship { sync = true; _ } when !last_seq >= 0 ->
         Queue.add !last_seq inflight
       | Local | Ship _ -> ());
      (* the members no chunk committed: absent deletes and puts the
         heap could not hold *)
      List.iter2
        (fun g (ok, fin) -> if not ok then answer g ~ok ~fin)
        members results
    in
    let dispatch m =
      if is_group_member m.Net.payload then begin
        pace ();
        let group, leftover = gather [ m ] 1 in
        handle_group group;
        Option.iter handle leftover
      end
      else handle m
    in
    let rec loop () =
      if Sched.now () >= server_end then ()
      else begin
        release ();
        match Net.recv net ~port:i with
        | Some m ->
          dispatch m;
          loop ()
        | None ->
          if !senders = 0 && Net.pending net ~port:i = 0 then ()
          else begin
            (* an idle handler with no parked reply refills its own
               CPU's magazine bins, so the next allocations skip the
               carve *)
            if !parked = [] then
              Option.iter
                (fun t ->
                  let t0 = Sched.now () in
                  if Tcache.top_up t > 0 then begin
                    let t1 = Sched.now () in
                    topup := (t0, t1);
                    idle_topup_ns.(i) <- idle_topup_ns.(i) + (t1 - t0)
                  end)
                tch;
            (* while replies are parked, idle at the ack-poll quantum *)
            let idle =
              match (sink, !parked) with
              | Ship _, _ :: _ -> Replica.poll_ns
              | _ -> 100_000
            in
            let until = min server_end (Sched.now () + idle) in
            (match Net.recv_wait net ~port:i ~until with
             | Some m -> dispatch m
             | None -> ());
            loop ()
          end
      end
    in
    loop ();
    (* a clean run waits out its parked replies until the deadline; a
       crash cut sends none of them *)
    (match sink with
     | Ship ({ sync = true; _ } as s) when t_crash = None ->
       ignore (await s (fun () -> !parked = []))
     | Local | Ship _ -> ());
    List.iter (fun p -> Span.close_span p.wait) !parked;
    decr live_servers
  in

  (* ---------- client threads ---------- *)
  let zipf = Zipf.create ~theta:cfg.zipf_theta cfg.keyspace in
  let client_body j () =
    let rng = Prng.create (cfg.seed + (7919 * (j + 1))) in
    (* a transaction's keys: distinct draws from the same zipfian
       popularity; ~1 in 4 ops is a strict delete, so transactions
       abort at a real rate once a hot key is already gone *)
    let gen_txn_ops rid =
      let rec pick ks n guard =
        if n = 0 || guard = 0 then List.rev ks
        else
          let k = 1 + Zipf.scrambled zipf rng in
          if List.mem k ks then pick ks n (guard - 1)
          else pick (k :: ks) (n - 1) (guard - 1)
      in
      List.mapi
        (fun idx k ->
          if Prng.int rng 100 < 25 then Kv.Tdel { key = k }
          else Kv.Tput { key = k; vseed = (rid lsl 4) lor idx })
        (pick [] cfg.txn_ops (8 * cfg.txn_ops))
    in
    let lg =
      Net.Loadgen.create
        ~rate:(cfg.rate /. float_of_int cfg.clients)
        ~seed:(cfg.seed lxor (j * 65537) lxor 0x10AD)
    in
    let out = outstanding.(j) in
    let port = cfg.shards + j in
    let seq = ref 0 in
    let drain () =
      let rec go () =
        match Net.recv net ~port with
        | Some { payload = Rep r; delivered_at; sent_at; _ } ->
          (match Hashtbl.find_opt out r.rid with
           | Some p ->
             Hashtbl.remove out r.rid;
             incr completed;
             Hist.record lat_h (delivered_at - p.p_sent);
             (match p.p_kind with
              | KGet -> Hist.record read_h (delivered_at - p.p_sent)
              | KScan -> Hist.record scan_h (delivered_at - p.p_sent)
              | KPut | KDel | KTxn ->
                Hist.record write_h (delivered_at - p.p_sent));
             (* the reply's hop back, then the root closes at delivery
                (not at this drain) so root = measured latency *)
             ignore
               (Span.add_span ~trace:p.p_trace ~parent:p.p_span
                  Span.Rep_wire ~t0:sent_at ~t1:delivered_at);
             Span.close_span_at p.p_span ~t1:delivered_at;
             if r.mutated then begin
               incr acked_mut;
               match p.p_kind with
               | KTxn ->
                 Hist.record txn_lat_h (delivered_at - p.p_sent);
                 List.iter
                   (fun o ->
                     let k, v =
                       match o with
                       | Kv.Tput { key; vseed } -> (key, Some vseed)
                       | Kv.Tdel { key } -> (key, None)
                     in
                     ledger := (k, v, r.fin) :: !ledger)
                   p.p_ops
               | _ ->
                 let v = if p.p_kind = KPut then Some p.p_vseed else None in
                 ledger := (p.p_key, v, r.fin) :: !ledger
             end
           | None -> ());
          go ()
        | Some _ -> go () (* a Req on a reply port: ignore *)
        | None -> ()
      in
      go ()
    in
    let rec send_loop t_next =
      if t_next >= t_stop then ()
      else begin
        let now = Sched.now () in
        if now < t_next then Sched.sleep (t_next - now);
        if Sched.now () >= t_stop then ()
        else begin
          drain ();
          let key = 1 + Zipf.scrambled zipf rng in
          let die = Prng.int rng 100 in
          incr offered;
          let rid = (j lsl 32) lor !seq in
          incr seq;
          let kind, ops =
            if die < cfg.read_pct then (KGet, [])
            else if die < cfg.read_pct + cfg.delete_pct then (KDel, [])
            else if die < cfg.read_pct + cfg.delete_pct + cfg.scan_pct then
              (KScan, [])
            else if
              die < cfg.read_pct + cfg.delete_pct + cfg.scan_pct + cfg.txn_pct
            then begin
              match gen_txn_ops rid with
              | [] -> (KPut, []) (* key draws starved out: degrade to a put *)
              | ops -> (KTxn, ops)
            end
            else (KPut, [])
          in
          (match kind with
           | KGet -> incr n_read
           | KScan -> incr n_scan
           | KPut | KDel | KTxn -> incr n_write);
          (* a transaction is addressed to its first key's shard; the
             handler fans out to the other participants itself *)
          let key = match ops with o :: _ -> txn_op_key o | [] -> key in
          let dst = Kv.shard_of_key svc key in
          (* root span opened before the send so its id can ride the
             envelope; a refused send leaves it open (incomplete) *)
          let trace = Span.new_trace () in
          let root = Span.open_span ~trace ~parent:(-1) Span.Request in
          if
            Net.try_send ~trace ~span:root net ~dst
              (Req { rid; client = j; kind; key; vseed = rid; ops })
          then begin
            incr admitted;
            let p_sent = Sched.now () in
            (* align the root with the send timestamp (the send's CPU
               charge lands between open_span and here) *)
            Span.set_start root ~t0:p_sent;
            Hashtbl.replace out rid
              { p_kind = kind;
                p_key = key;
                p_vseed = rid;
                p_ops = ops;
                p_sent;
                p_trace = trace;
                p_span = root }
          end
          else incr shed (* Overloaded: admission refused, request dropped *);
          send_loop (t_next + Net.Loadgen.next_gap_ns lg)
        end
      end
    in
    send_loop (Net.Loadgen.next_gap_ns lg);
    decr senders;
    (match t_crash with
     | Some _ -> drain () (* take what already arrived; rest is in flight *)
     | None ->
       let deadline = t_stop + grace_ns in
       let rec wait () =
         drain ();
         if Hashtbl.length out > 0 && Sched.now () < deadline then begin
           Sched.sleep 10_000;
           wait ()
         end
       in
       wait ())
  in

  for i = 0 to cfg.shards - 1 do
    ignore (Machine.spawn mach ~cpu:i (server_body i))
  done;
  spawn_aux ~servers_done:(fun () -> !live_servers = 0);
  for j = 0 to cfg.clients - 1 do
    ignore (Machine.spawn mach ~cpu:(client_cpu j) (client_body j))
  done;
  let t_run0 = Sched.horizon (Machine.engine mach) in
  Machine.run mach;
  let sim_ns = Sched.horizon (Machine.engine mach) - t_run0 in

  (* mutations never acked: their keys are ambiguous for verification *)
  let in_flight_keys = Hashtbl.create 64 in
  Array.iter
    (fun out ->
      Hashtbl.iter
        (fun _ p ->
          match p.p_kind with
          | KPut | KDel -> Hashtbl.replace in_flight_keys p.p_key ()
          | KTxn ->
            List.iter
              (fun o -> Hashtbl.replace in_flight_keys (txn_op_key o) ())
              p.p_ops
          | KGet | KScan -> ())
        out)
    outstanding;
  let in_flight_at_crash = Hashtbl.length in_flight_keys in

  let verify store =
    let expected = Hashtbl.create (preload_n + 64) in
    for k = 1 to preload_n do
      Hashtbl.replace expected k (Some k)
    done;
    let entries =
      List.sort (fun (_, _, a) (_, _, b) -> compare a b) !ledger
    in
    List.iter (fun (k, v, _) -> Hashtbl.replace expected k v) entries;
    Hashtbl.iter
      (fun k () ->
        if not (Hashtbl.mem expected k) then Hashtbl.replace expected k None)
      in_flight_keys;
    let checked = ref 0 and ambiguous = ref 0 and mismatches = ref 0 in
    Hashtbl.iter
      (fun k exp ->
        if Hashtbl.mem in_flight_keys k then incr ambiguous
        else begin
          incr checked;
          let got = Kv.get store ~key:k in
          let want =
            Option.map (fun vs -> Kv.value_checksum store ~vseed:vs) exp
          in
          if got <> want then incr mismatches
        end)
      expected;
    { checked = !checked; ambiguous = !ambiguous; mismatches = !mismatches }
  in

  let crashed, rto_ns, recovery, ledger_rep, mirror_ledger =
    match t_crash with
    | None ->
      let mirror_ledger = Option.map (fun (_, b) -> verify b) mirror in
      (false, 0, None, verify svc, mirror_ledger)
    | Some _ ->
      Nvmm.Memdev.crash (Machine.dev mach) `Strict;
      let secs, store, recovery = recover () in
      Kv.check store;
      (true, int_of_float (secs *. 1e9), recovery, verify store, None)
  in

  let queue_max_depth = ref 0 in
  for i = 0 to cfg.shards - 1 do
    let s = Net.stats net ~port:i in
    if s.Net.max_depth > !queue_max_depth then queue_max_depth := s.Net.max_depth
  done;

  let secs = float_of_int t_stop /. 1e9 in
  let scope = cfg.scope in
  let g name v = Obs.Metrics.set_gauge ~scope name v in
  g "handled" (float_of_int !handled);
  g "reply_drops" (float_of_int !reply_drops);
  g "topup_waiters" (float_of_int !topup_waiters);
  g "mvcc_truncated_reads" (float_of_int (Kv.mvcc_truncated_reads svc));
  (let hits0, misses0 = vindex_base and hits, misses = Kv.vindex_stats svc in
   g "vindex_hits" (float_of_int (hits - hits0));
   g "vindex_misses" (float_of_int (misses - misses0));
   g "vindex_entries" (float_of_int (Kv.vindex_entries svc)));
  Array.iteri
    (fun i (chains, versions) ->
      let sscope = Printf.sprintf "%s/shard%d" scope i in
      Obs.Metrics.set_gauge ~scope:sscope "mvcc_chains" (float_of_int chains);
      Obs.Metrics.set_gauge ~scope:sscope "mvcc_chain_versions"
        (float_of_int versions);
      Obs.Metrics.set_gauge ~scope:sscope "apply_after_reply_ns"
        (float_of_int (Kv.apply_after_commit_ns svc ~shard:i));
      Obs.Metrics.set_gauge ~scope:sscope "idle_topup_ns"
        (float_of_int idle_topup_ns.(i)))
    (Kv.mvcc_shard_chains svc);
  (match (tch, tcache_base) with
   | Some t, Some ((hits0, misses0, refills0, flushes0), idle0) ->
     let hits, misses, refills, flushes = Tcache.stats t in
     g "tcache_hits" (float_of_int (hits - hits0));
     g "tcache_misses" (float_of_int (misses - misses0));
     g "tcache_bin_refills" (float_of_int (refills - refills0));
     g "tcache_bin_flushes" (float_of_int (flushes - flushes0));
     g "tcache_idle_refills" (float_of_int (Tcache.idle_refills t - idle0))
   | _ -> ());
  if cfg.rcache_entries > 0 then begin
    let hits, misses, evictions, invalidations = Kv.rcache_stats svc in
    g "rcache_hits" (float_of_int hits);
    g "rcache_misses" (float_of_int misses);
    g "rcache_evictions" (float_of_int evictions);
    g "rcache_invalidations" (float_of_int invalidations)
  end;
  Hist.merge ~into:(Obs.Metrics.log_histogram ~scope "latency_ns") lat_h;
  Hist.merge ~into:(Obs.Metrics.log_histogram ~scope "service_ns") svc_h;
  Hist.merge ~into:(Obs.Metrics.log_histogram ~scope "txn_latency_ns") txn_lat_h;
  Hist.merge ~into:(Obs.Metrics.log_histogram ~scope "read_latency_ns") read_h;
  Hist.merge ~into:(Obs.Metrics.log_histogram ~scope "write_latency_ns") write_h;
  Hist.merge ~into:(Obs.Metrics.log_histogram ~scope "scan_latency_ns") scan_h;

  ( { offered = !offered;
      admitted = !admitted;
      shed = !shed;
      completed = !completed;
      acked_mutations = !acked_mut;
      sim_ns;
      throughput = float_of_int !handled /. secs;
      goodput = float_of_int !completed /. secs;
      latency = percentiles_of lat_h;
      service = percentiles_of svc_h;
      crashed;
      rto_ns;
      recovery;
      ledger = ledger_rep;
      in_flight_at_crash;
      queue_max_depth = !queue_max_depth;
      txns_committed = !txn_commits;
      txns_aborted = !txn_aborts;
      txn_latency = percentiles_of txn_lat_h;
      read_latency = percentiles_of read_h;
      write_latency = percentiles_of write_h;
      scan_latency = percentiles_of scan_h;
      ops_read = !n_read;
      ops_write = !n_write;
      ops_scan = !n_scan },
    mirror_ledger )

let run ~make ~reattach cfg =
  validate ~name:"Server.run" cfg;
  let mach, inst = make () in
  let svc, tch = build cfg inst in
  (* a crash re-attaches the heap and store on the same machine *)
  let recover () =
    let got = ref None in
    let secs =
      Machine.parallel mach ~threads:1 (fun _ ->
          (* the recovered heap reclaimed every lease; serve the
             post-crash store through a fresh cache *)
          let inst', _ = wrap cfg (reattach mach) in
          got :=
            Some
              (Kv.attach ~mvcc_window:cfg.mvcc_window
                 ~rcache_entries:cfg.rcache_entries inst'))
    in
    let svc', reco = Option.get !got in
    (secs, svc', Some reco)
  in
  fst
    (serve ~name:"Server.run" ~mach ~svc ~tch ~mirror:None ~sink:Local
       ~spawn_aux:(fun ~servers_done:_ -> ())
       ~recover cfg)

(* ------------------------------------------------------------------ *)
(* Replicated serving: primary + backup machines on one engine.      *)
(* ------------------------------------------------------------------ *)

type repl_config = {
  repl_mode : Replica.mode;
  wire_ns : int;
  repl_window : int;
  link_drop_pct : int;
  link_dup_pct : int;
}

let default_repl_config =
  { repl_mode = Replica.Sync;
    wire_ns = 20_000;
    repl_window = 64;
    link_drop_pct = 0;
    link_dup_pct = 0 }

type repl_result = {
  base : result;
  shipped : int;
  acked_records : int;
  retransmits : int;
  max_lag : int;
  link_dropped : int;
  link_duplicated : int;
  link_flushes : int;
  backup_applied : int;
  tail_replayed : int;
  indoubt_aborted : int;
  backup_ledger : ledger_report option;
  sync : bool;
}

let run_replicated ~make cfg rcfg =
  let name = "Server.run_replicated" in
  validate ~name cfg;
  if rcfg.wire_ns < 1 then invalid_arg (name ^ ": wire_ns < 1");
  let sync = rcfg.repl_mode = Replica.Sync in
  let engine = Sched.create () in
  let primary = Machine.create ~engine () in
  let backup = Machine.create ~engine () in
  let svc, tch = build cfg (make primary) in
  (* the backup grows chains too (group-installed, like the primary)
     so a promotion can serve snapshots at once — and caches reads the
     same way, its entries invalidated by the replicated applies *)
  let svc_b, tch_b = build cfg (make backup) in

  let link : Replica.msg Net.t =
    Net.create ~wire_ns:rcfg.wire_ns ~drop_pct:rcfg.link_drop_pct
      ~dup_pct:rcfg.link_dup_pct ~seed:(cfg.seed lxor 0x5EA) primary
      ~ports:[| (0, 1024); (0, 1024) |] ()
  in
  let shipper =
    Replica.Shipper.create ~window:rcfg.repl_window ~shards:cfg.shards ~link
  in
  let repl_lag_h = Hist.create () in
  let applier =
    Replica.Applier.create link ~shards:cfg.shards
      ~ack_batch:(cfg.batch_window > 1)
      ~on_apply:(fun ~lat_ns -> Hist.record repl_lag_h lat_ns)
      ~apply:(Kv.apply_replicated svc_b)
      ~apply_group:(Kv.apply_replicated_group svc_b)
      ~held:(Kv.backup_held svc_b)
  in
  let t_crash, t_stop = timeline cfg in

  let ship_pump_done = ref false in
  let spawn_aux ~servers_done =
    (* primary: the replication pump *)
    let deadline =
      match t_crash with Some c -> c | None -> t_stop + (4 * grace_ns)
    in
    ignore
      (Machine.spawn primary
         ~cpu:((Machine.cfg primary).Machine.Config.num_cpus - 1) (fun () ->
           Replica.Shipper.pump shipper ~until:servers_done ~deadline;
           ship_pump_done := true));
    (* backup: the applier.  On a crash run it stops where the
       primary's pump stopped; whatever the wire still holds is the
       tail that the failover replays — and its replay cost is what
       we charge to the promote RTO. *)
    let until =
      match t_crash with
      | Some _ -> fun () -> !ship_pump_done
      | None ->
        fun () -> !ship_pump_done && Net.pending link ~port:Replica.backup_ep = 0
    in
    ignore
      (Machine.spawn backup ~cpu:0 (fun () -> Replica.Applier.pump applier ~until))
  in

  (* a crash loses the primary machine outright; the backup promotes:
     seal the shipped log, replay the in-order tail the wire had
     delivered, and serve.  The promote makespan is the failover RTO. *)
  let tail_replayed = ref 0 and indoubt_aborted = ref 0 in
  let recover () =
    let secs =
      Machine.parallel backup ~threads:1 (fun _ ->
          (* the log is sealed at promote start: records the wire has
             not yet delivered are cut off — none of them was ever
             acked (an ack implies the backup already applied) *)
          let sealed_at = Sched.now () in
          Machine.compute backup 1_000 (* failover decision + seal *);
          tail_replayed := Replica.Applier.seal_and_replay applier ~sealed_at;
          (* role change: flush the promoted member's magazine bins
             back to its allocator so it starts clean (the reclaim
             cost is part of the promote makespan) *)
          Option.iter Tcache.reset tch_b;
          (* prepares whose decide died with the primary: presumed
             abort — none of those transactions was ever acked *)
          indoubt_aborted := Kv.txn_resolve_indoubt svc_b)
    in
    (secs, svc_b, None)
  in

  let deadline = match t_crash with Some c -> c | None -> t_stop + grace_ns in
  let base, backup_ledger =
    serve ~name ~mach:primary ~svc ~tch ~mirror:(Some (backup, svc_b))
      ~sink:(Ship { shipper; sync; deadline })
      ~spawn_aux ~recover cfg
  in

  let acked_records =
    let n = ref 0 in
    for s = 0 to cfg.shards - 1 do
      n := !n + Replica.Shipper.acked shipper ~shard:s + 1
    done;
    !n
  in
  let lstats = Net.stats link ~port:Replica.backup_ep in
  let astats = Net.stats link ~port:Replica.primary_ep in
  let link_dropped = lstats.Net.dropped + astats.Net.dropped in
  let link_duplicated = lstats.Net.duplicated + astats.Net.duplicated in
  Hist.merge
    ~into:(Obs.Metrics.log_histogram ~scope:cfg.scope "repl_lag_ns")
    repl_lag_h;

  { base;
    shipped = Replica.Shipper.shipped shipper;
    acked_records;
    retransmits = Replica.Shipper.retransmits shipper;
    max_lag = Replica.Shipper.max_lag shipper;
    link_dropped;
    link_duplicated;
    link_flushes = lstats.Net.flushes + astats.Net.flushes;
    backup_applied = Replica.Applier.applied applier;
    tail_replayed = !tail_replayed;
    indoubt_aborted = !indoubt_aborted;
    backup_ledger;
    sync }

(* ------------------------------------------------------------------ *)
(* JSON: the serve --json-out shape, shared with the bench snapshots.  *)
(* ------------------------------------------------------------------ *)

module J = Obs.Json

let num i = J.Num (float_of_int i)

let config_json c =
  J.Obj
    [ ("shards", num c.shards); ("clients", num c.clients);
      ("rate", J.Num c.rate); ("duration", J.Num c.duration);
      ("value_size", num c.value_size); ("zipf_theta", J.Num c.zipf_theta);
      ("keyspace", num c.keyspace); ("queue_capacity", num c.queue_capacity);
      ("preload", num c.preload); ("read_pct", num c.read_pct);
      ("delete_pct", num c.delete_pct); ("scan_pct", num c.scan_pct);
      ("txn_pct", num c.txn_pct); ("txn_ops", num c.txn_ops);
      ("batch_window", num c.batch_window);
      ("mvcc_window", num c.mvcc_window); ("tcache_mag", num c.tcache_mag);
      ("rcache_entries", num c.rcache_entries);
      ("crash_at", match c.crash_at with Some f -> J.Num f | None -> J.Null);
      ("seed", num c.seed) ]

let percentiles_json p =
  J.Obj
    [ ("p50", num p.p50); ("p99", num p.p99); ("p999", num p.p999);
      ("mean", J.Num p.mean); ("max", num p.max); ("samples", num p.samples) ]

let ledger_json l =
  J.Obj
    [ ("checked", num l.checked); ("ambiguous", num l.ambiguous);
      ("mismatches", num l.mismatches) ]

let repl_json rr =
  J.Obj
    [ ("mode", J.Str (if rr.sync then "sync" else "async"));
      ("shipped", num rr.shipped); ("acked_records", num rr.acked_records);
      ("retransmits", num rr.retransmits); ("max_lag", num rr.max_lag);
      ("link_dropped", num rr.link_dropped);
      ("link_duplicated", num rr.link_duplicated);
      ("link_flushes", num rr.link_flushes);
      ("backup_applied", num rr.backup_applied);
      ("tail_replayed", num rr.tail_replayed);
      ("indoubt_aborted", num rr.indoubt_aborted);
      ( "backup_ledger",
        match rr.backup_ledger with Some l -> ledger_json l | None -> J.Null )
    ]

let result_json ?repl r =
  J.Obj
    [ ("offered", num r.offered); ("admitted", num r.admitted);
      ("shed", num r.shed); ("completed", num r.completed);
      ("acked_mutations", num r.acked_mutations); ("sim_ns", num r.sim_ns);
      ("throughput", J.Num r.throughput); ("goodput", J.Num r.goodput);
      ("latency", percentiles_json r.latency);
      ("service", percentiles_json r.service);
      ("crashed", J.Bool r.crashed); ("rto_ns", num r.rto_ns);
      ( "recovery",
        match r.recovery with
        | Some rc ->
          J.Obj
            [ ("replayed", num rc.Kv.replayed);
              ("rolled_back", num rc.Kv.rolled_back) ]
        | None -> J.Null );
      ("ledger", ledger_json r.ledger);
      ("in_flight_at_crash", num r.in_flight_at_crash);
      ("queue_max_depth", num r.queue_max_depth);
      ("txns_committed", num r.txns_committed);
      ("txns_aborted", num r.txns_aborted);
      ("txn_latency", percentiles_json r.txn_latency);
      ("read_latency", percentiles_json r.read_latency);
      ("write_latency", percentiles_json r.write_latency);
      ("scan_latency", percentiles_json r.scan_latency);
      ( "op_mix",
        J.Obj
          [ ("read", num r.ops_read); ("write", num r.ops_write);
            ("scan", num r.ops_scan) ] );
      ("replication", match repl with Some rr -> repl_json rr | None -> J.Null)
    ]
