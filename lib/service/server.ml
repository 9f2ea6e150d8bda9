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
  batch_bytes : int;
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
    batch_bytes = 0;
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
   the reply leaves at once.  [Ship]: each applied mutation is also
   shipped to the backup inside its shard lock, and in [sync] mode the
   reply waits for the backup's covering ack — until [deadline], past
   which the reply is withheld. *)
type ship = { shipper : Replica.Shipper.t; sync : bool; deadline : int }

type sink = Local | Ship of ship

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
  reject (cfg.batch_bytes < 0) "batch_bytes < 0";
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

(* a detail span under [parent]: [ns] of accumulated time ending at [t1] *)
let detail ~trace ~parent ~t1 stage ns =
  if ns > 0 then ignore (Span.add_span ~trace ~parent stage ~t0:(t1 - ns) ~t1)

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
  let net : payload Net.t = Net.create mach ~ports ~poll_ns:2_000 () in

  let offered = ref 0 and admitted = ref 0 and shed = ref 0 in
  let handled = ref 0 and completed = ref 0 and acked_mut = ref 0 in
  let reply_drops = ref 0 in
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
     transaction: the decision record's persist), so per key it orders
     exactly as the store applied the mutations even when single ops
     and cross-shard transactions interleave. *)
  let ledger : (int * int option * int) list ref = ref [] in
  let outstanding : (int, pending) Hashtbl.t array =
    Array.init cfg.clients (fun _ -> Hashtbl.create 64)
  in
  let batched = cfg.batch_window > 1 in

  (* A committed transaction ships every participant's prepare and
     decide records under its locks; batched, they stage in the
     doorbell buffer and leave as one frame, so the decide stops paying
     its own round trip.  2PC lock discipline: the participant locks
     are held until the backup has acked the whole group — in BOTH
     modes, not just sync.  Streams are shipped under these locks, so
     the wait guarantees the next transaction touching one of these
     shards cannot reach the backup while this group's slots are still
     pending; without it a decide lagging on one stream (loss,
     retransmit) lets a later prepare collide with the occupied slot.
     Returns whether the ack came before the deadline. *)
  let ship_txn s ~trace ~span res =
    let send =
      if batched then Replica.Shipper.ship_buffered else Replica.Shipper.ship
    in
    let txn = res.Kv.txn_id and nparts = List.length res.Kv.participants in
    let dseqs =
      List.map
        (fun (shard, ops) ->
          ignore
            (send s.shipper ~trace ~span ~shard (Replica.Txn_prepare { txn; ops }));
          ( shard,
            send s.shipper ~trace ~span ~shard
              (Replica.Txn_decide { txn; commit = true; nparts }) ))
        res.Kv.participants
    in
    if batched then ignore (Replica.Shipper.flush s.shipper);
    let sra = Span.open_span ~trace ~parent:span Span.Repl_ack in
    let acked =
      List.for_all
        (fun (shard, seq) ->
          Replica.Shipper.wait_acked s.shipper ~shard ~seq ~deadline:s.deadline)
        dseqs
    in
    Span.close_span sra;
    acked
  in

  (* ---------- server threads (one per shard) ---------- *)
  let server_body i () =
    let server_end = match t_crash with Some c -> c | None -> max_int in
    (* the request's hop in, split at the delivery timestamp — pure
       wire, then inbox queue wait, known only at dequeue — and its
       decode; returns the time handling began *)
    let ingress (m : payload Net.msg) =
      let t0 = Sched.now () in
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
    (* a handled request's reply; withheld when its sync ack missed the
       deadline — the client keeps the request outstanding and the
       verifier treats its keys as ambiguous rather than guaranteed,
       which is what makes a promote-time presumed-abort of a
       half-delivered transaction safe *)
    let finish (m : payload Net.msg) ~t0 ~client ~acked rep =
      incr handled;
      Hist.record svc_h (Sched.now () - t0);
      if
        acked
        && not
             (Net.try_send ~trace:m.trace ~span:m.span net
                ~dst:(cfg.shards + client) rep)
      then incr reply_drops
    in
    let handle (m : payload Net.msg) =
      match m.payload with
      | Rep _ -> ()
      | Req r ->
        let t0 = ingress m in
        let trace = m.trace in
        (* a single-key mutation ships inside its critical section,
           right after the local persist, so every shard's sequenced
           stream orders exactly as the store applied the mutations *)
        let shipped = ref (-1) in
        let txn_acked = ref true in
        let ok, mutated, fin =
          match r.kind with
          | KTxn ->
            (* Kv.txn takes every participant's shard lock itself *)
            let stx = Span.open_span ~trace ~parent:m.span Span.Txn in
            let pmark = Span.persist_mark () in
            let amark = Span.alloc_mark () in
            let on_commit =
              match sink with
              | Local -> None
              | Ship s ->
                Some (fun res -> txn_acked := ship_txn s ~trace ~span:stx res)
            in
            let res = Kv.txn svc r.ops ~trace ~span:stx ?on_commit in
            let pns = Span.persist_since pmark in
            let ans = Span.alloc_since amark in
            Span.close_span stx;
            let now = Sched.now () in
            detail ~trace ~parent:stx ~t1:now Span.Persist pns;
            detail ~trace ~parent:stx ~t1:now Span.Alloc ans;
            if res.Kv.committed then incr txn_commits else incr txn_aborts;
            (res.Kv.committed, res.Kv.committed, res.Kv.fin)
          | (KGet | KScan) when cfg.mvcc_window > 0 ->
            (* lock-free snapshot read: no Lock_wait, no shard lock —
               the read minted a timestamp and resolves against the
               version chains (KScan becomes a multi-shard merged
               scan, ordered and consistent at one snapshot) *)
            let ssn = Span.open_span ~trace ~parent:m.span Span.Snapshot in
            let rmark = Span.rcache_mark () in
            let ts = Kv.snapshot svc in
            let ok =
              match r.kind with
              | KGet -> Kv.snapshot_get svc ~ts ~key:r.key <> None
              | _ ->
                ignore
                  (Kv.snapshot_scan svc ~ts ~from_key:r.key ~n:16
                     (fun _ _ -> ()));
                true
            in
            let rns = Span.rcache_since rmark in
            let fin = Sched.now () in
            Span.close_span ssn;
            detail ~trace ~parent:ssn ~t1:fin Span.Rcache rns;
            (ok, false, fin)
          | _ ->
            let slw = Span.open_span ~trace ~parent:m.span Span.Lock_wait in
            Machine.Lock.with_lock (Kv.shard_lock svc i) (fun () ->
                Span.close_span slw;
                let sst = Span.open_span ~trace ~parent:m.span Span.Store in
                let pmark = Span.persist_mark () in
                let amark = Span.alloc_mark () in
                let rmark = Span.rcache_mark () in
                let ok, mutated =
                  match r.kind with
                  | KGet -> (Kv.get svc ~key:r.key <> None, false)
                  | KPut ->
                    let ok = Kv.put svc ~key:r.key ~vseed:r.vseed in
                    (ok, ok)
                  | KDel ->
                    let ok = Kv.delete svc ~key:r.key in
                    (ok, ok)
                  | KScan ->
                    ignore (Kv.scan svc ~from_key:r.key ~n:16);
                    (true, false)
                  | KTxn -> assert false
                in
                (match sink with
                 | Ship s when mutated ->
                   shipped :=
                     Replica.Shipper.ship s.shipper ~trace ~span:sst ~shard:i
                       (if r.kind = KPut then
                          Replica.Put { key = r.key; vseed = r.vseed }
                        else Replica.Del { key = r.key })
                 | _ -> ());
                let pns = Span.persist_since pmark in
                let ans = Span.alloc_since amark in
                let rns = Span.rcache_since rmark in
                let fin = Sched.now () in
                Span.close_span sst;
                detail ~trace ~parent:sst ~t1:fin Span.Persist pns;
                detail ~trace ~parent:sst ~t1:fin Span.Alloc ans;
                detail ~trace ~parent:sst ~t1:fin Span.Rcache rns;
                (ok, mutated, fin))
        in
        (* sync mode holds the reply until the backup's cumulative ack
           covers every shipped record: an acked mutation (single op or
           whole transaction) must survive primary loss *)
        let acked =
          match sink with
          | Local -> true
          | Ship s when r.kind = KTxn -> (not s.sync) || !txn_acked
          | Ship s when (not s.sync) || !shipped < 0 -> true
          | Ship s ->
            let sra = Span.open_span ~trace ~parent:m.span Span.Repl_ack in
            let acked =
              Replica.Shipper.wait_acked s.shipper ~shard:i ~seq:!shipped
                ~deadline:s.deadline
            in
            Span.close_span sra;
            acked
        in
        finish m ~t0 ~client:r.client ~acked (Rep { rid = r.rid; ok; mutated; fin })
    in
    (* Group commit (batch_window > 1): consecutive already-queued
       single-key mutations drain into one commit group executed by
       [Kv.group_commit] — one covering persist chain per chunk
       instead of per op.  Collection is greedy over the inbox, no
       timers: while one group persists, more requests queue behind
       it, so the batch size self-tunes to the offered load.  A read
       or transaction ends collection and is handled, in arrival
       order, by [handle]. *)
    let is_group_member = function
      | Req r -> r.kind = KPut || r.kind = KDel
      | Rep _ -> false
    in
    let op_bytes = function
      | Req { kind = KPut; _ } -> 24 + cfg.value_size
      | _ -> 24
    in
    let rec gather acc n bytes =
      if
        n >= cfg.batch_window
        || (cfg.batch_bytes > 0 && bytes >= cfg.batch_bytes)
      then (List.rev acc, None)
      else
        match Net.recv net ~port:i with
        | Some m when is_group_member m.Net.payload ->
          gather (m :: acc) (n + 1) (bytes + op_bytes m.Net.payload)
        | Some m -> (List.rev acc, Some m)
        | None -> (List.rev acc, None)
    in
    let handle_group msgs =
      (* per-request ingress and decode; each request's store span
         opens at its own decode end and closes at the group's commit,
         so the shared group-execution interval partitions every
         member's latency budget *)
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
      let reply ~acked g (ok, fin) =
        finish g.g_msg ~t0:g.g_t0 ~client:g.g_client ~acked
          (Rep { rid = g.g_rid; ok; mutated = ok; fin })
      in
      match sink with
      | Local ->
        (* each member's store span closes as its reply leaves *)
        List.iter2
          (fun g res ->
            Span.close_span g.g_store;
            reply ~acked:true g res)
          members
          (Kv.group_commit svc ~shard:i ops)
      | Ship s ->
        (* each chunk ships inside the shard lock as one doorbell
           frame, every record carrying its member's trace and store
           span *)
        let last_seq = ref (-1) in
        let results =
          Kv.group_commit svc ~shard:i ops ~on_chunk:(fun ~fin:_ cops ->
              List.iter
                (fun op ->
                  let g = List.find (fun g -> g.g_op == op) members in
                  let rop =
                    match op with
                    | Kv.Tput { key; vseed } -> Replica.Put { key; vseed }
                    | Kv.Tdel { key } -> Replica.Del { key }
                  in
                  last_seq :=
                    Replica.Shipper.ship_buffered s.shipper ~trace:g.g_msg.trace
                      ~span:g.g_store ~shard:i rop)
                cops;
              ignore (Replica.Shipper.flush s.shipper))
        in
        List.iter (fun g -> Span.close_span g.g_store) members;
        (* sync mode pays ONE cumulative ack wait for the whole group —
           each member's wait shows up as a Flush_wait span (waiting
           for the covering flush), not as queueing behind its
           predecessors' round trips *)
        let acked =
          (not s.sync) || !last_seq < 0
          ||
          let waits =
            List.map
              (fun g ->
                Span.open_span ~trace:g.g_msg.trace ~parent:g.g_msg.span
                  Span.Flush_wait)
              members
          in
          let acked =
            Replica.Shipper.wait_acked s.shipper ~shard:i ~seq:!last_seq
              ~deadline:s.deadline
          in
          List.iter Span.close_span waits;
          acked
        in
        List.iter2 (reply ~acked) members results
    in
    (* window 1 keeps every request on [handle]'s per-op path *)
    let dispatch m =
      if batched && is_group_member m.Net.payload then begin
        let group, leftover = gather [ m ] 1 (op_bytes m.Net.payload) in
        handle_group group;
        Option.iter handle leftover
      end
      else handle m
    in
    let rec loop () =
      if Sched.now () >= server_end then ()
      else
        match Net.recv net ~port:i with
        | Some m ->
          dispatch m;
          loop ()
        | None ->
          if !senders = 0 && Net.pending net ~port:i = 0 then ()
          else begin
            let until = min server_end (Sched.now () + 100_000) in
            (match Net.recv_wait net ~port:i ~until with
             | Some m -> dispatch m
             | None -> ());
            loop ()
          end
    in
    loop ();
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
  g "offered" (float_of_int !offered);
  g "admitted" (float_of_int !admitted);
  g "shed" (float_of_int !shed);
  g "handled" (float_of_int !handled);
  g "completed" (float_of_int !completed);
  g "acked_mutations" (float_of_int !acked_mut);
  g "reply_drops" (float_of_int !reply_drops);
  g "queue_max_depth" (float_of_int !queue_max_depth);
  g "rto_ns" (float_of_int rto_ns);
  g "txn_committed" (float_of_int !txn_commits);
  g "txn_aborted" (float_of_int !txn_aborts);
  g "ops_read" (float_of_int !n_read);
  g "ops_write" (float_of_int !n_write);
  g "ops_scan" (float_of_int !n_scan);
  g "mvcc_truncated_reads" (float_of_int (Kv.mvcc_truncated_reads svc));
  Array.iteri
    (fun i (chains, versions) ->
      let sscope = Printf.sprintf "%s/shard%d" scope i in
      Obs.Metrics.set_gauge ~scope:sscope "mvcc_chains" (float_of_int chains);
      Obs.Metrics.set_gauge ~scope:sscope "mvcc_chain_versions"
        (float_of_int versions))
    (Kv.mvcc_shard_chains svc);
  (match tch with
   | Some t ->
     let hits, misses, refills, flushes = Tcache.stats t in
     g "tcache_hits" (float_of_int hits);
     g "tcache_misses" (float_of_int misses);
     g "tcache_bin_refills" (float_of_int refills);
     g "tcache_bin_flushes" (float_of_int flushes)
   | None -> ());
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
(* Replicated serving: primary + backup on a two-machine cluster.     *)
(* ------------------------------------------------------------------ *)

type repl_config = {
  repl_mode : Replica.mode;
  wire_ns : int;
  repl_window : int;
  retransmit_ns : int;
  link_drop_pct : int;
  link_dup_pct : int;
}

let default_repl_config =
  { repl_mode = Replica.Sync;
    wire_ns = 20_000;
    repl_window = 64;
    retransmit_ns = 120_000;
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

let run_replicated ~make ?(mcfg = Machine.Config.default) cfg rcfg =
  let name = "Server.run_replicated" in
  validate ~name cfg;
  if rcfg.wire_ns < 1 then invalid_arg (name ^ ": wire_ns < 1");
  let sync = rcfg.repl_mode = Replica.Sync in
  let cluster = Cluster.create ~cfg:mcfg ~machines:2 () in
  let primary = Cluster.machine cluster 0 in
  let backup = Cluster.machine cluster 1 in
  let svc, tch = build cfg (make primary) in
  (* the backup grows chains too (group-installed, like the primary)
     so a promotion can serve snapshots at once — and caches reads the
     same way, its entries invalidated by the replicated applies *)
  let svc_b, tch_b = build cfg (make backup) in

  let link : Replica.msg Cluster.Link.t =
    Cluster.Link.create ~wire_ns:rcfg.wire_ns ~capacity:1024
      ~drop_pct:rcfg.link_drop_pct ~dup_pct:rcfg.link_dup_pct
      ~seed:(cfg.seed lxor 0x5EA) ()
  in
  let repl_cfg =
    { Replica.mode = rcfg.repl_mode;
      window = rcfg.repl_window;
      retransmit_ns = rcfg.retransmit_ns;
      poll_ns = 400 }
  in
  let shipper = Replica.Shipper.create repl_cfg ~shards:cfg.shards ~link in
  let repl_lag_h = Hist.create () in
  let applier =
    Replica.Applier.create repl_cfg ~shards:cfg.shards ~link
      ~ack_batch:(cfg.batch_window > 1)
      ~on_apply:(fun ~lat_ns -> Hist.record repl_lag_h lat_ns)
      ~apply:(fun ~shard op -> Txn.apply_replicated svc_b ~shard op)
      ~apply_group:(fun ~shard ops ->
        Txn.apply_replicated_group svc_b ~shard ops)
  in
  let t_crash, t_stop = timeline cfg in

  let ship_pump_done = ref false in
  let spawn_aux ~servers_done =
    (* primary: the replication pump *)
    let deadline =
      match t_crash with Some c -> c | None -> t_stop + (4 * grace_ns)
    in
    ignore
      (Machine.spawn primary ~cpu:(mcfg.Machine.Config.num_cpus - 1) (fun () ->
           Replica.Shipper.pump shipper ~until:servers_done ~deadline;
           ship_pump_done := true));
    (* backup: the applier.  On a crash run it stops where the
       primary's pump stopped; whatever the wire still holds is the
       tail that the failover replays — and its replay cost is what
       we charge to the promote RTO. *)
    let until =
      match t_crash with
      | Some _ -> fun () -> !ship_pump_done
      | None -> fun () -> !ship_pump_done && Cluster.Link.pending link ~ep:1 = 0
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
  let lstats = Cluster.Link.stats link ~ep:1 in
  let astats = Cluster.Link.stats link ~ep:0 in
  let link_dropped = lstats.Cluster.Link.dropped + astats.Cluster.Link.dropped in
  let link_duplicated =
    lstats.Cluster.Link.duplicated + astats.Cluster.Link.duplicated
  in
  let scope = cfg.scope in
  let g name v = Obs.Metrics.set_gauge ~scope name (float_of_int v) in
  g "repl_shipped" (Replica.Shipper.shipped shipper);
  g "repl_acked_records" acked_records;
  g "repl_retransmits" (Replica.Shipper.retransmits shipper);
  g "repl_max_lag" (Replica.Shipper.max_lag shipper);
  g "repl_backup_applied" (Replica.Applier.applied applier);
  g "repl_link_dropped" link_dropped;
  g "repl_link_duplicated" link_duplicated;
  g "repl_tail_replayed" !tail_replayed;
  g "repl_indoubt_aborted" !indoubt_aborted;
  Hist.merge ~into:(Obs.Metrics.log_histogram ~scope "repl_lag_ns") repl_lag_h;

  { base;
    shipped = Replica.Shipper.shipped shipper;
    acked_records;
    retransmits = Replica.Shipper.retransmits shipper;
    max_lag = Replica.Shipper.max_lag shipper;
    link_dropped;
    link_duplicated;
    link_flushes = lstats.Cluster.Link.flushes + astats.Cluster.Link.flushes;
    backup_applied = Replica.Applier.applied applier;
    tail_replayed = !tail_replayed;
    indoubt_aborted = !indoubt_aborted;
    backup_ledger;
    sync }
