(* Replication subsystem: two machines on one engine and the faulty
   link between them, the seq-numbered shipper/applier protocol, and
   the replicated server — async lag bounds, sync ack ordering,
   failover with zero acked-write loss, and loss recovery on a lossy
   wire. *)

module S = Service.Server
module R = Replica

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Net: loadgen, latency model, fault injection ---------- *)

let test_loadgen_determinism () =
  let gaps seed =
    let lg = Net.Loadgen.create ~rate:50_000. ~seed in
    List.init 256 (fun _ -> Net.Loadgen.next_gap_ns lg)
  in
  check "same seed, same gap sequence" true (gaps 7 = gaps 7);
  check "different seed, different sequence" true (gaps 7 <> gaps 8);
  check "rate must be positive" true
    (try
       ignore (Net.Loadgen.create ~rate:0. ~seed:1);
       false
     with Invalid_argument _ -> true)

(* The latency model, pinned on the default two-node machine: 1500 ns
   inside a node, [remote_numa_mult] times that across nodes, a fixed
   [wire_ns] on a link.  The client network stamps a message once the
   sender's 300 ns charge is paid; a link stamps it when the send
   begins. *)
let test_net_latency_model () =
  let mach = Machine.create () in
  let cfg = Machine.cfg mach in
  let near = 1 and far = cfg.Machine.Config.num_cpus - 1 in
  let numa = Machine.Config.cpu_numa cfg in
  check "cpu 1 shares cpu 0's node" true (numa near = numa 0);
  check "the last cpu is on the other node" true (numa far <> numa 0);
  let net : int Net.t = Net.create mach ~ports:[| (near, 8); (far, 8) |] () in
  let wire : int Net.t =
    Net.create ~wire_ns:20_000 mach ~ports:[| (far, 8) |] ()
  in
  (* the sender's clock before each send, and after the last *)
  let began = Array.make 4 0 in
  ignore
    (Machine.parallel mach ~threads:1 (fun _ ->
         Simcore.Sched.sleep 100;
         began.(0) <- Simcore.Sched.now ();
         ignore (Net.try_send net ~dst:0 0);
         began.(1) <- Simcore.Sched.now ();
         ignore (Net.try_send net ~dst:1 1);
         began.(2) <- Simcore.Sched.now ();
         ignore (Net.try_send wire ~dst:0 2);
         began.(3) <- Simcore.Sched.now ()));
  let take n port =
    match Net.recv n ~port with
    | Some m -> m
    | None -> Alcotest.fail "expected a message"
  in
  let local = take net 0 and remote = take net 1 and linked = take wire 0 in
  let remote_ns =
    int_of_float (1500. *. cfg.Machine.Config.remote_numa_mult)
  in
  let flight m = m.Net.delivered_at - m.Net.sent_at in
  check_int "same node: 1500 ns" 1500 (flight local);
  check_int "across nodes: 1500 x remote_numa_mult" remote_ns (flight remote);
  check_int "link: wire_ns" 20_000 (flight linked);
  check_int "net: stamped after the 300 ns send charge" (began.(0) + 300)
    local.Net.sent_at;
  check_int "net: the same across nodes" (began.(1) + 300) remote.Net.sent_at;
  check_int "link: stamped when the send began" began.(2) linked.Net.sent_at;
  check_int "link: the sender still pays 300 ns" (began.(2) + 300) began.(3)

let test_net_fault_injection () =
  let mach = Machine.create () in
  (* clean net: the fault counters stay zero and nothing is lost *)
  let clean : int Net.t = Net.create mach ~ports:[| (0, 1024) |] () in
  for i = 1 to 100 do
    check "clean send accepted" true (Net.try_send clean ~dst:0 i)
  done;
  let s = Net.stats clean ~port:0 in
  check_int "clean: all enqueued" 100 s.Net.enqueued;
  check_int "clean: none dropped" 0 s.Net.dropped;
  check_int "clean: none duplicated" 0 s.Net.duplicated;
  check_int "clean: all pending" 100 (Net.pending clean ~port:0);
  (* lossy net: drops and duplicates both occur, are counted, and the
     queue holds exactly enqueued - dropped + duplicated messages *)
  let lossy : int Net.t =
    Net.create mach ~ports:[| (0, 4096) |] ~drop_pct:30 ~dup_pct:20
      ~seed:99 ()
  in
  for i = 1 to 1000 do
    check "lossy send still reports true" true (Net.try_send lossy ~dst:0 i)
  done;
  let s = Net.stats lossy ~port:0 in
  check "some messages dropped" true (s.Net.dropped > 0);
  check "some messages duplicated" true (s.Net.duplicated > 0);
  check_int "queue accounts for every fault"
    (s.Net.enqueued - s.Net.dropped + s.Net.duplicated)
    (Net.pending lossy ~port:0);
  (* seeded: the same seed reproduces the exact fault pattern *)
  let replay : int Net.t =
    Net.create mach ~ports:[| (0, 4096) |] ~drop_pct:30 ~dup_pct:20
      ~seed:99 ()
  in
  for i = 1 to 1000 do
    ignore (Net.try_send replay ~dst:0 i)
  done;
  let s' = Net.stats replay ~port:0 in
  check_int "same seed, same drops" s.Net.dropped s'.Net.dropped;
  check_int "same seed, same dups" s.Net.duplicated s'.Net.duplicated;
  check "drop_pct = 100 refused" true
    (try
       ignore (Net.create mach ~ports:[| (0, 8) |] ~drop_pct:100 ()
               : int Net.t);
       false
     with Invalid_argument _ -> true)

(* ---------- two machines, one engine ---------- *)

let test_cluster_shared_engine () =
  let engine = Simcore.Sched.create () in
  let m0 = Machine.create ~engine () and m1 = Machine.create ~engine () in
  check "machines share the engine" true
    (Machine.engine m0 == Machine.engine m1);
  let order = ref [] in
  ignore
    (Machine.spawn m0 ~cpu:0 (fun () ->
         Simcore.Sched.sleep 100;
         order := `A :: !order;
         Simcore.Sched.sleep 400;
         order := `C :: !order));
  ignore
    (Machine.spawn m1 ~cpu:0 (fun () ->
         Simcore.Sched.sleep 300;
         order := `B :: !order));
  Simcore.Sched.run engine;
  (* threads of the two machines interleave on one timeline *)
  check "cross-machine interleaving by simulated time" true
    (List.rev !order = [ `A; `B; `C ]);
  check "shared horizon covers both machines" true
    (Simcore.Sched.horizon engine >= 500);
  check "but devices are distinct" true (Machine.dev m0 != Machine.dev m1)

(* A two-port link between machines, as the replicated server builds. *)
let link ?wire_ns ?dup_pct ?seed ?(capacity = 256) mach =
  Net.create ?wire_ns ?dup_pct ?seed mach
    ~ports:[| (0, capacity); (0, capacity) |] ()

let test_link_basics () =
  let l : int Net.t = link ~capacity:4 ~wire_ns:20_000 (Machine.create ()) in
  (* outside the simulation: zero latency, immediate delivery *)
  check "send" true (Net.try_send l ~dst:1 10);
  check "send" true (Net.try_send l ~dst:1 11);
  check_int "pending toward 1" 2 (Net.pending l ~port:1);
  check_int "nothing toward 0" 0 (Net.pending l ~port:0);
  (match Net.recv l ~port:1 with
   | Some m -> check_int "FIFO head" 10 m.Net.payload
   | None -> Alcotest.fail "expected delivery");
  (* acks flow the other way on the same link *)
  check "reverse direction" true (Net.try_send l ~dst:0 99);
  check "reverse delivery" true (Net.recv l ~port:0 <> None);
  (* bounded: the 5th message toward a capacity-4 port is refused *)
  for i = 1 to 3 do
    ignore (Net.try_send l ~dst:1 i)
  done;
  check "full port refuses" false (Net.try_send l ~dst:1 5);
  let s = Net.stats l ~port:1 in
  check_int "rejection counted" 1 s.Net.rejected;
  check "in-simulation delivery respects wire latency" true
    (let engine = Simcore.Sched.create () in
     let m0 = Machine.create ~engine () and m1 = Machine.create ~engine () in
     let l : int Net.t = link ~wire_ns:20_000 m0 in
     let saw_early = ref false and saw_late = ref false in
     ignore
       (Machine.spawn m0 ~cpu:0 (fun () -> ignore (Net.try_send l ~dst:1 42)));
     ignore
       (Machine.spawn m1 ~cpu:0 (fun () ->
            Simcore.Sched.sleep 1_000;
            saw_early := Net.recv l ~port:1 <> None;
            Simcore.Sched.sleep 40_000;
            saw_late := Net.recv l ~port:1 <> None));
     Simcore.Sched.run engine;
     (not !saw_early) && !saw_late)

(* ---------- shipper/applier protocol, driven by hand ---------- *)

let test_protocol_dedup_and_ack () =
  let link : R.msg Net.t = link ~dup_pct:50 ~seed:3 (Machine.create ()) in
  let sh = R.Shipper.create ~window:8 ~shards:2 ~link in
  let applied = ref [] in
  let ap =
    R.Applier.create link ~shards:2
      ~apply:(fun ~shard op -> applied := (shard, op) :: !applied)
      ~held:(fun ~shard:_ -> false)
  in
  for k = 1 to 6 do
    let shard = k mod 2 in
    ignore (R.Shipper.ship sh ~shard (R.Put { key = k; vseed = k }));
    (* one wire trip per record: each frame of one rolls its own dup *)
    ignore (R.Shipper.flush sh)
  done;
  (* the link duplicates aggressively; the applier must apply each
     record exactly once and keep per-shard sequence order *)
  R.Applier.pump ap ~until:(fun () -> Net.pending link ~port:1 = 0);
  check_int "each record applied exactly once" 6 (R.Applier.applied ap);
  check_int "shard 0 expects next seq" 3 (R.Applier.expected ap ~shard:0);
  check_int "shard 1 expects next seq" 3 (R.Applier.expected ap ~shard:1);
  (* cumulative acks release the shipper's window *)
  R.Shipper.poll_acks sh;
  check_int "shard 0 fully acked" 2 (R.Shipper.acked sh ~shard:0);
  check_int "shard 1 fully acked" 2 (R.Shipper.acked sh ~shard:1);
  check_int "no unacked residue" 0
    (R.Shipper.lag sh ~shard:0 + R.Shipper.lag sh ~shard:1)

(* The retransmit timer, on one shard shipping [records] records one
   every [gap] ns to a backup whose apply takes [apply_ns].  With
   [lose_first] the wire loses the first copy of the first record.
   Returns that record's first send, the send time of the first record
   the backup applies, and the shipper's retransmit count. *)
let retransmit_run ~gap ~apply_ns ~lose_first =
  let engine = Simcore.Sched.create () in
  let primary = Machine.create ~engine () and backup = Machine.create ~engine () in
  let link : R.msg Net.t = link ~wire_ns:20_000 primary in
  let sh = R.Shipper.create ~window:64 ~shards:1 ~link in
  let records = 12 in
  let deadline = 12 * R.retransmit_ns in
  let shipping = ref true in
  let first_sent = ref (-1) and applied_sent = ref (-1) in
  let ap =
    R.Applier.create link ~shards:1
      ~on_apply:(fun ~lat_ns ->
        if !applied_sent < 0 then applied_sent := Simcore.Sched.now () - lat_ns)
      ~apply:(fun ~shard:_ _ -> Simcore.Sched.sleep apply_ns)
      ~held:(fun ~shard:_ -> false)
  in
  ignore
    (Machine.spawn primary ~cpu:0 (fun () ->
         for k = 1 to records do
           ignore (R.Shipper.ship sh ~shard:0 (R.Put { key = k; vseed = k }));
           ignore (R.Shipper.flush sh);
           Simcore.Sched.sleep gap
         done;
         shipping := false));
  ignore
    (Machine.spawn primary ~cpu:1 (fun () ->
         R.Shipper.pump sh ~until:(fun () -> not !shipping) ~deadline));
  ignore
    (Machine.spawn backup ~cpu:0 (fun () ->
         let rec drop_one () =
           match Net.recv link ~port:R.backup_ep with
           | Some m -> first_sent := m.Net.sent_at
           | None ->
             Simcore.Sched.sleep R.poll_ns;
             drop_one ()
         in
         if lose_first then drop_one ();
         R.Applier.pump ap ~until:(fun () -> Simcore.Sched.now () >= deadline)));
  Simcore.Sched.run engine;
  check_int "every record applied in the end" records (R.Applier.applied ap);
  (!first_sent, !applied_sent, R.Shipper.retransmits sh)

(* A shard's retransmit timer runs from its oldest unacked record's
   last send or resend, or from the last ack that covered new records,
   whichever is later — not from the shard's last ship.  A shard that
   ships every [retransmit_ns / 2] never goes quiet for a whole
   timeout, yet its lost first record must be resent within one
   timeout plus one poll quantum of its first send.  And a backup that
   loses nothing but needs 50 µs per apply keeps its acks advancing
   while records wait far longer than a timeout for theirs: it must
   draw no resend. *)
let test_retransmit_timer () =
  let rto = R.retransmit_ns and poll = R.poll_ns in
  let first_sent, resent, _ =
    retransmit_run ~gap:(rto / 2) ~apply_ns:0 ~lose_first:true
  in
  check "the lost record was resent and applied" true
    (first_sent >= 0 && resent > first_sent);
  check
    (Printf.sprintf "resent %d ns after its first send, within %d + %d"
       (resent - first_sent) rto poll)
    true
    (resent - first_sent <= rto + poll);
  let _, _, retransmits =
    retransmit_run ~gap:10_000 ~apply_ns:50_000 ~lose_first:false
  in
  check_int "a slow backup whose acks advance draws no resend" 0 retransmits

(* ---------- replicated server runs ---------- *)

let repl_serve cfg rcfg =
  S.run_replicated
    ~make:(fun mach -> Workloads.Factories.poseidon_on mach)
    cfg rcfg

let base_cfg =
  { S.default_config with
    S.shards = 2;
    clients = 8;
    rate = 30_000.;
    duration = 0.005;
    keyspace = 512;
    preload = 256;
    scope = "test/replica" }

let test_async_lag_bound () =
  let r =
    repl_serve
      { base_cfg with S.scope = "test/replica/async" }
      { S.default_repl_config with
        S.repl_mode = R.Async;
        repl_window = 4 }
  in
  check "mutations were shipped" true (r.S.shipped > 0);
  check "lag observed" true (r.S.max_lag > 0);
  check "async lag bounded by the window" true (r.S.max_lag <= 4);
  check "clean run converged: everything acked" true
    (r.S.acked_records >= r.S.shipped);
  (match r.S.backup_ledger with
   | Some l -> check_int "backup reproduces every acked write" 0 l.S.mismatches
   | None -> Alcotest.fail "clean run must report the backup ledger");
  check_int "no retransmits on a clean link" 0 r.S.retransmits

let test_sync_ack_ordering () =
  let mut_cfg =
    { base_cfg with
      S.rate = 15_000.;
      read_pct = 0;
      scan_pct = 0;
      delete_pct = 10 }
  in
  let sync_r =
    repl_serve
      { mut_cfg with S.scope = "test/replica/sync" }
      S.default_repl_config
  in
  check "sync mode" true sync_r.S.sync;
  check "completions" true (sync_r.S.base.S.completed > 0);
  (* no reply ever precedes its backup ack: on a clean run every
     shipped record is acked and the backup matches the ledger *)
  check "all shipped records acked" true
    (sync_r.S.acked_records >= sync_r.S.shipped);
  (match sync_r.S.backup_ledger with
   | Some l ->
     check "backup checked" true (l.S.checked > 0);
     check_int "sync: backup holds every acked write" 0 l.S.mismatches
   | None -> Alcotest.fail "clean run must report the backup ledger");
  (* the sync latency tax is visible against an identical async run *)
  let async_r =
    repl_serve
      { mut_cfg with S.scope = "test/replica/sync-vs-async" }
      { S.default_repl_config with S.repl_mode = R.Async }
  in
  check "sync pays the round trip on the median mutation" true
    (sync_r.S.base.S.latency.S.p50 > async_r.S.base.S.latency.S.p50);
  check "async keeps lag within the default window" true
    (async_r.S.max_lag <= S.default_repl_config.S.repl_window)

(* The second input stretches the wire to 500 µs, so replies park
   across the crash cut for a long while: a reply sent before its
   covering ack then names a write the promoted backup never got.  On
   the default wire an early reply almost never falls inside the cut. *)
let test_failover_ledger () =
  List.iter
    (fun (name, cfg, rcfg) ->
      let r = repl_serve { cfg with S.crash_at = Some 0.5; scope = name } rcfg in
      check (name ^ ": crashed") true r.S.base.S.crashed;
      check (name ^ ": promote RTO is nonzero simulated time") true
        (r.S.base.S.rto_ns > 0);
      check (name ^ ": ledger checked keys") true
        (r.S.base.S.ledger.S.checked > 0);
      check_int (name ^ ": sync failover: no acked write lost") 0
        r.S.base.S.ledger.S.mismatches;
      check (name ^ ": backup applied records") true (r.S.backup_applied > 0))
    [ ("test/replica/failover", base_cfg, S.default_repl_config);
      ( "test/replica/failover-long-wire",
        { S.default_config with S.shards = 2; clients = 8; rate = 30_000.;
          duration = 0.005 },
        { S.default_repl_config with S.wire_ns = 500_000 } ) ]

(* A get that reaches its shard while a put there is unacked may
   return that put's value, so its sync reply must wait for the put's
   ack.  One shard, puts and gets only, a 200 µs wire: from the span
   trees, every get's reply leaves after the ack of every put shipped
   before the get was handled. *)
let test_sync_get_waits_for_put_ack () =
  Obs.Span.clear ();
  Obs.Span.start ();
  let r =
    repl_serve
      { base_cfg with
        S.shards = 1;
        clients = 1;
        rate = 2_000.;
        duration = 0.04;
        read_pct = 50;
        delete_pct = 0;
        scan_pct = 0;
        scope = "test/replica/get-after-ack" }
      { S.default_repl_config with S.wire_ns = 200_000 }
  in
  (* per trace: record shipped, its ack back, handling start, reply sent *)
  let ship = Hashtbl.create 64 and ack = Hashtbl.create 64 in
  let start = Hashtbl.create 64 and sent = Hashtbl.create 64 in
  Obs.Span.iter (fun ~id:_ ~trace ~parent:_ ~stage ~t0 ~t1 ~mach:_ ~tid:_ ->
      match stage with
      | Obs.Span.Repl_wire -> Hashtbl.replace ship trace t0
      | Obs.Span.Ack_wire -> Hashtbl.replace ack trace t1
      | Obs.Span.Decode -> Hashtbl.replace start trace t0
      | Obs.Span.Rep_wire -> Hashtbl.replace sent trace t0
      | _ -> ());
  Obs.Span.clear ();
  check "clean run" false r.S.base.S.crashed;
  let overlapped = ref 0 and early = ref 0 in
  Hashtbl.iter
    (fun g g_start ->
      match Hashtbl.find_opt sent g with
      | Some g_sent when not (Hashtbl.mem ship g) ->
        Hashtbl.iter
          (fun p p_ship ->
            let p_ack = Hashtbl.find ack p in
            if p_ship < g_start && p_ack > g_start then begin
              incr overlapped;
              if g_sent < p_ack then incr early
            end)
          ship
      | _ -> ())
    start;
  check "some get reached its shard with a put unacked" true (!overlapped > 0);
  check_int "no get answered before the ack of a put it could see" 0 !early

(* The second input mixes in cross-shard transactions, at windows 1
   and 4: loss then delivers one participant's stream ahead of
   another's, so the backup must hold a shard behind a transaction
   whose other decide is still being retransmitted — through the
   per-record applier at window 1 and the batched one at window 4. *)
let test_lossy_link_retry () =
  let lossy = { base_cfg with S.rate = 15_000.; scope = "test/replica/lossy" } in
  List.iter
    (fun (name, cfg) ->
      let r =
        repl_serve cfg
          { S.default_repl_config with
            S.link_drop_pct = 20;
            link_dup_pct = 10 }
      in
      check (name ^ ": wire lost messages") true (r.S.link_dropped > 0);
      check (name ^ ": go-back-N retransmitted") true (r.S.retransmits > 0);
      check (name ^ ": still converged: everything acked") true
        (r.S.acked_records >= r.S.shipped);
      match r.S.backup_ledger with
      | Some l ->
        check_int (name ^ ": loss recovery: no acked write lost") 0
          l.S.mismatches
      | None -> Alcotest.fail "clean run must report the backup ledger")
    (("plain", lossy)
    :: List.map
         (fun w ->
           ( Printf.sprintf "txn w%d" w,
             { lossy with
               S.txn_pct = 20;
               batch_window = w;
               scope = Printf.sprintf "test/replica/lossy-txn-w%d" w } ))
         [ 1; 4 ])

(* Bounded slice of the exhaustive fence sweep (bin/main.exe crashcheck
   runs it in full): crash the whole two-machine cluster at strided
   points of the ship → backup-persist → ack pipeline and demand every
   sync-acked write be readable on the recovered backup. *)
let test_crashcheck_replicated_sweep () =
  let scn = Option.get (Crashcheck.scenario_by_name "kv-replicated-put") in
  let r = Crashcheck.run ~max_points:6 ~subsets_per_point:1 scn in
  check "sweep covers both machines' fences" true
    (r.Crashcheck.fences_total > 0);
  check "sweeps the strided points" true (r.Crashcheck.points_explored >= 6);
  check_int "no acked write lost at any crash point" 0
    (List.length r.Crashcheck.counterexamples)

let () =
  Alcotest.run "replica"
    [ ( "net",
        [ Alcotest.test_case "loadgen: same seed, same gaps" `Quick
            test_loadgen_determinism;
          Alcotest.test_case "latency model: NUMA, wire, stamp order" `Quick
            test_net_latency_model;
          Alcotest.test_case "fault injection: seeded drop/dup" `Quick
            test_net_fault_injection ] );
      ( "cluster",
        [ Alcotest.test_case "two machines, one timeline" `Quick
            test_cluster_shared_engine;
          Alcotest.test_case "link: FIFO, bounded, wire latency" `Quick
            test_link_basics ] );
      ( "protocol",
        [ Alcotest.test_case "retransmit timer: lost vs slow" `Quick
            test_retransmit_timer;
          Alcotest.test_case "dedup + cumulative ack" `Quick
            test_protocol_dedup_and_ack ] );
      ( "server",
        [ Alcotest.test_case "async: lag bounded by window" `Quick
            test_async_lag_bound;
          Alcotest.test_case "sync: ack ordering + latency tax" `Quick
            test_sync_ack_ordering;
          Alcotest.test_case "failover: acked writes survive" `Quick
            test_failover_ledger;
          Alcotest.test_case "sync: a get waits for the ack of a put it saw"
            `Quick test_sync_get_waits_for_put_ack;
          Alcotest.test_case "lossy link: retransmit to convergence" `Quick
            test_lossy_link_retry ] );
      ( "crashcheck",
        [ Alcotest.test_case "cluster crash sweep: acked survives" `Quick
            test_crashcheck_replicated_sweep ] ) ]
