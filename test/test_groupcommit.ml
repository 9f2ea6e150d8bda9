(* Group commit + pipelined persistence: the link's doorbell batching,
   Kv.group_commit's chunked covering-flush semantics, batched shipping
   with cumulative acks, the piggybacked 2PC decide, same-seed serve
   determinism and the window bound, and the windowed loss-bound property —
   a crash mid-batch loses at most the unacked window, never an acked
   op. *)

module Kv = Service.Kv
module S = Service.Server
module R = Replica
module Link = Cluster.Link
module H = Poseidon.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let heap_base = 1 lsl 30

let mk_store ~shards () =
  let cfg =
    { Machine.Config.default with
      Machine.Config.num_cpus = 1;
      numa_domains = 1 }
  in
  let mach = Machine.create ~cfg () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 20) ()
  in
  let inst = Poseidon.instance heap in
  (mach, inst, Kv.create inst ~shards ~value_size:64)

(* the first [n] keys the 2-shard hash partition puts on shard 0 — the
   tests never hardcode the map *)
let shard0_keys n =
  let rec go acc k =
    if List.length acc = n then List.rev acc
    else if Kv.shard_of ~shards:2 k = 0 then go (k :: acc) (k + 1)
    else go acc (k + 1)
  in
  go [] 1

(* ---------- Link: doorbell buffering + framed flush ---------- *)

let test_link_doorbell () =
  let l : int Link.t = Link.create () in
  Link.buffer l ~dst:1 10;
  Link.buffer l ~dst:1 11;
  Link.buffer l ~dst:1 12;
  check_int "staged, not sent" 3 (Link.buffered l ~dst:1);
  check_int "nothing on the wire before the doorbell" 0
    (Link.pending l ~ep:1);
  check "recv sees nothing" true (Link.recv l ~ep:1 = None);
  check_int "flush carries the whole frame" 3 (Link.flush l ~dst:1);
  check_int "buffer drained" 0 (Link.buffered l ~dst:1);
  check_int "frame delivered" 3 (Link.pending l ~ep:1);
  (match Link.recv l ~ep:1 with
   | Some m -> check_int "in-order within the frame" 10 m.Link.payload
   | None -> Alcotest.fail "expected delivery");
  check_int "empty flush is free" 0 (Link.flush l ~dst:1);
  let s = Link.stats l ~ep:1 in
  check_int "one doorbell rung" 1 s.Link.flushes;
  check_int "all records counted sent" 3 s.Link.sent;
  (* faults are frame-granular: a drop loses the whole frame, a dup
     re-delivers it whole — so the fault counters move in multiples of
     the frame size *)
  let lossy : int Link.t =
    Link.create ~capacity:4096 ~drop_pct:30 ~dup_pct:20 ~seed:11 ()
  in
  for f = 1 to 50 do
    for r = 1 to 3 do
      Link.buffer lossy ~dst:1 ((100 * f) + r)
    done;
    ignore (Link.flush lossy ~dst:1)
  done;
  let s = Link.stats lossy ~ep:1 in
  check "frames were dropped" true (s.Link.dropped > 0);
  check "frames were duplicated" true (s.Link.duplicated > 0);
  check_int "drops are whole frames" 0 (s.Link.dropped mod 3);
  check_int "dups are whole frames" 0 (s.Link.duplicated mod 3);
  check_int "queue accounts for every fault"
    (s.Link.sent - s.Link.dropped + s.Link.duplicated)
    (Link.pending lossy ~ep:1)

(* ---------- Kv.group_commit vs the sequential per-op path ---------- *)

let test_group_commit_equivalence () =
  let _, _, a = mk_store ~shards:2 () in
  let _, _, b = mk_store ~shards:2 () in
  let ks = Array.of_list (shard0_keys 12) in
  List.iter
    (fun kv ->
      for i = 0 to 5 do
        assert (Kv.put kv ~key:ks.(i) ~vseed:(100 + i))
      done)
    [ a; b ];
  (* 12 ops > max_txn_ops forces chunking; ks.(0) twice forces an
     early chunk split; ks.(11) is absent so its delete is a no-op;
     delete-then-put of ks.(2) crosses a chunk boundary by key reuse *)
  let plan =
    [ Kv.Tput { key = ks.(0); vseed = 201 };
      Kv.Tput { key = ks.(6); vseed = 202 };
      Kv.Tdel { key = ks.(1) };
      Kv.Tput { key = ks.(0); vseed = 203 };
      Kv.Tdel { key = ks.(11) };
      Kv.Tput { key = ks.(7); vseed = 204 };
      Kv.Tdel { key = ks.(2) };
      Kv.Tput { key = ks.(2); vseed = 205 };
      Kv.Tput { key = ks.(8); vseed = 206 };
      Kv.Tput { key = ks.(9); vseed = 207 };
      Kv.Tdel { key = ks.(3) };
      Kv.Tput { key = ks.(10); vseed = 208 } ]
  in
  let chunks = ref [] in
  let results =
    Kv.group_commit a ~shard:0 plan ~on_chunk:(fun ~fin:_ cops ->
        chunks := cops :: !chunks)
  in
  let expected =
    List.map
      (function
        | Kv.Tput { key; vseed } -> Kv.put b ~key ~vseed
        | Kv.Tdel { key } -> Kv.delete b ~key)
      plan
  in
  check "per-op outcomes match the sequential path" true
    (List.map fst results = expected);
  Array.iter
    (fun k ->
      check "final state matches the sequential path" true
        (Kv.get a ~key:k = Kv.get b ~key:k))
    ks;
  check_int "same key count" (Kv.count_keys b) (Kv.count_keys a);
  Kv.check a;
  (* chunk shape: every chunk within the cap, no duplicate key inside
     one chunk, and only the absent delete stayed out *)
  let shipped = List.concat (List.rev !chunks) in
  check_int "absent delete never enters a chunk"
    (List.length plan - 1)
    (List.length shipped);
  List.iter
    (fun c ->
      check "chunk within max_txn_ops" true
        (List.length c <= Kv.max_txn_ops);
      let keys = List.map (function
          | Kv.Tput { key; _ } | Kv.Tdel { key } -> key)
          c
      in
      check "no duplicate key inside a chunk" true
        (List.length (List.sort_uniq compare keys) = List.length keys))
    (List.rev !chunks);
  check "wrong-shard key refused" true
    (try
       ignore (Kv.group_commit a ~shard:1 [ Kv.Tput { key = ks.(0); vseed = 1 } ]);
       false
     with Invalid_argument _ -> true)

(* group commit survives re-attach like any other transaction: after a
   clean group the store recovers with nothing pending *)
let test_group_commit_recovery () =
  let _, inst, kv = mk_store ~shards:2 () in
  let ks = Array.of_list (shard0_keys 4) in
  let plan =
    [ Kv.Tput { key = ks.(0); vseed = 1 };
      Kv.Tput { key = ks.(1); vseed = 2 };
      Kv.Tput { key = ks.(2); vseed = 3 };
      Kv.Tdel { key = ks.(3) } ]
  in
  ignore (Kv.group_commit kv ~shard:0 plan);
  let kv2, rc = Kv.attach inst in
  check_int "nothing to replay" 0 (rc.Kv.replayed + rc.Kv.rolled_back);
  check_int "no txn slots in flight" 0 (rc.Kv.txn_committed + rc.Kv.txn_aborted);
  Array.iteri
    (fun i k -> check "state survives re-attach" true
        (Kv.get kv2 ~key:k = (if i < 3 then Some (Kv.value_checksum kv2 ~vseed:(i + 1)) else None)))
    ks

(* ---------- batched shipping + cumulative batched acks ---------- *)

let test_batched_ship_cumulative_ack () =
  let cfg = { R.default_config with R.window = 16 } in
  let run ~ack_batch =
    let link : R.msg Link.t = Link.create () in
    let sh = R.Shipper.create cfg ~shards:2 ~link in
    let applied = ref 0 in
    let ap =
      R.Applier.create cfg ~shards:2 ~link ~ack_batch ~apply:(fun ~shard:_ _ ->
          incr applied)
    in
    for k = 1 to 6 do
      ignore
        (R.Shipper.ship_buffered sh ~shard:(k mod 2)
           (R.Put { key = k; vseed = k }))
    done;
    (* no ack can precede the covering flush: nothing is even on the
       wire, so the applier sees nothing and no ack exists *)
    check_int "nothing on the wire before the flush" 0
      (Link.pending link ~ep:R.backup_ep);
    R.Applier.pump ap ~until:(fun () ->
        Link.pending link ~ep:R.backup_ep = 0);
    check_int "nothing applied before the flush" 0 !applied;
    check_int "no ack before the covering flush (shard 0)" (-1)
      (R.Shipper.acked sh ~shard:0);
    check_int "no ack before the covering flush (shard 1)" (-1)
      (R.Shipper.acked sh ~shard:1);
    check_int "doorbell carries every staged record" 6 (R.Shipper.flush sh);
    R.Applier.pump ap ~until:(fun () ->
        Link.pending link ~ep:R.backup_ep = 0);
    check_int "all applied after the flush" 6 !applied;
    check "cumulative ack covers the frame" true
      (R.Shipper.wait_acked sh ~shard:0 ~seq:2 ~deadline:0
      && R.Shipper.wait_acked sh ~shard:1 ~seq:2 ~deadline:0);
    check_int "no unacked residue" 0
      (R.Shipper.lag sh ~shard:0 + R.Shipper.lag sh ~shard:1);
    (Link.stats link ~ep:R.primary_ep).Link.sent
  in
  let acks_batched = run ~ack_batch:true in
  let acks_per_record = run ~ack_batch:false in
  check_int "per-record mode acks every record" 6 acks_per_record;
  check "batched acks: one per touched shard per burst" true
    (acks_batched <= 2);
  check "strictly fewer ack messages" true (acks_batched < acks_per_record)

(* ---------- piggybacked 2PC decide ---------- *)

(* The same transaction plan shipped per-record (prepare, decide each
   on their own wire trip) and doorbell-batched (prepare + decide of
   every participant in ONE frame) must leave bit-identical backup
   stores — the piggybacked decide changes wire economics, never
   outcomes. *)
let test_piggybacked_decide_equivalence () =
  (* two committing transactions + a strict-delete abort *)
  let txn_plan =
    [ [ Kv.Tput { key = 1; vseed = 11 }; Kv.Tput { key = 2; vseed = 12 } ];
      [ Kv.Tdel { key = 1 }; Kv.Tput { key = 3; vseed = 13 } ];
      [ Kv.Tput { key = 4; vseed = 14 }; Kv.Tdel { key = 9999 } ] ]
  in
  let run ~piggyback =
    let _, _, p = mk_store ~shards:2 () in
    let _, _, b = mk_store ~shards:2 () in
    let link : R.msg Link.t = Link.create () in
    let cfg = { R.default_config with R.window = 16 } in
    let sh = R.Shipper.create cfg ~shards:2 ~link in
    let ap =
      R.Applier.create cfg ~shards:2 ~link ~ack_batch:piggyback
        ~apply:(fun ~shard op -> Service.Txn.apply_replicated b ~shard op)
    in
    let committed = ref [] in
    List.iter
      (fun ops ->
        let res =
          Kv.txn p ops ~on_commit:(fun res ->
              let nparts = List.length res.Kv.participants in
              List.iter
                (fun (s, sops) ->
                  let prep = R.Txn_prepare { txn = res.Kv.txn_id; ops = sops }
                  and dec =
                    R.Txn_decide { txn = res.Kv.txn_id; commit = true; nparts }
                  in
                  if piggyback then begin
                    ignore (R.Shipper.ship_buffered sh ~shard:s prep);
                    ignore (R.Shipper.ship_buffered sh ~shard:s dec)
                  end
                  else begin
                    ignore (R.Shipper.ship sh ~shard:s prep);
                    ignore (R.Shipper.ship sh ~shard:s dec)
                  end)
                res.Kv.participants;
              if piggyback then ignore (R.Shipper.flush sh))
        in
        committed := res.Kv.committed :: !committed;
        R.Applier.pump ap ~until:(fun () ->
            Link.pending link ~ep:R.backup_ep = 0))
      txn_plan;
    (b, List.rev !committed, R.Applier.applied ap,
     (Link.stats link ~ep:R.backup_ep).Link.flushes)
  in
  let b1, c1, applied1, _ = run ~piggyback:false in
  let b2, c2, applied2, flushes2 = run ~piggyback:true in
  check "same commit/abort outcomes" true (c1 = c2);
  check_int "same records applied on the backup" applied1 applied2;
  check "committed txns: both paths shipped" true (applied1 > 0);
  check "one doorbell frame per committed transaction" true (flushes2 >= 2);
  for k = 1 to 5 do
    check "backup stores bit-identical" true (Kv.get b1 ~key:k = Kv.get b2 ~key:k)
  done;
  check_int "same backup key count" (Kv.count_keys b1) (Kv.count_keys b2)

(* ---------- serve determinism and the window bound ---------- *)

let serve cfg =
  let factory = Workloads.Factories.poseidon () in
  S.run
    ~make:(fun () -> factory.Workloads.Factories.make ())
    ~reattach:(fun mach ->
      Poseidon.instance
        (Poseidon.Heap.attach mach ~base:Workloads.Factories.heap_base ()))
    cfg

let base_cfg =
  { S.default_config with
    S.shards = 2;
    clients = 8;
    rate = 30_000.;
    duration = 0.005;
    keyspace = 512;
    preload = 256;
    read_pct = 20;
    scope = "test/groupcommit" }

let test_window1_determinism () =
  (* the default window is 1, so both runs have one config: same seed,
     same result, field for field.  Which path window 1 takes is
     checked by test_service's loop table (no flush_wait span). *)
  let r1 = serve { base_cfg with S.scope = "test/groupcommit/w1a" } in
  let r2 =
    serve { base_cfg with S.batch_window = 1; scope = "test/groupcommit/w1b" }
  in
  check "same config, same result" true (r1 = r2);
  (* and a genuinely batched run still serves correctly *)
  let r4 =
    serve { base_cfg with S.batch_window = 4; scope = "test/groupcommit/w4" }
  in
  check "batched run completes traffic" true (r4.S.completed > 0);
  check "batched run acked mutations" true (r4.S.acked_mutations > 0);
  check_int "batched run verifies clean" 0 r4.S.ledger.S.mismatches;
  check "rejects window 0" true
    (try
       ignore (serve { base_cfg with S.batch_window = 0 });
       false
     with Invalid_argument _ -> true)

(* ---------- loss bound under faults, swept across windows ---------- *)

let repl_serve cfg rcfg =
  S.run_replicated
    ~make:(fun mach -> Workloads.Factories.poseidon_on mach)
    cfg rcfg

(* For every batch window: (1) a bounded slice of the exhaustive
   crashcheck fence sweep under the WINDOWED prefix oracle — the
   recovered backup equals a plan prefix within [acked, acked+window];
   (2) a replicated serve run that crashes mid-traffic on a lossy
   (drop + dup) wire — no acked write may be lost, at any window.
   CRASH_SEED reseeds both (Crash_seed). *)
let test_loss_bound_windows () =
  Crash_seed.with_seed ~default:42 @@ fun seed ->
  List.iter
    (fun window ->
      let scn = Crashcheck.scn_kv_batched_put ~window () in
      let r = Crashcheck.run ~max_points:4 ~subsets_per_point:1 ~seed scn in
      check "sweep explored points" true (r.Crashcheck.points_explored >= 4);
      check_int
        (Printf.sprintf "window %d: crash loses at most the unacked batch"
           window)
        0
        (List.length r.Crashcheck.counterexamples);
      let r =
        repl_serve
          { base_cfg with
            S.batch_window = window;
            crash_at = Some 0.5;
            seed;
            scope = Printf.sprintf "test/groupcommit/loss-w%d" window }
          { S.default_repl_config with
            S.link_drop_pct = 10;
            link_dup_pct = 5;
            retransmit_ns = 60_000 }
      in
      check "crashed mid-run" true r.S.base.S.crashed;
      check "ledger checked keys" true (r.S.base.S.ledger.S.checked > 0);
      check_int
        (Printf.sprintf "window %d: no acked op lost under drop/dup" window)
        0 r.S.base.S.ledger.S.mismatches)
    [ 1; 4; 16 ]

(* the seeded ack-before-flush bug must be caught: the mutation gate
   in scripts/check.sh relies on this scenario being flaggable *)
let test_batched_broken_flagged () =
  let scn = Crashcheck.scn_kv_batched_broken () in
  let r = Crashcheck.run ~max_points:6 ~subsets_per_point:1 scn in
  check "checker flags acks ahead of the covering flush" true
    (r.Crashcheck.counterexamples <> [])

let () =
  Alcotest.run "groupcommit"
    [ ( "link",
        [ Alcotest.test_case "doorbell buffer + framed flush" `Quick
            test_link_doorbell ] );
      ( "kv",
        [ Alcotest.test_case "group vs sequential equivalence" `Quick
            test_group_commit_equivalence;
          Alcotest.test_case "group survives re-attach" `Quick
            test_group_commit_recovery ] );
      ( "replica",
        [ Alcotest.test_case "batched ship + cumulative ack" `Quick
            test_batched_ship_cumulative_ack;
          Alcotest.test_case "piggybacked decide equivalence" `Quick
            test_piggybacked_decide_equivalence ] );
      ( "server",
        [ Alcotest.test_case "same config, same result" `Quick
            test_window1_determinism ] );
      ( "loss-bound",
        [ Alcotest.test_case "windows {1,4,16} under drop/dup" `Quick
            test_loss_bound_windows;
          Alcotest.test_case "ack-before-flush bug flagged" `Quick
            test_batched_broken_flagged ] ) ]
