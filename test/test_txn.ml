(* Cross-shard atomic transactions: 2PC on the shards' own slots and
   decided words (DESIGN §10) — commit/abort atomicity across shards,
   disjoint transactions committing in parallel, in-doubt resolution
   on re-attach, promotion-time resolution and deferred group apply on
   a backup, plus a bounded crashcheck sweep of the protocol and the
   seeded-mutation sanity gate. *)

module Kv = Service.Kv
module H = Poseidon.Heap
module Memdev = Nvmm.Memdev

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let heap_base = 1 lsl 30

let mk_store ?(cpus = 1) ~shards () =
  let cfg =
    { Machine.Config.default with
      Machine.Config.num_cpus = cpus;
      numa_domains = 1 }
  in
  let mach = Machine.create ~cfg () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 20) ()
  in
  let inst = Poseidon.instance heap in
  (mach, inst, Kv.create inst ~shards ~value_size:64)

let cksum kv vseed = Some (Kv.value_checksum kv ~vseed)

(* Two keys guaranteed to live on different shards (hash partition is
   stable, but the tests never hardcode the map). *)
let cross_shard_keys kv =
  let k1 = 1 in
  let s1 = Kv.shard_of_key kv k1 in
  let k2 = ref 2 in
  while Kv.shard_of_key kv !k2 = s1 do
    incr k2
  done;
  (k1, !k2)

(* ---------- commit / abort semantics ---------- *)

let test_commit_across_shards () =
  let _, _, kv = mk_store ~shards:4 () in
  let ka, kb = cross_shard_keys kv in
  check "preload" true (Kv.put kv ~key:kb ~vseed:7);
  let r = Kv.txn kv [ Tput { key = ka; vseed = 100 }; Tdel { key = kb } ] in
  check "committed" true r.Kv.committed;
  check "no abort reason" true (r.Kv.abort = None);
  check "txn id claimed" true (r.Kv.txn_id > 0);
  check_int "two participant shards" 2 (List.length r.Kv.participants);
  check "put visible" true (Kv.get kv ~key:ka = cksum kv 100);
  check "delete visible" true (Kv.get kv ~key:kb = None);
  Kv.check kv

let test_abort_leaves_no_trace () =
  let _, inst, kv = mk_store ~shards:2 () in
  check "preload" true (Kv.put kv ~key:3 ~vseed:30);
  (* strict delete of an absent key aborts the whole transaction *)
  let r = Kv.txn kv [ Tput { key = 3; vseed = 31 }; Tdel { key = 9999 } ] in
  check "aborted" false r.Kv.committed;
  check "absent-key reason" true (r.Kv.abort = Some (Txn_absent_key 9999));
  check "put rolled back with it" true (Kv.get kv ~key:3 = cksum kv 30);
  (* static validation aborts *)
  check "empty aborts" true ((Kv.txn kv []).Kv.abort = Some Txn_empty);
  check "duplicate key aborts" true
    ((Kv.txn kv [ Tput { key = 5; vseed = 1 }; Tdel { key = 5 } ]).Kv.abort
    = Some Txn_duplicate_key);
  (* 17 distinct keys over 2 shards put > max_txn_ops (8) on one *)
  let big =
    List.init 17 (fun i -> Kv.Tput { key = 100 + i; vseed = i })
  in
  check "per-shard op cap aborts" true
    ((Kv.txn kv big).Kv.abort = Some Txn_too_many_ops);
  (* aborts left nothing durable: clean re-attach, nothing to resolve *)
  let kv2, rc = Kv.attach inst in
  check_int "no slots to resolve" 0 (rc.Kv.replayed + rc.Kv.rolled_back);
  check "state intact" true (Kv.get kv2 ~key:3 = cksum kv2 30)

(* ---------- crash recovery: the lowest participant's decided word is
   the commit point ---------- *)

let test_indoubt_prepare_aborts_on_attach () =
  let mach, inst, kv = mk_store ~shards:4 () in
  let ka, kb = cross_shard_keys kv in
  check "preload" true (Kv.put kv ~key:kb ~vseed:7);
  (* phase 1 persisted, no decided word names it: in doubt *)
  (match Kv.txn_prepare kv [ Tput { key = ka; vseed = 50 }; Tdel { key = kb } ]
   with
  | Ok p -> check "prepare claimed an id" true (p.Kv.txn > 0)
  | Error _ -> Alcotest.fail "prepare refused");
  Memdev.crash (Machine.dev mach) `Strict;
  ignore (H.attach mach ~base:heap_base ());
  let kv2, rc = Kv.attach inst in
  check_int "both participants presumed aborted" 2 rc.Kv.rolled_back;
  check_int "none redone" 0 rc.Kv.replayed;
  check "put never surfaced" true (Kv.get kv2 ~key:ka = None);
  check "delete never surfaced" true (Kv.get kv2 ~key:kb = cksum kv2 7);
  Kv.check kv2

let test_decided_txn_redone_on_attach () =
  let mach, inst, kv = mk_store ~shards:4 () in
  let ka, kb = cross_shard_keys kv in
  check "preload" true (Kv.put kv ~key:kb ~vseed:7);
  let p =
    match
      Kv.txn_prepare kv [ Tput { key = ka; vseed = 50 }; Tdel { key = kb } ]
    with
    | Ok p -> p
    | Error _ -> Alcotest.fail "prepare refused"
  in
  (* decided word persisted = committed, even though apply never ran *)
  ignore (Kv.txn_decide kv p);
  Memdev.crash (Machine.dev mach) `Strict;
  ignore (H.attach mach ~base:heap_base ());
  let kv2, rc = Kv.attach inst in
  check_int "both participants redone" 2 rc.Kv.replayed;
  check_int "none aborted" 0 rc.Kv.rolled_back;
  check "put surfaced" true (Kv.get kv2 ~key:ka = cksum kv2 50);
  check "delete surfaced" true (Kv.get kv2 ~key:kb = None);
  Kv.check kv2

(* ---------- no store-wide serialization point ---------- *)

(* The [n]th key (from 0) that hashes to [shard]. *)
let key_on kv shard n =
  let rec go k n =
    if Kv.shard_of_key kv k <> shard then go (k + 1) n
    else if n = 0 then k
    else go (k + 1) (n - 1)
  in
  go 1 n

(* Two transactions over disjoint participant shards, one per CPU: each
   commits on its own lowest participant's decided word and holds only
   its own participants' locks, so both must be inside their
   decide→apply windows — from the commit point ([fin]) to the end of
   the apply, where [on_commit] runs — at the same time. *)
let test_disjoint_txns_overlap () =
  let mach, _, kv = mk_store ~cpus:2 ~shards:4 () in
  let ops =
    [| [ Kv.Tput { key = key_on kv 0 0; vseed = 1 };
         Kv.Tput { key = key_on kv 1 0; vseed = 2 } ];
       [ Kv.Tput { key = key_on kv 2 0; vseed = 3 };
         Kv.Tput { key = key_on kv 3 0; vseed = 4 } ] |]
  in
  (* a first put per CPU creates its sub-heap, so the two transactions
     below start from the same footing *)
  ignore
    (Machine.parallel mach ~threads:2 (fun i ->
         check "warm-up put" true (Kv.put kv ~key:(key_on kv (2 * i) 1) ~vseed:i)));
  let windows = Array.make 2 (0, 0) in
  ignore
    (Machine.parallel mach ~threads:2 (fun i ->
         let r =
           Kv.txn kv ops.(i) ~on_commit:(fun r ->
               windows.(i) <- (r.Kv.fin, Simcore.Sched.now ()))
         in
         check "committed" true r.Kv.committed));
  let (f0, e0), (f1, e1) = (windows.(0), windows.(1)) in
  check "each window is open" true (f0 > 0 && f0 < e0 && f1 > 0 && f1 < e1);
  check "both decide-apply windows open at once" true (max f0 f1 < min e0 e1);
  Array.iter
    (List.iter (function
      | Kv.Tput { key; vseed } ->
        check "committed value visible" true (Kv.get kv ~key = cksum kv vseed)
      | Kv.Tdel _ -> ()))
    ops;
  Kv.check kv

(* ---------- backup-side protocol ---------- *)

let test_promotion_resolves_indoubt () =
  let _, _, kv = mk_store ~shards:4 () in
  let ka, kb = cross_shard_keys kv in
  check "preload" true (Kv.put kv ~key:kb ~vseed:7);
  (* a prepare whose decide died with the primary *)
  Kv.txn_backup_prepare kv ~txn:9 ~shard:(Kv.shard_of_key kv ka)
    ~ops:[ Tput { key = ka; vseed = 60 } ];
  Kv.txn_backup_prepare kv ~txn:9 ~shard:(Kv.shard_of_key kv kb)
    ~ops:[ Tdel { key = kb } ];
  check_int "promotion presumed-aborts both slots" 2
    (Kv.txn_resolve_indoubt kv);
  check_int "idempotent once resolved" 0 (Kv.txn_resolve_indoubt kv);
  check "put never surfaced" true (Kv.get kv ~key:ka = None);
  check "delete never surfaced" true (Kv.get kv ~key:kb = cksum kv 7);
  Kv.check kv

let test_backup_defers_group_apply () =
  let _, _, kv = mk_store ~shards:4 () in
  let ka, kb = cross_shard_keys kv in
  let sa = Kv.shard_of_key kv ka and sb = Kv.shard_of_key kv kb in
  check "preload" true (Kv.put kv ~key:kb ~vseed:7);
  Kv.txn_backup_prepare kv ~txn:4 ~shard:sa ~ops:[ Tput { key = ka; vseed = 61 } ];
  Kv.txn_backup_prepare kv ~txn:4 ~shard:sb ~ops:[ Tdel { key = kb } ];
  (* first of two decides: publication must be deferred — applying this
     slice alone would let a crash surface half the transaction *)
  Kv.txn_backup_decide kv ~txn:4 ~shard:sa ~nparts:2;
  check "nothing published after 1/2 decides" true (Kv.get kv ~key:ka = None);
  check "other slice untouched too" true (Kv.get kv ~key:kb = cksum kv 7);
  (* last decide publishes the whole group atomically *)
  Kv.txn_backup_decide kv ~txn:4 ~shard:sb ~nparts:2;
  check "put published" true (Kv.get kv ~key:ka = cksum kv 61);
  check "delete published" true (Kv.get kv ~key:kb = None);
  check_int "no slots left in doubt" 0 (Kv.txn_resolve_indoubt kv);
  (* duplicate decide after resolution is a no-op *)
  Kv.txn_backup_decide kv ~txn:4 ~shard:sb ~nparts:2;
  check "duplicate decide tolerated" true (Kv.get kv ~key:ka = cksum kv 61);
  Kv.check kv

(* ---------- crashcheck: protocol sweep + mutation sanity ---------- *)

let test_crashcheck_txn_sweep () =
  let scn = Option.get (Crashcheck.scenario_by_name "kv-txn") in
  let r = Crashcheck.run ~max_points:8 ~subsets_per_point:1 scn in
  check "sweeps points" true (r.Crashcheck.points_explored >= 8);
  check_int "transactions stay atomic at every crash point" 0
    (List.length r.Crashcheck.counterexamples)

let test_crashcheck_flags_unflushed_decision () =
  (* the same sweep against transactions applied with no decide MUST
     find a counterexample, or the checker cannot see the commit
     point *)
  let scn = Option.get (Crashcheck.scenario_by_name "kv-txn-broken") in
  let r = Crashcheck.run scn in
  check "seeded 2PC bug detected" true
    (List.length r.Crashcheck.counterexamples > 0)

let () =
  Alcotest.run "txn"
    [ ( "atomicity",
        [ Alcotest.test_case "commit spans shards atomically" `Quick
            test_commit_across_shards;
          Alcotest.test_case "aborts leave no durable trace" `Quick
            test_abort_leaves_no_trace ] );
      ( "parallelism",
        [ Alcotest.test_case "disjoint txns overlap decide-apply"
            `Quick test_disjoint_txns_overlap ] );
      ( "recovery",
        [ Alcotest.test_case "in-doubt prepare presumed-aborts" `Quick
            test_indoubt_prepare_aborts_on_attach;
          Alcotest.test_case "persisted decision redoes the txn" `Quick
            test_decided_txn_redone_on_attach ] );
      ( "backup",
        [ Alcotest.test_case "promotion resolves in-doubt slots" `Quick
            test_promotion_resolves_indoubt;
          Alcotest.test_case "group apply deferred to last decide" `Quick
            test_backup_defers_group_apply ] );
      ( "crashcheck",
        [ Alcotest.test_case "kv-txn: bounded sweep clean" `Quick
            test_crashcheck_txn_sweep;
          Alcotest.test_case "kv-txn-broken: mutation flagged" `Quick
            test_crashcheck_flags_unflushed_decision ] ) ]
