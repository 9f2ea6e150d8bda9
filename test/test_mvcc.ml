(* MVCC snapshot reads: version-chain semantics (GC bound, lookup
   resolution, degrade-to-oldest, cross-shard group atomicity),
   snapshot-get / plain-get equivalence on a quiescent store,
   all-or-none visibility of staged transactions, backup-promotion
   equivalence, concurrent snapshot stability under the cooperative
   scheduler, and bounded crashcheck sweeps: the kv-snapshot scenario
   must be green and the mvcc-broken mutation must be flagged. *)

module Kv = Service.Kv
module H = Poseidon.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let heap_base = 1 lsl 30

let mk_store ?(mvcc_window = 4) ~shards () =
  let mach = Machine.create () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 20) ()
  in
  let inst = Poseidon.instance heap in
  (mach, inst, Kv.create ~mvcc_window inst ~shards ~value_size:64)

(* ---------- Mvcc substrate ---------- *)

let test_chain_bound_and_lookup () =
  let m = Mvcc.create ~shards:2 ~window:2 in
  check "enabled" true (Mvcc.enabled m);
  Mvcc.seed m ~shard:0 ~key:1 ~value:(Some 100);
  check_int "seed alone" 1 (Mvcc.chain_length m ~shard:0 ~key:1);
  Mvcc.publish m ~shard:0 ~ts:10 [ (1, Some 101) ];
  Mvcc.publish m ~shard:0 ~ts:20 [ (1, Some 102) ];
  Mvcc.publish m ~shard:0 ~ts:30 [ (1, Some 103) ];
  check_int "GC bound: window + 1" 3 (Mvcc.chain_length m ~shard:0 ~key:1);
  check "at the newest commit" true
    (Mvcc.lookup m ~shard:0 ~key:1 ~ts:30 = Mvcc.Resolved (Some 103));
  check "between commits" true
    (Mvcc.lookup m ~shard:0 ~key:1 ~ts:25 = Mvcc.Resolved (Some 102));
  check "oldest retained" true
    (Mvcc.lookup m ~shard:0 ~key:1 ~ts:10 = Mvcc.Resolved (Some 101));
  check "below retained history: the forward read is flagged" true
    (Mvcc.lookup m ~shard:0 ~key:1 ~ts:5 = Mvcc.Truncated (Some 101));
  check "chainless key falls through to the tree" true
    (Mvcc.lookup m ~shard:0 ~key:9 ~ts:30 = Mvcc.No_chain);
  check_int "snapshot follows publication" 30 (Mvcc.snapshot m);
  Mvcc.publish m ~shard:0 ~ts:40 [ (1, None) ];
  check "a delete is a version" true
    (Mvcc.lookup m ~shard:0 ~key:1 ~ts:40 = Mvcc.Resolved None);
  Mvcc.seed m ~shard:0 ~key:1 ~value:(Some 999);
  check "seed is a no-op on an existing chain" true
    (Mvcc.lookup m ~shard:0 ~key:1 ~ts:40 = Mvcc.Resolved None);
  (* the seed floor (ts 0) is a legitimate resolution for every real
     snapshot, never a truncation *)
  Mvcc.seed m ~shard:0 ~key:2 ~value:(Some 7);
  check "seed floor resolves at ts 0" true
    (Mvcc.lookup m ~shard:0 ~key:2 ~ts:0 = Mvcc.Resolved (Some 7))

let test_group_publication_atomic () =
  let m = Mvcc.create ~shards:2 ~window:4 in
  Mvcc.publish m ~shard:0 ~ts:10 [ (2, Some 20) ];
  Mvcc.publish m ~shard:1 ~ts:11 [ (5, Some 50) ];
  check_int "snapshot before the group" 11 (Mvcc.snapshot m);
  Mvcc.publish_group m ~ts:12
    [ (0, [ (2, Some 21) ]); (1, [ (5, Some 51); (7, Some 70) ]) ];
  check_int "watermark shard 0" 12 (Mvcc.watermark m ~shard:0);
  check_int "watermark shard 1" 12 (Mvcc.watermark m ~shard:1);
  check_int "snapshot after the group" 12 (Mvcc.snapshot m);
  check "an old snapshot keeps the pre-group value" true
    (Mvcc.lookup m ~shard:1 ~key:5 ~ts:11 = Mvcc.Resolved (Some 50));
  check "a new snapshot sees the whole group" true
    (Mvcc.lookup m ~shard:0 ~key:2 ~ts:12 = Mvcc.Resolved (Some 21)
    && Mvcc.lookup m ~shard:1 ~key:5 ~ts:12 = Mvcc.Resolved (Some 51)
    && Mvcc.lookup m ~shard:1 ~key:7 ~ts:12 = Mvcc.Resolved (Some 70));
  check "next chain key at or after a position" true
    (Mvcc.next_chain_key m ~shard:1 ~from_key:6 = Some 7
    && Mvcc.next_chain_key m ~shard:1 ~from_key:5 = Some 5
    && Mvcc.next_chain_key m ~shard:1 ~from_key:8 = None);
  (* a key's first publication enters the ordered set a merged scan
     asks at every step *)
  Mvcc.publish m ~shard:1 ~ts:14 [ (6, Some 60) ];
  check "a fresh key's publication joins the set" true
    (Mvcc.next_chain_key m ~shard:1 ~from_key:6 = Some 6);
  Mvcc.reset m;
  check "reset drops the chains" true (not (Mvcc.has_chain m ~shard:1 ~key:5));
  check_int "reset drops the watermarks" 0 (Mvcc.snapshot m);
  check "reset empties the chain-key set" true
    (Mvcc.next_chain_key m ~shard:1 ~from_key:min_int = None)

let test_window_zero_disabled () =
  let m = Mvcc.create ~shards:1 ~window:0 in
  check "disabled" true (not (Mvcc.enabled m));
  Mvcc.seed m ~shard:0 ~key:1 ~value:(Some 1);
  Mvcc.publish m ~shard:0 ~ts:5 [ (1, Some 2) ];
  check "publish is a no-op" true
    (Mvcc.lookup m ~shard:0 ~key:1 ~ts:5 = Mvcc.No_chain);
  check_int "no chain" 0 (Mvcc.chain_length m ~shard:0 ~key:1)

(* ---------- Kv snapshot reads on a quiescent store ---------- *)

let test_snapshot_get_equivalence () =
  let _, _, s = mk_store ~shards:2 () in
  let keys = List.init 40 (fun i -> i + 1) in
  List.iter (fun k -> check "put" true (Kv.put s ~key:k ~vseed:(k * 11))) keys;
  check "delete" true (Kv.delete s ~key:7);
  check "delete" true (Kv.delete s ~key:8);
  check "overwrite" true (Kv.put s ~key:9 ~vseed:999);
  let ts = Kv.snapshot s in
  List.iter
    (fun k ->
      check "snapshot_get = get on a quiescent store" true
        (Kv.snapshot_get s ~ts ~key:k = Kv.get s ~key:k))
    (keys @ [ 4096 ]);
  let got = ref [] in
  let n =
    Kv.snapshot_scan s ~ts ~from_key:1 ~n:100 (fun k d ->
        got := (k, d) :: !got)
  in
  let want =
    List.filter_map
      (fun k -> Option.map (fun d -> (k, d)) (Kv.get s ~key:k))
      keys
  in
  check_int "merged scan visits every live key" (List.length want) n;
  check "merged scan is in global key order with live digests" true
    (List.rev !got = want);
  (* bounded scan: the n cap and the from_key floor both hold *)
  let m = ref 0 and first = ref 0 in
  let n' =
    Kv.snapshot_scan s ~ts ~from_key:10 ~n:5 (fun k _ ->
        if !m = 0 then first := k;
        incr m)
  in
  check_int "n caps the scan" 5 n';
  check_int "from_key floors the scan" 10 !first

(* Regression: MVCC timestamps are a store-local commit sequence, so
   snapshot semantics hold OUTSIDE the simulator too.  With the old
   clock-based stamps every non-sim commit published at ts 0, the
   watermark never advanced, and a held snapshot silently read the
   newest version. *)
let test_snapshot_stability_outside_sim () =
  let _, _, s = mk_store ~shards:2 () in
  ignore (Kv.put s ~key:3 ~vseed:100);
  ignore (Kv.put s ~key:4 ~vseed:200);
  let ts = Kv.snapshot s in
  check "snapshot advances with non-sim commits" true (ts > 0);
  ignore (Kv.put s ~key:3 ~vseed:101);
  ignore (Kv.delete s ~key:4);
  check "a held snapshot is immune to a later overwrite" true
    (Kv.snapshot_get s ~ts ~key:3 = Some (Kv.value_checksum s ~vseed:100));
  check "a held snapshot is immune to a later delete" true
    (Kv.snapshot_get s ~ts ~key:4 = Some (Kv.value_checksum s ~vseed:200));
  check "a fresh snapshot sees the new value" true
    (Kv.snapshot_get s ~ts:(Kv.snapshot s) ~key:3
    = Some (Kv.value_checksum s ~vseed:101));
  check_int "no truncation was involved" 0 (Kv.mvcc_truncated_reads s)

(* Regression: a snapshot that outlives its key's retained history is
   answered from AFTER the snapshot — that consistency loss must be
   observable, not silent. *)
let test_truncated_read_detection () =
  let _, _, s = mk_store ~mvcc_window:2 ~shards:1 () in
  ignore (Kv.put s ~key:1 ~vseed:10);
  let ts = Kv.snapshot s in
  for v = 11 to 18 do
    ignore (Kv.put s ~key:1 ~vseed:v)
  done;
  check_int "exact reads are not counted" 0 (Kv.mvcc_truncated_reads s);
  ignore (Kv.snapshot_get s ~ts ~key:1);
  check "the outlived snapshot's read is counted" true
    (Kv.mvcc_truncated_reads s > 0)

let test_kv_chain_gc_bound () =
  let _, _, s = mk_store ~mvcc_window:3 ~shards:2 () in
  for i = 1 to 20 do
    ignore (Kv.put s ~key:5 ~vseed:(100 + i))
  done;
  check "chain stays within window + 1" true
    (Kv.mvcc_chain_length s ~key:5 <= 4);
  check "chain is being kept at all" true (Kv.mvcc_chain_length s ~key:5 > 0)

(* ---------- staged transactions: all-or-none visibility ---------- *)

let test_staged_txn_all_or_none () =
  let _, _, s = mk_store ~shards:2 () in
  List.iter
    (fun (k, vs) -> ignore (Kv.put s ~key:k ~vseed:vs))
    [ (3, 31); (4, 41) ];
  let pre3 = Kv.get s ~key:3
  and pre4 = Kv.get s ~key:4 in
  let ops =
    [ Kv.Tput { key = 3; vseed = 32 }; Kv.Tput { key = 4; vseed = 42 } ]
  in
  match Kv.txn_prepare s ops with
  | Error _ -> Alcotest.fail "prepare aborted"
  | Ok p ->
    (* prepared but undecided: no snapshot may see its writes *)
    let ts = Kv.snapshot s in
    check "undecided write invisible (key 3)" true
      (Kv.snapshot_get s ~ts ~key:3 = pre3);
    check "undecided write invisible (key 4)" true
      (Kv.snapshot_get s ~ts ~key:4 = pre4);
    ignore (Kv.txn_decide s p);
    Kv.txn_apply s p;
    let ts' = Kv.snapshot s in
    let g3 = Kv.snapshot_get s ~ts:ts' ~key:3
    and g4 = Kv.snapshot_get s ~ts:ts' ~key:4 in
    check "post-apply snapshot matches the live store" true
      (g3 = Kv.get s ~key:3 && g4 = Kv.get s ~key:4);
    check "both writes became visible" true (g3 <> pre3 && g4 <> pre4)

(* ---------- backup promotion serves snapshots ---------- *)

let test_backup_promotion_snapshots () =
  (* key shard map for shards:2 (asserted): 3 on shard 0; 4, 5 on 1 *)
  assert (Kv.shard_of ~shards:2 3 = 0);
  assert (Kv.shard_of ~shards:2 4 = 1 && Kv.shard_of ~shards:2 5 = 1);
  let _, _, b = mk_store ~shards:2 () in
  List.iter
    (fun (k, vs) -> ignore (Kv.put b ~key:k ~vseed:vs))
    [ (3, 61); (4, 62); (5, 63) ];
  (* a fully decided shipped transaction across both shards *)
  Kv.txn_backup_prepare b ~txn:77 ~shard:0
    ~ops:[ Kv.Tput { key = 3; vseed = 64 } ];
  Kv.txn_backup_prepare b ~txn:77 ~shard:1
    ~ops:[ Kv.Tput { key = 4; vseed = 65 } ];
  Kv.txn_backup_decide b ~txn:77 ~shard:0 ~nparts:2;
  Kv.txn_backup_decide b ~txn:77 ~shard:1 ~nparts:2;
  (* an in-doubt prepare whose decide died with the primary *)
  Kv.txn_backup_prepare b ~txn:78 ~shard:1
    ~ops:[ Kv.Tput { key = 5; vseed = 66 } ];
  let resolved = Kv.txn_resolve_indoubt b in
  check_int "one slot presumed-aborted at promotion" 1 resolved;
  let ts = Kv.snapshot b in
  List.iter
    (fun k ->
      check "promoted snapshots equal live reads" true
        (Kv.snapshot_get b ~ts ~key:k = Kv.get b ~key:k))
    [ 3; 4; 5 ];
  check "the decided transaction applied" true
    (Kv.get b ~key:3 = Some (Kv.value_checksum b ~vseed:64));
  check "the in-doubt prepare rolled back" true
    (Kv.get b ~key:5 = Some (Kv.value_checksum b ~vseed:63))

(* ---------- concurrent snapshot stability ---------- *)

(* Writers update keys 3 (shard 0) and 4 (shard 1) together through
   {!Kv.txn} with the SAME vseed, so at every committed state the two
   digests are equal.  Lock-free snapshot readers assert (a) the pair
   is never observed torn and (b) re-reading at a held timestamp is
   repeatable even while later commits land.  The window (64) exceeds
   the writer's commit count, so no reader outlives retained history. *)
let test_concurrent_snapshot_stability () =
  let mach, _, s = mk_store ~mvcc_window:64 ~shards:2 () in
  ignore (Kv.put s ~key:3 ~vseed:1000);
  ignore (Kv.put s ~key:4 ~vseed:1000);
  let torn = ref 0
  and unrepeatable = ref 0
  and nonmonotone = ref 0 in
  let _ =
    Machine.parallel mach ~threads:3 (fun i ->
        if i = 0 then
          for v = 1 to 30 do
            ignore
              (Kv.txn s
                 [ Kv.Tput { key = 3; vseed = 1000 + v };
                   Kv.Tput { key = 4; vseed = 1000 + v } ])
          done
        else begin
          let last_ts = ref 0 in
          for _ = 1 to 40 do
            let ts = Kv.snapshot s in
            if ts < !last_ts then incr nonmonotone;
            last_ts := ts;
            let d3 = Kv.snapshot_get s ~ts ~key:3
            and d4 = Kv.snapshot_get s ~ts ~key:4 in
            if d3 <> d4 then incr torn;
            let d3' = Kv.snapshot_get s ~ts ~key:3
            and d4' = Kv.snapshot_get s ~ts ~key:4 in
            if d3' <> d3 || d4' <> d4 then incr unrepeatable
          done
        end)
  in
  check_int "no torn cross-shard observation" 0 !torn;
  check_int "reads at a held snapshot are repeatable" 0 !unrepeatable;
  check_int "snapshot timestamps are monotone" 0 !nonmonotone;
  let ts = Kv.snapshot s in
  check "final snapshot equals the live store" true
    (Kv.snapshot_get s ~ts ~key:3 = Kv.get s ~key:3
    && Kv.snapshot_get s ~ts ~key:4 = Kv.get s ~key:4)

(* Regression: a key deleted WHILE a snapshot scan is running leaves
   the tree before the cursor reaches it, and its chain did not exist
   when the scan captured the chain keys — without generation-driven
   re-capture the scan silently drops a key that is visible at its
   snapshot.  The per-key [snapshot_get] oracle is exact at a held
   timestamp (the window exceeds every commit), so any divergence is a
   dropped, phantom or misresolved scan entry. *)
let test_scan_vs_concurrent_deletes () =
  let mach, inst, s0 = mk_store ~mvcc_window:64 ~shards:2 () in
  let keys = List.init 40 (fun i -> i + 1) in
  List.iter (fun k -> ignore (Kv.put s0 ~key:k ~vseed:(k * 7))) keys;
  (* reopen: the version chains are volatile, so after recovery every
     key lives only in its tree — exactly the state where a mid-scan
     delete is covered by neither the open-time chain capture nor the
     cursor, and only generation-driven re-capture can save it *)
  let s, _ = Kv.attach ~mvcc_window:64 inst in
  let mismatches = ref 0 in
  let _ =
    Machine.parallel mach ~threads:2 (fun i ->
        if i = 0 then
          (* back-to-front: a delete costs far more machine ops than a
             scan step, so a front-to-back deleter would trail the
             cursor and never delete ahead of it — deleting from the
             high end guarantees keys vanish from the tree before the
             merge reaches them *)
          List.iter (fun k -> ignore (Kv.delete s ~key:k)) (List.rev keys)
        else
          for _ = 1 to 5 do
            let ts = Kv.snapshot s in
            let got = ref [] in
            let _ =
              Kv.snapshot_scan s ~ts ~from_key:1 ~n:100 (fun k d ->
                  got := (k, d) :: !got)
            in
            let want =
              List.filter_map
                (fun k ->
                  Option.map (fun d -> (k, d)) (Kv.snapshot_get s ~ts ~key:k))
                keys
            in
            if List.rev !got <> want then incr mismatches
          done)
  in
  check_int "every racing scan equals the per-key snapshot oracle" 0
    !mismatches;
  check_int "no snapshot outlived retained history" 0
    (Kv.mvcc_truncated_reads s)

(* ---------- crashcheck: correctness sweep + mutation gate ---------- *)

let test_kv_snapshot_sweep_green () =
  let scn = Crashcheck.scn_kv_snapshot () in
  let r = Crashcheck.run ~max_points:6 ~subsets_per_point:1 scn in
  check "bounded kv-snapshot sweep is green" true
    (r.Crashcheck.counterexamples = []);
  check "recoveries were actually verified" true
    (r.Crashcheck.recoveries_verified > 0)

(* the inverted gate in scripts/check.sh relies on this scenario being
   flaggable: early publication MUST yield a counterexample *)
let test_mvcc_broken_flagged () =
  let scn = Crashcheck.scn_mvcc_broken () in
  let r = Crashcheck.run ~max_points:6 ~subsets_per_point:1 scn in
  check "checker flags publication before decision" true
    (r.Crashcheck.counterexamples <> [])

let () =
  Alcotest.run "mvcc"
    [ ( "chains",
        [ Alcotest.test_case "GC bound + lookup resolution" `Quick
            test_chain_bound_and_lookup;
          Alcotest.test_case "cross-shard group atomicity" `Quick
            test_group_publication_atomic;
          Alcotest.test_case "window 0 disables everything" `Quick
            test_window_zero_disabled ] );
      ( "kv",
        [ Alcotest.test_case "snapshot reads = plain reads, quiescent"
            `Quick test_snapshot_get_equivalence;
          Alcotest.test_case "snapshot stability outside the simulator"
            `Quick test_snapshot_stability_outside_sim;
          Alcotest.test_case "truncated snapshot reads are counted" `Quick
            test_truncated_read_detection;
          Alcotest.test_case "chain GC bound through the store" `Quick
            test_kv_chain_gc_bound;
          Alcotest.test_case "staged txn all-or-none" `Quick
            test_staged_txn_all_or_none;
          Alcotest.test_case "backup promotion serves snapshots" `Quick
            test_backup_promotion_snapshots ] );
      ( "concurrency",
        [ Alcotest.test_case "snapshot stability under writers" `Quick
            test_concurrent_snapshot_stability;
          Alcotest.test_case "scans survive concurrent deletes" `Quick
            test_scan_vs_concurrent_deletes ] );
      ( "crashcheck",
        [ Alcotest.test_case "kv-snapshot sweep green" `Quick
            test_kv_snapshot_sweep_green;
          Alcotest.test_case "mvcc-broken flagged" `Quick
            test_mvcc_broken_flagged ] ) ]
