(* Tests for the simulated MPK unit: key allocation, range tagging,
   per-thread PKRU isolation, permission checks, the ablation switch. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let page = Mpk.page_size

let test_key_allocation () =
  let m = Mpk.create () in
  let k1 = Mpk.alloc_key m in
  let k2 = Mpk.alloc_key m in
  check "distinct keys" true (k1 <> k2);
  check "non-default" true (k1 >= 1 && k1 <= 15);
  Mpk.free_key m k1;
  let k3 = Mpk.alloc_key m in
  check_int "freed key reused" k1 k3

let test_key_exhaustion () =
  let m = Mpk.create () in
  for _ = 1 to 15 do
    ignore (Mpk.alloc_key m)
  done;
  check "16th allocation fails" true
    (try ignore (Mpk.alloc_key m); false with Failure _ -> true)

let test_default_key_untagged () =
  let m = Mpk.create () in
  check_int "untagged is key 0" 0 (Mpk.key_of_addr m 12345);
  (* key 0 is always read-write *)
  Mpk.check m ~thread:1 12345 Mpk.Write

let test_range_tagging () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.assign_range m k ~base:(4 * page) ~size:(2 * page);
  check_int "inside" k (Mpk.key_of_addr m (4 * page));
  check_int "last byte" k (Mpk.key_of_addr m ((6 * page) - 1));
  check_int "before" 0 (Mpk.key_of_addr m ((4 * page) - 1));
  check_int "after" 0 (Mpk.key_of_addr m (6 * page))

let test_unaligned_range_rejected () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  check "unaligned rejected" true
    (try Mpk.assign_range m k ~base:100 ~size:page; false
     with Invalid_argument _ -> true)

let test_overlapping_range_rejected () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.assign_range m k ~base:0 ~size:(4 * page);
  check "overlap rejected" true
    (try Mpk.assign_range m k ~base:page ~size:page; false
     with Invalid_argument _ -> true)

let test_reassign_same_range () =
  let m = Mpk.create () in
  let k1 = Mpk.alloc_key m in
  Mpk.assign_range m k1 ~base:0 ~size:page;
  let k2 = Mpk.alloc_key m in
  Mpk.assign_range m k2 ~base:0 ~size:page; (* exact match: swaps key *)
  check_int "key swapped" k2 (Mpk.key_of_addr m 0)

let test_read_only_enforcement () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.assign_range m k ~base:0 ~size:page;
  Mpk.set_default_perm m k Mpk.Read_only;
  (* reads fine, writes fault *)
  Mpk.check m ~thread:7 100 Mpk.Read;
  check "write faults" true
    (try Mpk.check m ~thread:7 100 Mpk.Write; false
     with Mpk.Fault f ->
       f.Mpk.fault_addr = 100 && f.Mpk.fault_pkey = k)

let test_no_access () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.assign_range m k ~base:0 ~size:page;
  Mpk.set_default_perm m k Mpk.No_access;
  check "read faults" true
    (try Mpk.check m ~thread:7 0 Mpk.Read; false with Mpk.Fault _ -> true)

let test_per_thread_isolation () =
  (* the write permission granted to one thread must not leak to
     another (the paper's cross-thread protection argument, 4.3) *)
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.assign_range m k ~base:0 ~size:page;
  Mpk.set_default_perm m k Mpk.Read_only;
  Mpk.set_perm m ~thread:1 k Mpk.Read_write;
  Mpk.check m ~thread:1 0 Mpk.Write; (* granted thread writes *)
  check "other thread still faults" true
    (try Mpk.check m ~thread:2 0 Mpk.Write; false with Mpk.Fault _ -> true);
  (* revoke and re-check *)
  Mpk.set_perm m ~thread:1 k Mpk.Read_only;
  check "revoked thread faults" true
    (try Mpk.check m ~thread:1 0 Mpk.Write; false with Mpk.Fault _ -> true)

let test_reset_thread () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.assign_range m k ~base:0 ~size:page;
  Mpk.set_default_perm m k Mpk.Read_only;
  Mpk.set_perm m ~thread:1 k Mpk.Read_write;
  Mpk.reset_thread m ~thread:1;
  check "back to default" true (Mpk.get_perm m ~thread:1 k = Mpk.Read_only)

let test_free_key_clears () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.assign_range m k ~base:0 ~size:page;
  Mpk.set_default_perm m k Mpk.Read_only;
  Mpk.free_key m k;
  (* range dropped, permission back to RW *)
  check_int "range gone" 0 (Mpk.key_of_addr m 0);
  Mpk.check m ~thread:3 0 Mpk.Write

let test_fault_counter () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.assign_range m k ~base:0 ~size:page;
  Mpk.set_default_perm m k Mpk.No_access;
  let before = Mpk.faults_observed m in
  (try Mpk.check m ~thread:1 0 Mpk.Read with Mpk.Fault _ -> ());
  (try Mpk.check m ~thread:1 64 Mpk.Write with Mpk.Fault _ -> ());
  check_int "fault count" (before + 2) (Mpk.faults_observed m)

(* ---------- lookup memos ---------- *)

(* [check] memoizes the last range, the last key-0 gap between ranges
   and the last thread's PKRU.  Each case warms one memo, changes what
   it caches, and checks that the next lookup sees the change. *)

let faults m ~thread a access =
  try Mpk.check m ~thread a access; false with Mpk.Fault _ -> true

let test_gap_memo_vs_assign_range () =
  let m = Mpk.create () in
  let k0 = Mpk.alloc_key m in
  Mpk.assign_range m k0 ~base:(16 * page) ~size:page;
  (* an untagged page below the range: its gap is memoized *)
  check_int "untagged" 0 (Mpk.key_of_addr m (3 * page));
  check "key-0 write passes" false (faults m ~thread:1 (3 * page) Mpk.Write);
  let k = Mpk.alloc_key m in
  Mpk.set_default_perm m k Mpk.No_access;
  Mpk.assign_range m k ~base:(3 * page) ~size:page;
  check_int "tagged" k (Mpk.key_of_addr m (3 * page));
  check "read of the newly tagged page faults" true
    (faults m ~thread:1 ((3 * page) + 8) Mpk.Read);
  check "the rest of the gap stays key 0" false
    (faults m ~thread:1 (5 * page) Mpk.Write)

let test_range_memo_vs_free_key () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.set_default_perm m k Mpk.No_access;
  Mpk.assign_range m k ~base:(3 * page) ~size:page;
  (* the range is memoized by the faulting check *)
  check "tagged page faults" true (faults m ~thread:1 (3 * page) Mpk.Read);
  Mpk.free_key m k;
  check_int "key 0 again" 0 (Mpk.key_of_addr m (3 * page));
  check "freed page writable" false (faults m ~thread:1 (3 * page) Mpk.Write)

let test_pkru_memo_vs_reset_thread () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.assign_range m k ~base:0 ~size:page;
  Mpk.set_default_perm m k Mpk.Read_only;
  Mpk.set_perm m ~thread:1 k Mpk.Read_write;
  (* thread 1's PKRU is memoized by the passing check *)
  check "granted write passes" false (faults m ~thread:1 0 Mpk.Write);
  Mpk.reset_thread m ~thread:1;
  check "default read-only after reset" true (faults m ~thread:1 0 Mpk.Write)

let test_pkru_memo_vs_first_set_perm () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.assign_range m k ~base:0 ~size:page;
  Mpk.set_default_perm m k Mpk.Read_only;
  (* thread 1 has no PKRU yet: the defaults are memoized for it *)
  check "default write faults" true (faults m ~thread:1 0 Mpk.Write);
  Mpk.set_perm m ~thread:1 k Mpk.Read_write;
  check "own PKRU after first wrpkru" false (faults m ~thread:1 0 Mpk.Write);
  check "defaults untouched" true (faults m ~thread:2 0 Mpk.Write)

(* ---------- wrpkru lockdown (paper 8) ---------- *)

let test_seal_blocks_loosening () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  Mpk.set_default_perm m k Mpk.Read_only;
  let cap = Mpk.guard m k in
  Mpk.seal m;
  check "sealed" true (Mpk.sealed m);
  check "loosening without cap denied" true
    (try Mpk.set_perm m ~thread:1 k Mpk.Read_write; false
     with Mpk.Wrpkru_denied k' -> k' = k);
  (* with the capability it works *)
  Mpk.set_perm ~cap m ~thread:1 k Mpk.Read_write;
  check "granted with cap" true (Mpk.get_perm m ~thread:1 k = Mpk.Read_write)

let test_seal_allows_tightening () =
  let m = Mpk.create () in
  let k = Mpk.alloc_key m in
  let cap = Mpk.guard m k in
  Mpk.seal m;
  Mpk.set_perm ~cap m ~thread:1 k Mpk.Read_write;
  (* revoking your own access never needs the capability *)
  Mpk.set_perm m ~thread:1 k Mpk.Read_only;
  Mpk.set_perm m ~thread:1 k Mpk.No_access;
  check "tightened" true (Mpk.get_perm m ~thread:1 k = Mpk.No_access)

let test_seal_spares_unguarded_keys () =
  let m = Mpk.create () in
  let k1 = Mpk.alloc_key m in
  let k2 = Mpk.alloc_key m in
  Mpk.set_default_perm m k2 Mpk.Read_only;
  ignore (Mpk.guard m k1);
  Mpk.seal m;
  (* k2 was never guarded: plain wrpkru still works *)
  Mpk.set_perm m ~thread:1 k2 Mpk.Read_write

let test_wrong_capability_denied () =
  let m = Mpk.create () in
  let k1 = Mpk.alloc_key m in
  let k2 = Mpk.alloc_key m in
  Mpk.set_default_perm m k1 Mpk.Read_only;
  ignore (Mpk.guard m k1);
  let cap2 = Mpk.guard m k2 in
  Mpk.seal m;
  check "foreign capability refused" true
    (try Mpk.set_perm ~cap:cap2 m ~thread:1 k1 Mpk.Read_write; false
     with Mpk.Wrpkru_denied _ -> true)

let () =
  Alcotest.run "mpk"
    [ ( "keys",
        [ Alcotest.test_case "allocation" `Quick test_key_allocation;
          Alcotest.test_case "exhaustion" `Quick test_key_exhaustion;
          Alcotest.test_case "free clears state" `Quick test_free_key_clears ] );
      ( "ranges",
        [ Alcotest.test_case "default key" `Quick test_default_key_untagged;
          Alcotest.test_case "tagging" `Quick test_range_tagging;
          Alcotest.test_case "unaligned rejected" `Quick test_unaligned_range_rejected;
          Alcotest.test_case "overlap rejected" `Quick test_overlapping_range_rejected;
          Alcotest.test_case "reassign same range" `Quick test_reassign_same_range ] );
      ( "permissions",
        [ Alcotest.test_case "read-only" `Quick test_read_only_enforcement;
          Alcotest.test_case "no-access" `Quick test_no_access;
          Alcotest.test_case "per-thread isolation" `Quick test_per_thread_isolation;
          Alcotest.test_case "reset thread" `Quick test_reset_thread;
          Alcotest.test_case "fault counter" `Quick test_fault_counter ] );
      ( "memos",
        [ Alcotest.test_case "gap memo vs assign_range" `Quick
            test_gap_memo_vs_assign_range;
          Alcotest.test_case "range memo vs free_key" `Quick
            test_range_memo_vs_free_key;
          Alcotest.test_case "PKRU memo vs reset_thread" `Quick
            test_pkru_memo_vs_reset_thread;
          Alcotest.test_case "PKRU memo vs first wrpkru" `Quick
            test_pkru_memo_vs_first_set_perm ] );
      ( "lockdown",
        [ Alcotest.test_case "seal blocks loosening" `Quick
            test_seal_blocks_loosening;
          Alcotest.test_case "tightening free" `Quick test_seal_allows_tightening;
          Alcotest.test_case "unguarded keys unaffected" `Quick
            test_seal_spares_unguarded_keys;
          Alcotest.test_case "wrong capability" `Quick
            test_wrong_capability_denied ] ) ]
