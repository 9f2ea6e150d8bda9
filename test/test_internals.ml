(* White-box tests for Poseidon's internal components: the multi-level
   hash table, the buddy lists, record encoding, the superblock, and
   the fsck reporter.  These drive the structures directly through a
   formatted sub-heap, below the public API. *)

module Prng = Repro_util.Prng
module L = Poseidon.Layout
module Sh = Poseidon.Subheap
module Ht = Poseidon.Hashtable
module Bd = Poseidon.Buddy
module Rec = Poseidon.Record
module Pundo = Persist.Pundo

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let base = 1 lsl 30

(* a formatted sub-heap to play with, metadata unprotected so the
   tests can drive structures without MPK ceremony *)
let mksh ?(data_size = 1 lsl 16) ?(base_buckets = 16) () =
  let mach = Machine.create () in
  let meta_size = L.meta_size ~base_buckets ~levels:L.max_levels in
  Machine.add_region mach ~base ~size:(meta_size + data_size)
    ~kind:Nvmm.Memdev.Nvmm ~numa:0;
  let sh =
    Sh.format mach ~heap_id:1 ~index:0 ~cpu:0 ~meta_base:base
      ~data_base:(base + meta_size) ~data_size ~base_buckets
  in
  (mach, sh)

let op sh f =
  let ctx = Pundo.begin_op sh.Sh.undo in
  let r = f ctx in
  Pundo.commit ctx;
  r

(* ---------- record codec ---------- *)

let test_record_fields () =
  let _, sh = mksh () in
  let mach = sh.Sh.mach in
  (* the initial block's record *)
  let rec_addr = Option.get (Ht.lookup sh.Sh.ht 0) in
  check_int "offset" 0 (Rec.get_offset mach rec_addr);
  check_int "size" sh.Sh.data_size (Rec.get_size mach rec_addr);
  check_int "status" L.st_free (Rec.get_status mach rec_addr);
  check_int "prev" L.nil_off (Rec.get_prev mach rec_addr);
  check_int "next" L.nil_off (Rec.get_next mach rec_addr);
  op sh (fun ctx ->
      Pundo.write_all ctx [ (Rec.size_at rec_addr, 12345); (Rec.prev_at rec_addr, 64) ]);
  check_int "updated size" 12345 (Rec.get_size mach rec_addr);
  check_int "updated prev" 64 (Rec.get_prev mach rec_addr)

(* ---------- hash table ---------- *)

let test_hash_lookup_miss () =
  let _, sh = mksh () in
  check "block 0 present" true (Ht.lookup sh.Sh.ht 0 <> None);
  check "unknown offset" true (Ht.lookup sh.Sh.ht 999 = None)

let test_hash_insert_many_and_lookup () =
  let _, sh = mksh ~base_buckets:32 () in
  (* insert synthetic records for offsets 32,64,...  (the initial
     block record stays at offset 0) *)
  let offs = List.init 100 (fun i -> 32 * (i + 1)) in
  (* 100 inserts overflow the probe windows of a 32-bucket level, so
     extensions must kick in along the way *)
  op sh (fun ctx ->
      List.iter
        (fun off ->
          let rec insert attempts =
            match Ht.find_insert_slot sh.Sh.ht off with
            | Some (level, slot) ->
              Pundo.write_all ctx
                (Ht.live_add sh.Sh.ht level 1
                 :: Rec.init ctx slot ~off ~size:32 ~status:L.st_alloc
                      ~prev:L.nil_off ~next:L.nil_off)
            | None ->
              check "can extend" true (Ht.extend ctx sh.Sh.ht);
              if attempts < L.max_levels then insert (attempts + 1)
              else Alcotest.fail "no slot after extensions"
          in
          insert 0)
        offs);
  check "extended beyond one level" true (Ht.levels sh.Sh.ht > 1);
  List.iter
    (fun off ->
      match Ht.lookup sh.Sh.ht off with
      | Some rec_addr ->
        check_int "found offset" off (Rec.get_offset sh.Sh.mach rec_addr)
      | None -> Alcotest.fail "lookup failed")
    offs

(* The tombstone comes from a real merge, so the sub-heap's occupancy
   summary sees it: two adjacent 32 B blocks are freed in a full
   region, and a 64 B request defragments them into one. *)
let test_hash_tombstone_reuse () =
  let _, sh = mksh () in
  let alloc size =
    match Sh.allocate sh size with Some off -> off | None -> Alcotest.fail "alloc"
  in
  let a = alloc 32 in
  let b = alloc 32 in
  (* 64 + 128 + ... + 32768 uses the rest of the 64 KiB region up *)
  let rec fill size =
    if size <= sh.Sh.data_size / 2 then begin
      ignore (alloc size);
      fill (2 * size)
    end
  in
  fill 64;
  check_int "region full" sh.Sh.data_size (Sh.live_bytes sh);
  let slot1 = Option.get (Ht.lookup sh.Sh.ht b) in
  check "a freed" true (Sh.deallocate sh a = Sh.Freed);
  check "b freed" true (Sh.deallocate sh b = Sh.Freed);
  check_int "the merged block" a (alloc 64);
  check "gone" true (Ht.lookup sh.Sh.ht b = None);
  check_int "tombstone" L.st_tombstone (Rec.get_status sh.Sh.mach slot1);
  (* the split of the merged block re-inserts offset [b]: the
     tombstone slot is reusable *)
  check "merged block freed" true (Sh.deallocate sh a = Sh.Freed);
  check_int "split again" a (alloc 32);
  let slot2 = Option.get (Ht.lookup sh.Sh.ht b) in
  check_int "same slot reused" slot1 slot2;
  Sh.check_invariants sh

let test_hash_extend_shrink () =
  let _, sh = mksh ~base_buckets:8 () in
  check_int "one level" 1 (Ht.levels sh.Sh.ht);
  op sh (fun ctx -> check "extends" true (Ht.extend ctx sh.Sh.ht));
  check_int "two levels" 2 (Ht.levels sh.Sh.ht);
  (* no live records in level 1: shrink releases it *)
  (match op sh (fun ctx -> Ht.shrink ctx sh.Sh.ht) with
   | Some (from_level, to_level) ->
     check_int "shrinks to 1" 1 from_level;
     check_int "from 2" 2 to_level;
     Ht.punch_levels sh.Sh.ht ~from_level ~to_level
   | None -> Alcotest.fail "expected shrink");
  check_int "back to one level" 1 (Ht.levels sh.Sh.ht)

let test_hash_extend_capped () =
  let _, sh = mksh ~base_buckets:8 () in
  op sh (fun ctx ->
      for _ = 2 to L.max_levels do
        check "extend" true (Ht.extend ctx sh.Sh.ht)
      done;
      check "capped at max_levels" false (Ht.extend ctx sh.Sh.ht))

let test_level_of_rec () =
  let _, sh = mksh ~base_buckets:8 () in
  let b0 = Ht.bucket_addr sh.Sh.ht ~level:0 ~idx:0 in
  check_int "level 0" 0 (Ht.level_of_rec sh.Sh.ht b0);
  let b1 = Ht.bucket_addr sh.Sh.ht ~level:1 ~idx:3 in
  check_int "level 1" 1 (Ht.level_of_rec sh.Sh.ht b1);
  let b2 = Ht.bucket_addr sh.Sh.ht ~level:2 ~idx:31 in
  check_int "level 2" 2 (Ht.level_of_rec sh.Sh.ht b2)

(* ---------- buddy lists ---------- *)

let test_buddy_push_pop_order () =
  let _, sh = mksh () in
  let mach = sh.Sh.mach in
  let meta = sh.Sh.meta_base in
  (* build three fake free records in the hash *)
  let mk off =
    op sh (fun ctx ->
        match Ht.find_insert_slot sh.Sh.ht off with
        | Some (_, slot) ->
          Pundo.write_all ctx
            (Rec.init ctx slot ~off ~size:32 ~status:L.st_free ~prev:L.nil_off
               ~next:L.nil_off);
          slot
        | None -> Alcotest.fail "no slot")
  in
  let r1 = mk 1024 and r2 = mk 2048 and r3 = mk 3072 in
  let cls = 10 in
  op sh (fun ctx ->
      Pundo.write_all ctx (Bd.push_head mach meta cls r1);
      Pundo.write_all ctx (Bd.push_tail mach meta cls r2);
      Pundo.write_all ctx (Bd.push_head mach meta cls r3));
  (* list order: r3, r1, r2 *)
  check_int "head" r3 (Bd.head mach meta cls);
  check_int "tail" r2 (Bd.tail mach meta cls);
  check_int "middle" r1 (Rec.get_next_free mach r3);
  (* unlink the middle element *)
  op sh (fun ctx -> Pundo.write_all ctx (Bd.unlink mach meta cls r1));
  check_int "head after unlink" r3 (Bd.head mach meta cls);
  check_int "r3 -> r2" r2 (Rec.get_next_free mach r3);
  check_int "r2 <- r3" r3 (Rec.get_prev_free mach r2);
  (* drain *)
  op sh (fun ctx ->
      Pundo.write_all ctx (Bd.unlink mach meta cls r3);
      Pundo.write_all ctx (Bd.unlink mach meta cls r2));
  check_int "empty head" 0 (Bd.head mach meta cls);
  check_int "empty tail" 0 (Bd.tail mach meta cls)

let test_buddy_first_fit () =
  let _, sh = mksh () in
  let meta = sh.Sh.meta_base in
  let mk off size =
    op sh (fun ctx ->
        match Ht.find_insert_slot sh.Sh.ht off with
        | Some (_, slot) ->
          Pundo.write_all ctx
            (Rec.init ctx slot ~off ~size ~status:L.st_free ~prev:L.nil_off
               ~next:L.nil_off);
          slot
        | None -> Alcotest.fail "no slot")
  in
  let small = mk 1024 40 in
  let big = mk 2048 60 in
  let cls = 5 in
  op sh (fun ctx ->
      Pundo.write_all ctx (Bd.push_tail sh.Sh.mach meta cls small);
      Pundo.write_all ctx (Bd.push_tail sh.Sh.mach meta cls big));
  check "first fit skips too-small" true
    (Bd.first_fit sh.Sh.mach meta cls ~min_size:50 ~max_steps:8 = Some big);
  check "first fit bounded" true
    (Bd.first_fit sh.Sh.mach meta cls ~min_size:50 ~max_steps:1 = None)

(* ---------- superblock ---------- *)

let test_superblock_roundtrip () =
  let module Sb = Poseidon.Superblock in
  let mach = Machine.create () in
  Machine.add_region mach ~base ~size:(L.sb_size 8) ~kind:Nvmm.Memdev.Nvmm
    ~numa:0;
  Sb.format mach ~base ~window_size:(1 lsl 30) ~heap_id:9 ~num_slots:8;
  check "formatted" true (Sb.is_formatted mach ~base);
  check_int "heap id" 9 (Sb.heap_id mach ~base);
  check_int "slots" 8 (Sb.num_slots mach ~base);
  check "no slot" false (Sb.slot_active mach ~base 3);
  Sb.publish_slot mach ~base 3 ~meta_base:12288 ~data_base:20480
    ~data_size:4096;
  check "slot active" true (Sb.slot_active mach ~base 3);
  check_int "meta base" 12288 (Sb.slot_meta_base mach ~base 3);
  check_int "data size" 4096 (Sb.slot_data_size mach ~base 3);
  (* publication survives a crash *)
  Nvmm.Memdev.crash (Machine.dev mach) `Strict;
  check "slot durable" true (Sb.slot_active mach ~base 3)

(* ---------- fsck ---------- *)

let mkheap () =
  let mach = Machine.create ~cfg:{ Machine.Config.default with num_cpus = 2 } () in
  ( mach,
    Poseidon.Heap.create mach ~base ~size:(1 lsl 34) ~heap_id:1
      ~sub_data_size:(1 lsl 18) ~base_buckets:32 () )

let test_fsck_clean_heap () =
  let _, h = mkheap () in
  let ps = List.init 20 (fun i -> Option.get (Poseidon.Heap.alloc h (32 * (i + 1)))) in
  List.iteri (fun i p -> if i mod 2 = 0 then Poseidon.Heap.free h p) ps;
  let report = Poseidon.Fsck.run h in
  check "clean" true (Poseidon.Fsck.is_clean report);
  let expected_live =
    List.fold_left
      (fun (i, acc) _ ->
        (i + 1, if i mod 2 = 0 then acc else acc + L.round_up (32 * (i + 1))))
      (0, 0) ps
    |> snd
  in
  check_int "live bytes agree" expected_live report.Poseidon.Fsck.total_live_bytes;
  check_int "no violations" 0 report.Poseidon.Fsck.total_violations;
  check "root not set" false report.Poseidon.Fsck.root_set;
  (* render doesn't raise *)
  ignore (Format.asprintf "%a" Poseidon.Fsck.pp report)

let test_fsck_counts_subheaps () =
  let mach, h = mkheap () in
  let _ = Machine.parallel mach ~threads:2 (fun _ -> ignore (Poseidon.Heap.alloc h 64)) in
  let report = Poseidon.Fsck.run h in
  check_int "two sub-heaps" 2 (List.length report.Poseidon.Fsck.subheaps)

(* unprotected heap + direct metadata smash must surface violations *)
let test_fsck_detects_violation () =
  let mach = Machine.create ~cfg:{ Machine.Config.default with num_cpus = 2 } () in
  let h =
    Poseidon.Heap.create mach ~base ~size:(1 lsl 34) ~heap_id:1
      ~sub_data_size:(1 lsl 18) ~base_buckets:32 ~protected:false ()
  in
  ignore (Poseidon.Heap.alloc h 64);
  let target = ref 0 in
  Poseidon.Heap.iter_subheaps h (fun sh ->
      target := sh.Sh.meta_base + L.sh_off_buddy_heads);
  Machine.write_u64 mach !target 0xDEAD;
  let report = Poseidon.Fsck.run h in
  check "violations found" true (report.Poseidon.Fsck.total_violations > 0)

let () =
  Alcotest.run "internals"
    [ ("record", [ Alcotest.test_case "fields" `Quick test_record_fields ]);
      ( "hashtable",
        [ Alcotest.test_case "lookup miss" `Quick test_hash_lookup_miss;
          Alcotest.test_case "insert many" `Quick test_hash_insert_many_and_lookup;
          Alcotest.test_case "tombstone reuse" `Quick test_hash_tombstone_reuse;
          Alcotest.test_case "extend/shrink" `Quick test_hash_extend_shrink;
          Alcotest.test_case "extend capped" `Quick test_hash_extend_capped;
          Alcotest.test_case "level_of_rec" `Quick test_level_of_rec ] );
      ( "buddy",
        [ Alcotest.test_case "push/pop/unlink" `Quick test_buddy_push_pop_order;
          Alcotest.test_case "first fit" `Quick test_buddy_first_fit ] );
      ( "superblock",
        [ Alcotest.test_case "roundtrip" `Quick test_superblock_roundtrip ] );
      ( "fsck",
        [ Alcotest.test_case "clean heap" `Quick test_fsck_clean_heap;
          Alcotest.test_case "sub-heap count" `Quick test_fsck_counts_subheaps;
          Alcotest.test_case "detects violation" `Quick test_fsck_detects_violation ] ) ]
