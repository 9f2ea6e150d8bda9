(* Tests for the Poseidon allocator: layout, hash table, buddy lists,
   allocation/deallocation algorithms, defragmentation, MPK
   protection, transactional allocation, hole punching, pointers,
   plus property-based random-trace invariant checks.

   Fixed-seed random loops seed from CRASH_SEED (see crash_seed.ml);
   a failure prints the seed that reproduces it.  QCheck properties
   already print their failing input. *)

module Prng = Repro_util.Prng
module Memdev = Nvmm.Memdev
module H = Poseidon.Heap
module L = Poseidon.Layout

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let base = 1 lsl 30

let mkheap ?(sub_data_size = 1 lsl 20) ?(base_buckets = 64) ?(protected = true)
    ?(num_cpus = 4) () =
  let cfg = { Machine.Config.default with num_cpus } in
  let mach = Machine.create ~cfg () in
  let h =
    H.create mach ~base ~size:(1 lsl 34) ~heap_id:1 ~sub_data_size
      ~base_buckets ~protected ()
  in
  (mach, h)

let alloc_exn h size =
  match H.alloc h size with
  | Some p -> p
  | None -> Alcotest.fail "unexpected out-of-memory"

(* ---------- layout ---------- *)

let test_layout_no_overlaps () =
  check "undo before micro" true
    (L.sh_off_undo_count + L.word + (L.undo_cap * Persist.Pundo.entry_size)
     <= L.sh_off_micro_count);
  check "micro before heads" true
    (L.sh_off_micro_entries + (L.micro_cap * L.word) <= L.sh_off_buddy_heads);
  check "heads before tails" true
    (L.sh_off_buddy_heads + (L.num_classes * L.word) <= L.sh_off_buddy_tails);
  check "header fits" true
    (L.sh_off_base_buckets + L.word <= L.sh_header_size);
  check "header page aligned" true (L.sh_header_size mod L.page = 0)

let test_class_of_size () =
  check_int "32" 0 (L.class_of_size 32);
  check_int "63" 0 (L.class_of_size 63);
  check_int "64" 1 (L.class_of_size 64);
  check_int "65" 1 (L.class_of_size 65);
  check_int "1MB" 15 (L.class_of_size (1 lsl 20))

let test_round_up_pow2 () =
  check_int "1 -> 32" 32 (L.round_up 1);
  check_int "32" 32 (L.round_up 32);
  check_int "33 -> 64" 64 (L.round_up 33);
  check_int "100 -> 128" 128 (L.round_up 100);
  check_int "4096" 4096 (L.round_up 4096)

(* ---------- basic allocation ---------- *)

let test_alloc_free_roundtrip () =
  let mach, h = mkheap () in
  let p = alloc_exn h 256 in
  let raw = H.get_rawptr h p in
  Machine.write_u64 mach raw 0xFEED;
  check_int "user data" 0xFEED (Machine.read_u64 mach raw);
  H.free h p;
  H.check_invariants h

let test_alloc_zero_and_negative () =
  let _, h = mkheap () in
  check "zero -> None" true (H.alloc h 0 = None);
  check "negative -> None" true (H.alloc h (-5) = None)

let test_alloc_too_big () =
  let _, h = mkheap ~sub_data_size:(1 lsl 20) () in
  check "oversized -> None" true (H.alloc h (1 lsl 21) = None)

let test_alloc_distinct_regions () =
  let _, h = mkheap () in
  let ps = List.init 50 (fun _ -> alloc_exn h 64) in
  let raws = List.map (H.get_rawptr h) ps in
  let sorted = List.sort_uniq compare raws in
  check_int "all distinct" 50 (List.length sorted);
  (* pairwise non-overlap at 64 B *)
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      check "no overlap" true (b - a >= 64);
      pairs rest
    | _ -> ()
  in
  pairs (List.sort compare raws);
  H.check_invariants h

let test_free_enables_reuse () =
  let _, h = mkheap ~sub_data_size:(1 lsl 16) () in
  (* fill completely, free all, fill again *)
  let rec fill acc =
    match H.alloc h 1024 with Some p -> fill (p :: acc) | None -> acc
  in
  let first = fill [] in
  check "filled some" true (List.length first > 0);
  List.iter (H.free h) first;
  H.check_invariants h;
  let second = fill [] in
  check_int "reuse restores capacity" (List.length first) (List.length second);
  List.iter (H.free h) second;
  H.check_invariants h

let test_exact_pool_accounting () =
  let _, h = mkheap () in
  let p1 = alloc_exn h 100 (* rounds to 128 *) in
  let p2 = alloc_exn h 32 in
  let st = H.stats h in
  check_int "live bytes" (128 + 32) st.H.live_bytes;
  H.free h p1;
  H.free h p2;
  let st = H.stats h in
  check_int "live after frees" 0 st.H.live_bytes

let test_data_region_isolation () =
  (* metadata region must not be writable; user region must be *)
  let mach, h = mkheap () in
  let p = alloc_exn h 64 in
  let raw = H.get_rawptr h p in
  Machine.write_u64 mach raw 1;
  (* stray store below the first block lands in metadata -> fault *)
  let meta_target = ref 0 in
  H.iter_subheaps h (fun sh -> meta_target := sh.Poseidon.Subheap.meta_base + L.sh_off_buddy_heads);
  check "metadata protected" true
    (try Machine.write_u64 mach !meta_target 0xBAD; false
     with Mpk.Fault _ -> true);
  H.check_invariants h

let test_unprotected_mode () =
  let mach, h = mkheap ~protected:false () in
  ignore (alloc_exn h 64);
  let meta_target = ref 0 in
  H.iter_subheaps h (fun sh -> meta_target := sh.Poseidon.Subheap.meta_base + L.sh_off_buddy_heads);
  (* ablation mode: no fault *)
  Machine.write_u64 mach !meta_target (Machine.read_u64 mach !meta_target)

(* ---------- persistence barriers per call ---------- *)

(* Each metadata step logs its write set under one undo barrier, and
   the commit adds two fences (dirty lines, then the truncation).  A
   split logs the remainder's record with its push, and a carve run
   logs all its records at once, so a magazine refill off the
   wilderness costs the run's two barriers, its leases and the commit. *)
let test_one_barrier_per_step () =
  let mach, h = mkheap () in
  let fences f =
    let before = (Memdev.counters (Machine.dev mach)).Memdev.fences in
    let r = f () in
    ((Memdev.counters (Machine.dev mach)).Memdev.fences - before, r)
  in
  (* the first call formats the sub-heap *)
  ignore (alloc_exn h 64);
  let split, p = fences (fun () -> alloc_exn h 64) in
  let free, () = fences (fun () -> H.free h p) in
  let realloc, p' = fences (fun () -> alloc_exn h 64) in
  check "the freed block came back" true (p' = p);
  H.free h p';
  let tx, _ = fences (fun () -> Option.get (H.tx_alloc h 64 ~is_end:true)) in
  check_int "free" 3 free;
  check_int "re-allocation without a split" 3 realloc;
  check "split allocation <= 5" true (split <= 5);
  check "tx_alloc ~is_end:true <= 6" true (tx <= 6);
  H.check_invariants h;
  (* a fresh heap: 8 x 64 B carved off the wilderness in one run *)
  let mach, h = mkheap () in
  ignore (alloc_exn h 64);
  let ops = Option.get (H.cache_ops h) in
  let before = (Memdev.counters (Machine.dev mach)).Memdev.fences in
  let carved = ops.Alloc_intf.cache_carve ~size:64 ~count:8 in
  let carve = (Memdev.counters (Machine.dev mach)).Memdev.fences - before in
  check_int "a full magazine" 8 (List.length carved);
  check "carve of 8 x 64 B <= 5" true (carve <= 5);
  H.check_invariants h

(* The undo log writes each batch's new entries as one store, led by
   the count word on an operation's first batch, and writes back each
   covered line once.  One thread on a fresh heap, so no line bounces:
   each NVMM store charges [nvmm_write_ns] and each write-back
   [clwb_ns].  The split's one DRAM store (its new record's occupancy
   byte, 12 ns) rounds away in the quotient. *)
let test_stores_per_call () =
  let mach, h = mkheap () in
  let cfg = Machine.cfg mach and prof = Machine.profile mach in
  let cost f =
    let w = prof.Machine.p_write and fl = prof.Machine.p_flush in
    let r = f () in
    ( ( (prof.Machine.p_write - w) / cfg.Machine.Config.nvmm_write_ns,
        (prof.Machine.p_flush - fl) / cfg.Machine.Config.clwb_ns ),
      r )
  in
  let costs = ref [] in
  ignore
    (Machine.parallel mach ~threads:1 (fun _ ->
         (* the first call formats the sub-heap *)
         ignore (alloc_exn h 64);
         let split, p = cost (fun () -> alloc_exn h 64) in
         let free, () = cost (fun () -> H.free h p) in
         let realloc, p' = cost (fun () -> alloc_exn h 64) in
         check "the freed block came back" true (p' = p);
         H.free h p';
         let tx, _ =
           cost (fun () -> Option.get (H.tx_alloc h 64 ~is_end:true))
         in
         costs :=
           [ ("free", free); ("re-allocation", realloc); ("split", split);
             ("tx_alloc ~is_end:true", tx) ]));
  List.iter2
    (fun (name, (stores, clwbs)) (stores', clwbs') ->
      check_int (name ^ " stores") stores' stores;
      check_int (name ^ " write-backs") clwbs' clwbs)
    !costs
    [ (9, 7); (9, 7); (27, 13); (12, 10) ];
  H.check_invariants h

(* ---------- double / invalid frees (4.4) ---------- *)

let test_double_free_rejected () =
  let _, h = mkheap () in
  let p = alloc_exn h 64 in
  H.free h p;
  H.free h p;
  let st = H.stats h in
  check_int "double free counted" 1 st.H.double_frees;
  H.check_invariants h

let test_invalid_free_rejected () =
  let _, h = mkheap () in
  let p = alloc_exn h 256 in
  H.free h { p with Alloc_intf.off = p.Alloc_intf.off + 32 };
  let st = H.stats h in
  check_int "invalid free counted" 1 st.H.invalid_frees;
  (* original object untouched *)
  H.free h p;
  check_int "live 0" 0 (H.stats h).H.live_bytes;
  H.check_invariants h

let test_foreign_pointer_free () =
  let _, h = mkheap () in
  H.free h Alloc_intf.null;
  H.free h { Alloc_intf.heap_id = 99; subheap = 0; off = 0 };
  H.free h { Alloc_intf.heap_id = 1; subheap = 9999; off = 0 };
  H.check_invariants h

(* ---------- pointers ---------- *)

let test_pointer_roundtrip () =
  let _, h = mkheap () in
  let p = alloc_exn h 64 in
  let raw = H.get_rawptr h p in
  check "roundtrip" true (Alloc_intf.equal_nvmptr p (H.get_nvmptr h raw))

let test_rawptr_validation () =
  let _, h = mkheap () in
  check "null rejected" true
    (try ignore (H.get_rawptr h Alloc_intf.null); false
     with Invalid_argument _ -> true);
  check "outside data rejected" true
    (try ignore (H.get_nvmptr h base); false with Invalid_argument _ -> true);
  (* a negative offset would address the sub-heap's metadata, just
     below its data region: with protection off (ablation A3) a store
     there corrupts a hash record *)
  let p = alloc_exn h 64 in
  let rejected off =
    try ignore (H.get_rawptr h { p with Alloc_intf.off }); false
    with Invalid_argument _ -> true
  in
  check "negative offset rejected" true (rejected (-64));
  check "offset past the data rejected" true (rejected (1 lsl 20));
  check "last granule accepted" false (rejected ((1 lsl 20) - L.min_block))

let test_pack_unpack () =
  let p = { Alloc_intf.heap_id = 7; subheap = 3; off = 0xABCDE } in
  let p' = Alloc_intf.unpack ~heap_id:7 (Alloc_intf.pack p) in
  check "pack/unpack" true (Alloc_intf.equal_nvmptr p p');
  check "null packs" true
    (Alloc_intf.is_null (Alloc_intf.unpack ~heap_id:0 Alloc_intf.packed_null))

(* ---------- root pointer ---------- *)

let test_root_pointer () =
  let mach, h = mkheap () in
  check "initial null" true (Alloc_intf.is_null (H.get_root h));
  let p = alloc_exn h 64 in
  H.set_root h p;
  check "read back" true (Alloc_intf.equal_nvmptr p (H.get_root h));
  (* survives crash + attach *)
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base () in
  check "root durable" true (Alloc_intf.equal_nvmptr p (H.get_root h2))

(* ---------- splitting & defragmentation ---------- *)

let test_split_then_merge_roundtrip () =
  let _, h = mkheap ~sub_data_size:(1 lsl 16) () in
  (* many small allocations split the initial block; freeing them and
     allocating the whole heap forces defragmentation *)
  let small = List.init 512 (fun _ -> alloc_exn h 32) in
  H.check_invariants h;
  List.iter (H.free h) small;
  H.check_invariants h;
  (* a whole-pool allocation: only possible if defragmentation merged
     all 512 fragments back into a single block *)
  (match H.alloc h (1 lsl 16) with
   | Some _ -> ()
   | None -> Alcotest.fail "defrag failed to rebuild the full block");
  H.check_invariants h

let test_full_merge_restores_single_block () =
  let _, h = mkheap ~sub_data_size:(1 lsl 16) () in
  let ps = List.init 128 (fun _ -> alloc_exn h 512) in
  List.iter (H.free h) ps;
  (* whole-pool allocation must succeed after defrag *)
  (match H.alloc h (1 lsl 16) with
   | Some _ -> ()
   | None -> Alcotest.fail "full-size allocation after frees");
  H.check_invariants h

let test_interleaved_sizes () =
  Crash_seed.with_seed ~default:5 @@ fun seed ->
  let _, h = mkheap () in
  let rng = Prng.create seed in
  let live = ref [] in
  for _ = 1 to 500 do
    if Prng.bool rng || !live = [] then begin
      let size = 32 lsl Prng.int rng 7 in
      match H.alloc h size with
      | Some p -> live := p :: !live
      | None -> ()
    end
    else begin
      match !live with
      | p :: rest ->
        H.free h p;
        live := rest
      | [] -> ()
    end
  done;
  H.check_invariants h

(* ---------- per-CPU sub-heaps ---------- *)

let test_per_cpu_subheaps () =
  let mach, h = mkheap ~num_cpus:4 () in
  let seen = Array.make 4 Alloc_intf.null in
  let _ =
    Machine.parallel mach ~threads:4 (fun i ->
        seen.(i) <- Option.get (H.alloc h 64))
  in
  let subs = Array.map (fun p -> p.Alloc_intf.subheap) seen in
  Array.sort compare subs;
  Alcotest.(check (array int)) "each CPU its own sub-heap" [| 0; 1; 2; 3 |] subs;
  check_int "4 active" 4 (H.stats h).H.subheaps_active;
  H.check_invariants h

let test_cross_thread_free () =
  let mach, h = mkheap ~num_cpus:2 () in
  let p = ref Alloc_intf.null in
  let _ =
    Machine.parallel mach ~threads:1 (fun _ -> p := Option.get (H.alloc h 64))
  in
  (* free from CPU 1 (different sub-heap owner) *)
  let _ =
    Machine.parallel mach ~threads:2 (fun i -> if i = 1 then H.free h !p)
  in
  check_int "freed" 0 (H.stats h).H.live_bytes;
  H.check_invariants h

let test_single_subheap_mode () =
  let mach, h =
    let cfg = { Machine.Config.default with num_cpus = 4 } in
    let mach = Machine.create ~cfg () in
    ( mach,
      H.create mach ~base ~size:(1 lsl 34) ~heap_id:1
        ~sub_data_size:(1 lsl 20) ~base_buckets:64 ~single_subheap:true () )
  in
  let _ =
    Machine.parallel mach ~threads:4 (fun _ -> ignore (H.alloc h 64))
  in
  check_int "one sub-heap" 1 (H.stats h).H.subheaps_active

(* ---------- transactional allocation (5.3) ---------- *)

let test_tx_commit () =
  let mach, h = mkheap () in
  let p1 = Option.get (H.tx_alloc h 64 ~is_end:false) in
  let p2 = Option.get (H.tx_alloc h 64 ~is_end:true) in
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base () in
  check_int "committed allocations survive" 128 (H.stats h2).H.live_bytes;
  H.free h2 p1;
  H.free h2 p2;
  H.check_invariants h2

let test_tx_rollback_on_crash () =
  let mach, h = mkheap () in
  let keeper = alloc_exn h 64 in
  ignore (H.tx_alloc h 64 ~is_end:false);
  ignore (H.tx_alloc h 64 ~is_end:false);
  (* crash before commit *)
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base () in
  check_int "uncommitted rolled back, keeper stays" 64
    (H.stats h2).H.live_bytes;
  H.free h2 keeper;
  H.check_invariants h2

let test_tx_abort () =
  let _, h = mkheap () in
  ignore (H.tx_alloc h 64 ~is_end:false);
  ignore (H.tx_alloc h 64 ~is_end:false);
  H.tx_abort h;
  check_int "aborted" 0 (H.stats h).H.live_bytes;
  H.check_invariants h

(* ---------- hash-table growth & hole punching ---------- *)

let test_hash_extension () =
  (* tiny base_buckets forces multi-level growth *)
  let _, h = mkheap ~base_buckets:8 ~sub_data_size:(1 lsl 18) () in
  let ps = List.init 2048 (fun _ -> alloc_exn h 32) in
  check "extended" true ((H.stats h).H.hash_extends > 0);
  H.check_invariants h;
  List.iter (H.free h) ps;
  H.check_invariants h

let test_shrink_metadata () =
  let _, h = mkheap ~base_buckets:8 ~sub_data_size:(1 lsl 18) () in
  let ps = List.init 2048 (fun _ -> alloc_exn h 32) in
  List.iter (H.free h) ps;
  (* merge everything back, then punch empty levels *)
  (match H.alloc h (1 lsl 18) with Some _ -> () | None -> Alcotest.fail "defrag");
  H.shrink_metadata h;
  H.check_invariants h

(* ---------- recovery / restart ---------- *)

let test_attach_clean () =
  let mach, h = mkheap () in
  let p = alloc_exn h 256 in
  Memdev.drain (Machine.dev mach);
  H.finish h;
  let h2 = H.attach mach ~base () in
  check_int "state preserved" 256 (H.stats h2).H.live_bytes;
  H.free h2 p;
  H.check_invariants h2

let test_attach_bad_magic () =
  let mach = Machine.create () in
  Machine.add_region mach ~base ~size:8192 ~kind:Nvmm.Memdev.Nvmm ~numa:0;
  check "bad magic rejected" true
    (try ignore (H.attach mach ~base ()); false with Failure _ -> true)

let test_many_restarts_pkey_recycling () =
  let mach, h = mkheap () in
  ignore (alloc_exn h 64);
  let href = ref h in
  (* more restarts than there are MPK keys: keys must recycle *)
  for _ = 1 to 40 do
    Memdev.crash (Machine.dev mach) `Strict;
    href := H.attach mach ~base ()
  done;
  H.check_invariants !href;
  check_int "object survived all restarts" 64 (H.stats !href).H.live_bytes

(* ---------- wrpkru lockdown (8 extension) ---------- *)

let test_lockdown () =
  let mach, h = mkheap () in
  let p = alloc_exn h 64 in
  H.lockdown h;
  (* an attacker's wrpkru gadget is refused... *)
  check "hijack denied" true
    (try Machine.wrpkru mach (H.pkey h) Mpk.Read_write; false
     with Mpk.Wrpkru_denied _ -> true);
  (* ...while the heap keeps operating normally, including recovery *)
  H.free h p;
  ignore (alloc_exn h 128);
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base () in
  H.check_invariants h2;
  check_int "state preserved" 128 (H.stats h2).H.live_bytes

(* ---------- record hints (magazine-cache frees) ---------- *)

let subheap_of h (p : Alloc_intf.nvmptr) =
  let r = ref None in
  H.iter_subheaps h (fun sh ->
      if sh.Poseidon.Subheap.index = p.Alloc_intf.subheap then r := Some sh);
  Option.get !r

(* A block's record-hint entry: a DRAM word outside the MPK window. *)
let hint_entry h (p : Alloc_intf.nvmptr) =
  (subheap_of h p).Poseidon.Subheap.hints + (p.Alloc_intf.off / L.min_block * L.word)

let record_of h (p : Alloc_intf.nvmptr) =
  Option.get
    (Poseidon.Hashtable.lookup (subheap_of h p).Poseidon.Subheap.ht p.Alloc_intf.off)

(* Carves [n] 64 B blocks as a magazine refill does and hands them out
   (leases published). *)
let carve_out h n =
  let ops = Option.get (H.cache_ops h) in
  let blocks = ops.Alloc_intf.cache_carve ~size:64 ~count:n in
  ops.Alloc_intf.cache_publish blocks;
  (ops, List.map (fun b -> b.Alloc_intf.cb_ptr) blocks)

let stash ops p =
  match ops.Alloc_intf.cache_stash p with
  | Some (lease, size) ->
    check_int "stashed a 64 B block" 64 size;
    { Alloc_intf.cb_ptr = p; cb_lease = lease }
  | None -> Alcotest.fail "stash refused a live block"

let test_cached_frees_skip_probe () =
  let _, h = mkheap () in
  let ops, ptrs = carve_out h 8 in
  ops.Alloc_intf.cache_reclaim (List.map (stash ops) ptrs);
  let s = H.stats h in
  check_int "stash and flush both took the hint" 16 s.H.hint_hits;
  check_int "nothing probed" 0 s.H.hint_misses;
  (* plain frees keep the probe and stay out of the hint counters *)
  H.free h (alloc_exn h 64);
  let s = H.stats h in
  check_int "plain free: no hint traffic" 16 (s.H.hint_hits + s.H.hint_misses);
  check_int "every block came back" 0 s.H.live_bytes;
  H.check_invariants h

(* The same carve/free trace with the hint table intact and with every
   entry wiped before its free: the probe finds the same records, so
   the heaps end block for block alike.  Plain frees of the same blocks
   leave the same live bytes. *)
let test_hinted_frees_match_probing () =
  let run mode =
    let mach, h = mkheap () in
    let rng = Prng.create 7 in
    let live = ref [] in
    for _ = 1 to 30 do
      let ops, ptrs = carve_out h (1 + Prng.int rng 8) in
      let gone, kept = List.partition (fun _ -> Prng.bool rng) (ptrs @ !live) in
      live := kept;
      match mode with
      | `Plain -> List.iter (H.free h) gone
      | `Hinted -> ops.Alloc_intf.cache_reclaim (List.map (stash ops) gone)
      | `Probing ->
        List.iter (fun p -> Machine.write_u64 mach (hint_entry h p) 0) gone;
        ops.Alloc_intf.cache_reclaim (List.map (stash ops) gone)
    done;
    H.check_invariants h;
    let blocks = ref [] in
    H.iter_subheaps h (fun sh ->
        Poseidon.Subheap.iter_blocks sh (fun ~off ~size ~rec_addr ~status ->
            blocks := (off, size, rec_addr, status) :: !blocks));
    (!blocks, H.stats h)
  in
  let hinted, sh = run `Hinted in
  let probing, sp = run `Probing in
  let _, splain = run `Plain in
  check "hinted: no probe" true (sh.H.hint_hits > 0 && sh.H.hint_misses = 0);
  check "probing: no hint" true (sp.H.hint_hits = 0 && sp.H.hint_misses > 0);
  check "same blocks, records and statuses" true (hinted = probing);
  check_int "same live bytes as plain frees" splain.H.live_bytes sh.H.live_bytes;
  check_int "no double free" 0 (sh.H.double_frees + sp.H.double_frees)

(* An entry is only advice: an empty bucket, another block's record, a
   misaligned address, record-shaped fakes in user data below and
   above the table, and a stale record are all caught by validation
   against the protected records — the free lands on the right block,
   or is refused exactly as without a hint. *)
let test_forged_hints_rejected () =
  let mach, h = mkheap ~num_cpus:2 () in
  (* sub-heap 0 first, so user data lies below sub-heap 1's table *)
  let z = alloc_exn h 64 in
  let carved = ref None in
  let _ =
    Machine.parallel mach ~threads:2 (fun i ->
        if i = 1 then carved := Some (carve_out h 5))
  in
  let ops, ptrs = Option.get !carved in
  let a, b, c, d, e =
    match ptrs with [ a; b; c; d; e ] -> (a, b, c, d, e) | _ -> assert false
  in
  check_int "carved in sub-heap 1" 1 a.Alloc_intf.subheap;
  check_int "first block at offset 0" 0 a.Alloc_intf.off;
  let rec_a = record_of h a and rec_c = record_of h c and rec_e = record_of h e in
  let forge p v = Machine.write_u64 mach (hint_entry h p) v in
  let fake_in p ~claims =
    let r = H.get_rawptr h p in
    Machine.write_u64 mach (r + L.rec_off_offset) claims.Alloc_intf.off;
    Machine.write_u64 mach (r + L.rec_off_size) 64;
    Machine.write_u64 mach (r + L.rec_off_status) L.st_alloc;
    r
  in
  let empty_bucket =
    let ht = (subheap_of h a).Poseidon.Subheap.ht in
    let rec find idx =
      let r = Poseidon.Hashtable.bucket_addr ht ~level:0 ~idx in
      if Machine.read_u64 mach (r + L.rec_off_status) = L.st_empty
         && Machine.read_u64 mach (r + L.rec_off_offset) = a.Alloc_intf.off
      then r
      else find (idx + 1)
    in
    find 0
  in
  let below = fake_in z ~claims:d and above = fake_in c ~claims:e in
  forge a empty_bucket;
  forge b rec_c;
  forge c (rec_c + 8);
  forge d below;
  forge e above;
  let stashed = List.map (stash ops) [ a; b; c; d; e ] in
  let s = H.stats h in
  check_int "no forged hint accepted" 0 s.H.hint_hits;
  check_int "every stash fell back to the probe" 5 s.H.hint_misses;
  (* a flush misdirected the same way frees the right blocks *)
  forge a (record_of h d);
  forge b 0;
  forge c 8;
  forge e rec_e;
  ops.Alloc_intf.cache_reclaim stashed;
  let s = H.stats h in
  check_int "only the true entry was taken" 1 s.H.hint_hits;
  check_int "nothing freed twice" 0 (s.H.double_frees + s.H.invalid_frees);
  check_int "only the sub-heap 0 block is live" 64 s.H.live_bytes;
  H.check_invariants h;
  (* stale: [a]'s own record now holds a free block *)
  forge a rec_a;
  check "stale hint: double free refused" true
    (ops.Alloc_intf.cache_stash a = None);
  H.free h a;
  check_int "the double free was counted" 1 (H.stats h).H.double_frees;
  H.free h z;
  check_int "every block came back" 0 (H.stats h).H.live_bytes;
  H.check_invariants h

(* ---------- magazine refills: insert skips and run splits ---------- *)

module Ht = Poseidon.Hashtable

let blocks_of h =
  let acc = ref [] in
  H.iter_subheaps h (fun sh ->
      Poseidon.Subheap.iter_blocks sh (fun ~off ~size ~rec_addr:_ ~status ->
          acc := (off, size, status) :: !acc));
  List.rev !acc

(* Reference insert slot: every level's whole probe window, in order,
   full levels included. *)
let brute_insert_slot mach ht off =
  let reusable a =
    let st = Machine.read_u64 mach (a + L.rec_off_status) in
    st = L.st_empty || st = L.st_tombstone
  in
  let rec scan level =
    if level >= Ht.levels ht then None
    else
      match List.find_opt reusable (Ht.window ht ~level ~off) with
      | Some a -> Some (level, a)
      | None -> scan (level + 1)
  in
  scan 0

(* Frees two address-adjacent allocated 32 B blocks of [sh], the right
   one's record in [level], then lets a failing whole-region request
   defragment: the merge tombstones the right block's record, which is
   returned. *)
let tombstone_by_merge h sh ~level =
  let ht = sh.Poseidon.Subheap.ht in
  let pair = ref None and left = ref None in
  Poseidon.Subheap.iter_blocks sh (fun ~off ~size ~rec_addr ~status ->
      let alloc32 = status = L.st_alloc && size = 32 in
      (match !left with
       | Some loff
         when alloc32 && !pair = None && Ht.level_of_rec ht rec_addr = level ->
         pair := Some (loff, off, rec_addr)
       | _ -> ());
      left := if alloc32 then Some off else None);
  let loff, roff, right_rec = Option.get !pair in
  let ptr off =
    { Alloc_intf.heap_id = H.heap_id h; subheap = sh.Poseidon.Subheap.index; off }
  in
  H.free h (ptr loff);
  H.free h (ptr roff);
  check "the whole region is never free" true
    (H.alloc h sh.Poseidon.Subheap.data_size = None);
  check "the right block merged away" true (Ht.lookup ht roff = None);
  right_rec

let test_insert_skips_full_levels () =
  let mach, h = mkheap ~protected:false ~base_buckets:8 ~sub_data_size:(1 lsl 18) () in
  let sh = subheap_of h (List.hd (List.init 600 (fun _ -> alloc_exn h 32))) in
  let ht = sh.Poseidon.Subheap.ht in
  let full level = Ht.level_live ht level = Ht.level_buckets ht level in
  check "levels 0 and 1 exactly full" true (full 0 && full 1);
  check "a level with room" true (Ht.full_levels ht < Ht.levels ht);
  let offs = List.init 4096 (fun g -> g * L.min_block) in
  let agree what =
    List.iter
      (fun off ->
        if Ht.find_insert_slot ht off <> brute_insert_slot mach ht off then
          Alcotest.failf "%s: offset %d lands elsewhere than a full scan" what off)
      offs
  in
  agree "full levels";
  (* one tombstone in level 1: no longer full, so it must be probed.
     A real merge makes it: two adjacent 32 B blocks, the right one's
     record in level 1, are freed, and a request for the whole region
     fails and defragments, merging them. *)
  let victim = tombstone_by_merge h sh ~level:1 in
  check "the victim is tombstoned" true
    (Machine.read_u64 mach (Poseidon.Record.status_at victim) = L.st_tombstone);
  check "level 1 has room" false (full 1);
  agree "one tombstone";
  check "the tombstone slot is found" true
    (List.exists (fun off -> Ht.find_insert_slot ht off = Some (1, victim)) offs)

(* ---------- the occupancy summary ---------- *)

(* Every offset's insert slot, in every sub-heap, is the one a full
   scan finds: the summary calls no reusable bucket live. *)
let agree_everywhere what mach h =
  H.iter_subheaps h (fun sh ->
      let ht = sh.Poseidon.Subheap.ht in
      for g = 0 to (sh.Poseidon.Subheap.data_size / L.min_block) - 1 do
        let off = g * L.min_block in
        if Ht.find_insert_slot ht off <> brute_insert_slot mach ht off then
          Alcotest.failf "%s: sub-heap %d, offset %d lands elsewhere than a full scan"
            what sh.Poseidon.Subheap.index off
      done)

(* Random alloc/free churn; every 250 steps a request for the whole
   region fails and defragments, merging free neighbours. *)
let test_summary_after_churn () =
  let mach, h = mkheap ~protected:false ~base_buckets:8 ~sub_data_size:(1 lsl 18) () in
  let rng = Prng.create 7 in
  let live = Array.make 400 None in
  for step = 1 to 5000 do
    let i = Prng.int rng 400 in
    (match live.(i) with
     | Some p ->
       H.free h p;
       live.(i) <- None
     | None -> live.(i) <- H.alloc h (32 lsl Prng.int rng 5));
    if step mod 250 = 0 then ignore (H.alloc h (1 lsl 18))
  done;
  check "blocks merged" true ((H.stats h).H.merges > 50);
  H.check_invariants h;
  agree_everywhere "churn" mach h

(* Grow the table, merge everything back, punch the empty levels, then
   grow it again over the punched areas. *)
let test_summary_after_shrink () =
  let mach, h = mkheap ~protected:false ~base_buckets:8 ~sub_data_size:(1 lsl 18) () in
  let ps = List.init 2048 (fun _ -> alloc_exn h 32) in
  let ht = (subheap_of h (List.hd ps)).Poseidon.Subheap.ht in
  let grown = Ht.levels ht in
  List.iter (H.free h) ps;
  let whole = alloc_exn h (1 lsl 18) in
  H.shrink_metadata h;
  check "levels punched" true (Ht.levels ht < grown);
  agree_everywhere "punched" mach h;
  H.free h whole;
  let ps = List.init 2048 (fun _ -> alloc_exn h 32) in
  check "re-extended" true (Ht.levels ht > 2);
  agree_everywhere "re-extended" mach h;
  List.iter (H.free h) ps;
  H.check_invariants h

(* The drain persists summary lines that call every record live; the
   merges that follow tombstone most of them, and an adversarial crash
   brings a random half of the drained lines back.  None may count
   after the attach. *)
let test_summary_after_crash () =
  List.iter
    (fun seed ->
      let mach, h =
        mkheap ~protected:false ~base_buckets:8 ~sub_data_size:(1 lsl 18) ()
      in
      let ps = List.init 600 (fun _ -> alloc_exn h 32) in
      Memdev.drain (Machine.dev mach);
      List.iteri (fun i p -> if i mod 3 <> 0 then H.free h p) ps;
      check "the whole region is never free" true (H.alloc h (1 lsl 18) = None);
      check "blocks merged" true ((H.stats h).H.merges > 100);
      Memdev.crash (Machine.dev mach) (`Adversarial (Prng.create seed));
      let h = H.attach mach ~base ~protected:false () in
      H.check_invariants h;
      agree_everywhere "adversarial crash" mach h)
    [ 1; 2; 3 ]

(* NVMM bucket reads a search without the summary makes for [off]: in
   each level it cannot skip, every bucket up to the window's first
   reusable one. *)
let probe_reads mach ht off =
  let reusable a =
    let st = Machine.read_u64 mach (a + L.rec_off_status) in
    st = L.st_empty || st = L.st_tombstone
  in
  let rec scan level acc =
    if level >= Ht.levels ht then acc
    else if Ht.level_live ht level = Ht.level_buckets ht level then
      scan (level + 1) acc
    else
      let rec probe n = function
        | [] -> scan (level + 1) (acc + n)
        | a :: rest -> if reusable a then acc + n + 1 else probe (n + 1) rest
      in
      probe 0 (Ht.window ht ~level ~off)
  in
  scan 0 0

(* 2500 blocks of 32 B leave level 7 of an 8-bucket table over 95%
   full: a search that reads every bucket it cannot skip by counter
   pays ~9 reads per insert there, the summary one. *)
let test_slot_reads_per_insert () =
  let mach, h = mkheap ~protected:false ~base_buckets:8 ~sub_data_size:(1 lsl 18) () in
  let n = 2500 in
  let sh = subheap_of h (alloc_exn h 32) in
  for _ = 2 to n do ignore (alloc_exn h 32) done;
  let ht = sh.Poseidon.Subheap.ht in
  check "a level over 95% full, not full" true
    (List.exists
       (fun level ->
         let live = Ht.level_live ht level and size = Ht.level_buckets ht level in
         live < size && 20 * live > 19 * size)
       (List.init (Ht.levels ht) Fun.id));
  let inserts = 200 in
  let before = (H.stats h).H.hash_slot_reads in
  let probes = ref 0 in
  for k = n to n + inserts - 1 do
    (* the split leaves its remainder, a fresh record, at the next
       granule *)
    probes := !probes + probe_reads mach ht ((k + 1) * L.min_block);
    ignore (alloc_exn h 32)
  done;
  let reads = (H.stats h).H.hash_slot_reads - before in
  check "without the summary: >= 4 reads per insert" true (!probes >= 4 * inserts);
  check "with it: <= 1.5 reads per insert" true (2 * reads <= 3 * inserts);
  check_int "stats sum the sub-heaps" (Ht.slot_reads ht) (H.stats h).H.hash_slot_reads

(* Also on a 512 B data region, which the carve uses up exactly. *)
let test_carve_matches_allocs () =
  List.iter
    (fun sub_data_size ->
      let _, carved = mkheap ~sub_data_size ()
      and _, allocated = mkheap ~sub_data_size () in
      let ops = Option.get (H.cache_ops carved) in
      check_int "a full magazine" 8
        (List.length (ops.Alloc_intf.cache_carve ~size:64 ~count:8));
      for _ = 1 to 8 do ignore (alloc_exn allocated 64) done;
      check "same blocks, sizes and statuses" true
        (blocks_of carved = blocks_of allocated);
      H.check_invariants carved)
    [ 1 lsl 20; 512 ]

(* Each run takes at most as many blocks as there are free ledger
   slots, so carving stops with every slot leased. *)
let test_carve_ledger_bound () =
  let _, h = mkheap () in
  let ops = Option.get (H.cache_ops h) in
  let rec refill acc =
    match ops.Alloc_intf.cache_carve ~size:64 ~count:8 with
    | [] -> acc
    | blocks -> refill (blocks @ acc)
  in
  let carved = refill (ops.Alloc_intf.cache_carve ~size:64 ~count:5) in
  check_int "one block per ledger slot" L.tc_ledger_cap (List.length carved);
  H.check_invariants h;
  ops.Alloc_intf.cache_reclaim carved;
  check_int "no live bytes" 0 (H.stats h).H.live_bytes;
  H.check_invariants h

(* With one bucket in level 0 the table tops out at 4095 records, so
   carving 64 B blocks off a 1 MiB region runs it out of slots: a
   block whose record finds none keeps the rest of its free block and
   is freed again, never handed to the magazine. *)
let test_carve_hash_exhausted () =
  let _, h = mkheap ~base_buckets:1 () in
  let ops = Option.get (H.cache_ops h) in
  (* published refills release their ledger slots *)
  let rec refill acc =
    match ops.Alloc_intf.cache_carve ~size:64 ~count:8 with
    | [] -> acc
    | blocks ->
      ops.Alloc_intf.cache_publish blocks;
      refill (List.rev_append (List.map (fun b -> b.Alloc_intf.cb_ptr) blocks) acc)
  in
  let carved = refill [] in
  check "the table ran out before the pool" true
    (List.length carved * 64 < 1 lsl 20);
  H.check_invariants h;
  check_int "only exact blocks are live" (64 * List.length carved)
    (H.stats h).H.live_bytes;
  check "free space left over" true
    (List.exists (fun (_, size, st) -> st = L.st_free && size > 64) (blocks_of h));
  List.iter (H.free h) carved;
  check_int "no live bytes" 0 (H.stats h).H.live_bytes;
  H.check_invariants h

(* A 192 B hole bounded by a live right neighbour: the carve takes the
   whole hole as one run, relinking the neighbour, then the wilderness
   (the free space at the end of the data region). *)
let test_carve_hole_then_wilderness () =
  let _, h = mkheap () in
  let freed = alloc_exn h 256 in
  let right = alloc_exn h 64 in
  H.free h freed;
  let left = alloc_exn h 64 in
  check "the hole" true
    (List.mem (64, 192, L.st_free) (blocks_of h)
     && List.mem (256, 64, L.st_alloc) (blocks_of h));
  let live = (H.stats h).H.live_bytes in
  let ops = Option.get (H.cache_ops h) in
  let carved = ops.Alloc_intf.cache_carve ~size:64 ~count:8 in
  Alcotest.(check (list int)) "the hole, then the wilderness"
    [ 64; 128; 192; 320; 384; 448; 512; 576 ]
    (List.map (fun b -> b.Alloc_intf.cb_ptr.Alloc_intf.off) carved);
  H.check_invariants h;
  ops.Alloc_intf.cache_reclaim carved;
  check_int "the reclaim returns every carved block" live (H.stats h).H.live_bytes;
  H.free h left;
  H.free h right;
  check_int "no live bytes" 0 (H.stats h).H.live_bytes;
  H.check_invariants h

(* ---------- property: random traces ---------- *)

let random_trace ~ops ~seed ~crash =
  let mach, h = mkheap ~sub_data_size:(1 lsl 18) ~base_buckets:32 () in
  let rng = Prng.create seed in
  let live = ref [] in
  let model = Hashtbl.create 64 in (* raw -> size *)
  for _ = 1 to ops do
    if Prng.bool rng || !live = [] then begin
      let size = 32 lsl Prng.int rng 6 in
      match H.alloc h size with
      | Some p ->
        live := p :: !live;
        Hashtbl.replace model (H.get_rawptr h p) (L.round_up size)
      | None -> ()
    end
    else begin
      let n = Prng.int rng (List.length !live) in
      let p = List.nth !live n in
      live := List.filteri (fun i _ -> i <> n) !live;
      Hashtbl.remove model (H.get_rawptr h p);
      H.free h p
    end
  done;
  if crash then begin
    Memdev.crash (Machine.dev mach) `Strict;
    let h2 = H.attach mach ~base () in
    H.check_invariants h2;
    (* every live object still allocated with its size *)
    let expected = Hashtbl.fold (fun _ s acc -> acc + s) model 0 in
    (H.stats h2).H.live_bytes = expected
  end
  else begin
    H.check_invariants h;
    let expected = Hashtbl.fold (fun _ s acc -> acc + s) model 0 in
    (H.stats h).H.live_bytes = expected
  end

let prop_random_trace =
  QCheck.Test.make ~name:"random alloc/free traces keep invariants" ~count:20
    QCheck.small_nat
    (fun seed -> random_trace ~ops:400 ~seed ~crash:false)

let prop_random_trace_crash =
  QCheck.Test.make ~name:"random traces survive crash+recovery" ~count:15
    QCheck.small_nat
    (fun seed -> random_trace ~ops:250 ~seed ~crash:true)

let prop_no_overlap =
  QCheck.Test.make ~name:"live allocations never overlap" ~count:15
    QCheck.small_nat
    (fun seed ->
      let _, h = mkheap ~sub_data_size:(1 lsl 17) ~base_buckets:32 () in
      let rng = Prng.create (seed + 1000) in
      let live = ref [] in
      for _ = 1 to 300 do
        if Prng.bool rng || !live = [] then begin
          let size = 32 lsl Prng.int rng 5 in
          match H.alloc h size with
          | Some p -> live := (H.get_rawptr h p, L.round_up size, p) :: !live
          | None -> ()
        end
        else begin
          match !live with
          | (_, _, p) :: rest ->
            H.free h p;
            live := rest
          | [] -> ()
        end
      done;
      let sorted =
        List.sort (fun (a, _, _) (b, _, _) -> compare a b) !live
      in
      let rec disjoint = function
        | (a, sa, _) :: ((b, _, _) :: _ as rest) ->
          a + sa <= b && disjoint rest
        | _ -> true
      in
      disjoint sorted)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_random_trace; prop_random_trace_crash; prop_no_overlap ]

let () =
  Alcotest.run "poseidon"
    [ ( "layout",
        [ Alcotest.test_case "no overlaps" `Quick test_layout_no_overlaps;
          Alcotest.test_case "class_of_size" `Quick test_class_of_size;
          Alcotest.test_case "round_up" `Quick test_round_up_pow2 ] );
      ( "alloc",
        [ Alcotest.test_case "roundtrip" `Quick test_alloc_free_roundtrip;
          Alcotest.test_case "zero/negative" `Quick test_alloc_zero_and_negative;
          Alcotest.test_case "too big" `Quick test_alloc_too_big;
          Alcotest.test_case "distinct regions" `Quick test_alloc_distinct_regions;
          Alcotest.test_case "reuse after free" `Quick test_free_enables_reuse;
          Alcotest.test_case "accounting" `Quick test_exact_pool_accounting;
          Alcotest.test_case "interleaved sizes" `Quick test_interleaved_sizes;
          Alcotest.test_case "one barrier per step" `Quick test_one_barrier_per_step;
          Alcotest.test_case "stores per call" `Quick test_stores_per_call ] );
      ( "safety",
        [ Alcotest.test_case "metadata isolation" `Quick test_data_region_isolation;
          Alcotest.test_case "unprotected mode" `Quick test_unprotected_mode;
          Alcotest.test_case "double free" `Quick test_double_free_rejected;
          Alcotest.test_case "invalid free" `Quick test_invalid_free_rejected;
          Alcotest.test_case "foreign pointers" `Quick test_foreign_pointer_free;
          Alcotest.test_case "wrpkru lockdown" `Quick test_lockdown ] );
      ( "pointers",
        [ Alcotest.test_case "roundtrip" `Quick test_pointer_roundtrip;
          Alcotest.test_case "validation" `Quick test_rawptr_validation;
          Alcotest.test_case "pack/unpack" `Quick test_pack_unpack;
          Alcotest.test_case "root" `Quick test_root_pointer ] );
      ( "defrag",
        [ Alcotest.test_case "split/merge roundtrip" `Quick
            test_split_then_merge_roundtrip;
          Alcotest.test_case "full merge" `Quick test_full_merge_restores_single_block ] );
      ( "subheaps",
        [ Alcotest.test_case "per-CPU" `Quick test_per_cpu_subheaps;
          Alcotest.test_case "cross-thread free" `Quick test_cross_thread_free;
          Alcotest.test_case "single mode" `Quick test_single_subheap_mode ] );
      ( "tx",
        [ Alcotest.test_case "commit" `Quick test_tx_commit;
          Alcotest.test_case "rollback on crash" `Quick test_tx_rollback_on_crash;
          Alcotest.test_case "abort" `Quick test_tx_abort ] );
      ( "hash",
        [ Alcotest.test_case "extension" `Quick test_hash_extension;
          Alcotest.test_case "shrink/punch" `Quick test_shrink_metadata ] );
      ( "restart",
        [ Alcotest.test_case "clean attach" `Quick test_attach_clean;
          Alcotest.test_case "bad magic" `Quick test_attach_bad_magic;
          Alcotest.test_case "pkey recycling" `Quick test_many_restarts_pkey_recycling ] );
      ( "hints",
        [ Alcotest.test_case "cached frees skip the probe" `Quick
            test_cached_frees_skip_probe;
          Alcotest.test_case "hinted frees match probing ones" `Quick
            test_hinted_frees_match_probing;
          Alcotest.test_case "forged and stale hints rejected" `Quick
            test_forged_hints_rejected ] );
      ( "refill",
        [ Alcotest.test_case "inserts skip full levels" `Quick
            test_insert_skips_full_levels;
          Alcotest.test_case "carve matches single allocs" `Quick
            test_carve_matches_allocs;
          Alcotest.test_case "carve takes a hole, then the wilderness" `Quick
            test_carve_hole_then_wilderness;
          Alcotest.test_case "carve bounded by the ledger" `Quick
            test_carve_ledger_bound;
          Alcotest.test_case "carve with the hash table full" `Quick
            test_carve_hash_exhausted ] );
      ( "summary",
        [ Alcotest.test_case "exact after merging churn" `Quick
            test_summary_after_churn;
          Alcotest.test_case "exact after shrink and re-extend" `Quick
            test_summary_after_shrink;
          Alcotest.test_case "exact after an adversarial crash" `Quick
            test_summary_after_crash;
          Alcotest.test_case "bucket reads per insert" `Quick
            test_slot_reads_per_insert ] );
      ("properties", qsuite) ]
