(* Magazine-cache wrapper (lib/tcache): bin hit/miss/refill/flush
   mechanics, size-class routing with large-alloc fallback, the
   idle-time top-up (which bins it refills, never inside a pending
   transactional allocation, reclaimed by a crash right after), lease
   durability across crashes (published blocks survive, bin residue
   and stashed frees are reclaimed by recovery), the wrap's refusal of
   an empty magazine and of allocators without cache support,
   store-level equivalence with the uncached path, serve-run metrics
   surfacing, and bounded crashcheck sweeps: kv-tcache-put must be
   green and the tcache-broken mutation must be flagged. *)

module H = Poseidon.Heap
module Memdev = Nvmm.Memdev
module Kv = Service.Kv

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let heap_base = 1 lsl 30
let round_up = Poseidon.Layout.round_up

let mk_wrapped ?(mag = 4) () =
  let mach = Machine.create () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 20) ()
  in
  let inst, h = Tcache.wrap ~mag (Poseidon.instance heap) in
  (mach, heap, inst, h)

(* ---------- bin mechanics ---------- *)

let test_bin_mechanics () =
  let _, _, inst, h = mk_wrapped ~mag:4 () in
  let p1 = Alloc_intf.i_alloc inst 64 in
  check "first alloc succeeds" true (p1 <> None);
  let hits, misses, refills, flushes = Tcache.stats h in
  check_int "first alloc is a miss" 1 misses;
  check_int "miss triggers one refill" 1 refills;
  check_int "no hit yet" 0 hits;
  check_int "no flush yet" 0 flushes;
  (* the carve put mag-1 = 3 blocks in the bin: the next three allocs
     pop without touching the allocator *)
  for _ = 1 to 3 do
    check "bin pop succeeds" true (Alloc_intf.i_alloc inst 64 <> None)
  done;
  let hits, misses, refills, _ = Tcache.stats h in
  check_int "three bin hits" 3 hits;
  check_int "still one miss" 1 misses;
  check_int "still one refill" 1 refills;
  (* a fifth alloc finds the bin empty again *)
  ignore (Alloc_intf.i_alloc inst 64);
  let _, misses, refills, _ = Tcache.stats h in
  check_int "empty bin misses again" 2 misses;
  check_int "second refill" 2 refills

let test_flush_on_overfull_bin () =
  let _, heap, inst, h = mk_wrapped ~mag:2 () in
  (* allocate enough distinct blocks that freeing them all must push a
     bin past 2 x mag and trigger a bulk flush back down to mag *)
  let ptrs =
    List.init 12 (fun _ -> Option.get (Alloc_intf.i_alloc inst 64))
  in
  List.iter (fun p -> Alloc_intf.i_free inst p) ptrs;
  let _, _, _, flushes = Tcache.stats h in
  check "overfull bin flushed" true (flushes > 0);
  (* flushed blocks really went back to the allocator: the heap stays
     self-consistent and nothing leaked *)
  H.check_invariants heap;
  let s = H.stats heap in
  check_int "no block lost to the cache" (H.data_capacity heap)
    (s.H.live_bytes + s.H.free_bytes)

let test_size_class_routing () =
  let _, _, inst, h = mk_wrapped ~mag:4 () in
  (* 33 B rounds to 64: it shares the 64-byte class bin *)
  ignore (Alloc_intf.i_alloc inst 64);
  check "rounded size hits the same class" true
    (Alloc_intf.i_alloc inst 33 <> None);
  let hits, _, _, _ = Tcache.stats h in
  check_int "class sharing produced a hit" 1 hits;
  (* beyond cache_max_size the wrapper falls through to the inner
     allocator: no cache traffic at all *)
  let before = Tcache.stats h in
  check "large alloc falls through" true
    (Alloc_intf.i_alloc inst 8192 <> None);
  check "fallback leaves the counters alone" true (Tcache.stats h = before)

(* The cache has one mode: a magazine below one block and an allocator
   without cache support are refused when wrapping, not passed
   through. *)
let test_wrap_rejects () =
  let poseidon =
    snd ((Workloads.Factories.poseidon ()).Workloads.Factories.make ())
  in
  Alcotest.check_raises "mag 0" (Invalid_argument "Tcache.wrap: mag < 1")
    (fun () -> ignore (Tcache.wrap ~mag:0 poseidon));
  List.iter
    (fun (f : Workloads.Factories.factory) ->
      Alcotest.check_raises f.Workloads.Factories.name
        (Invalid_argument "Tcache.wrap: the allocator has no cache support")
        (fun () -> ignore (Tcache.wrap ~mag:4 (snd (f.make ())))))
    [ Workloads.Factories.pmdk (); Workloads.Factories.makalu () ]

(* ---------- idle-time top-up ---------- *)

(* mag 4: a bin holding at most 2 blocks that has missed gets one carve
   of 4; one holding more, or one whose class never missed, gets none. *)
let test_top_up_refills_missed_bins () =
  let _, _, inst, h = mk_wrapped ~mag:4 () in
  ignore (Option.get (Alloc_intf.i_alloc inst 64));
  check_int "3 blocks left: above half a magazine, no top-up" 0
    (Tcache.top_up h);
  ignore (Option.get (Alloc_intf.i_alloc inst 64));
  check_int "2 blocks left: the 64 B bin is topped up" 1 (Tcache.top_up h);
  check_int "counted as an idle refill" 1 (Tcache.idle_refills h);
  check_int "6 blocks now: above half a magazine again" 0 (Tcache.top_up h);
  let hits0, misses0, refills0, _ = Tcache.stats h in
  check_int "request-path refills untouched" 1 refills0;
  check_int "both carves counted" 2 (refills0 + Tcache.idle_refills h);
  for _ = 1 to 6 do
    ignore (Option.get (Alloc_intf.i_alloc inst 64))
  done;
  let hits, misses, _, _ = Tcache.stats h in
  check_int "the bin gained one magazine: 6 hits" (hits0 + 6) hits;
  check_int "and no miss" misses0 misses;
  (* the 128 B class never missed: its bin stays empty *)
  ignore (Option.get (Alloc_intf.i_alloc inst 128));
  let _, misses, _, _ = Tcache.stats h in
  check_int "a class that never missed was not topped up" (misses0 + 1) misses

let test_top_up_waits_for_pending_tx () =
  let _, _, inst, h = mk_wrapped ~mag:4 () in
  ignore (Option.get (Alloc_intf.i_alloc inst 64));
  ignore (Option.get (Alloc_intf.i_alloc inst 64));
  ignore (Option.get (Alloc_intf.i_tx_alloc inst 64 ~is_end:false));
  check_int "no top-up while a transactional allocation is pending" 0
    (Tcache.top_up h);
  Alloc_intf.i_tx_commit inst;
  check_int "after the commit point it tops up" 1 (Tcache.top_up h)

(* A topped-up magazine is leased, never published: a crash right
   after the top-up reclaims it, and no lease stays armed. *)
let test_crash_after_top_up () =
  let mach, heap, inst, h = mk_wrapped ~mag:4 () in
  for _ = 1 to 4 do
    ignore (Option.get (Alloc_intf.i_alloc inst 64))
  done;
  Memdev.drain (Machine.dev mach);
  let before = (H.stats heap).H.live_bytes in
  check_int "the emptied bin is topped up" 1 (Tcache.top_up h);
  check_int "the magazine is live until recovery" (before + (4 * round_up 64))
    (H.stats heap).H.live_bytes;
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base:heap_base () in
  H.check_invariants h2;
  check_int "recovered to the pre-top-up live bytes" before
    (H.stats h2).H.live_bytes;
  let armed = ref 0 in
  H.iter_subheaps h2 (fun sh ->
      for slot = 0 to Poseidon.Layout.tc_ledger_cap - 1 do
        let a =
          sh.Poseidon.Subheap.meta_base + Poseidon.Layout.sh_off_tc_ledger
          + (slot * Poseidon.Layout.word)
        in
        if Machine.read_u64 mach a <> 0 then incr armed
      done);
  check_int "no reclaim lease armed" 0 !armed

(* ---------- lease durability across crashes ---------- *)

(* A published singleton allocation survives a strict crash; the
   refill's bin residue (leased, never handed out) is reclaimed by
   recovery — live bytes move by exactly one block. *)
let test_publish_survives_bin_residue_reclaimed () =
  let mach, heap, inst, _ = mk_wrapped ~mag:4 () in
  Memdev.drain (Machine.dev mach);
  let baseline = (H.stats heap).H.live_bytes in
  ignore (Option.get (Alloc_intf.i_alloc inst 64));
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base:heap_base () in
  H.check_invariants h2;
  check_int "published block survived, 3 leased bin blocks reclaimed"
    (baseline + round_up 64)
    (H.stats h2).H.live_bytes

(* The stash write-ahead: a freed-and-binned block is reclaimed by
   recovery even though the deallocation itself never ran. *)
let test_stash_reclaimed_after_crash () =
  let mach, heap, inst, _ = mk_wrapped ~mag:4 () in
  Memdev.drain (Machine.dev mach);
  let baseline = (H.stats heap).H.live_bytes in
  let p1 = Option.get (Alloc_intf.i_alloc inst 64) in
  let p2 = Option.get (Alloc_intf.i_alloc inst 64) in
  ignore p2;
  Alloc_intf.i_free inst p1;
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base:heap_base () in
  H.check_invariants h2;
  check_int "stashed free reclaimed, the other block survived"
    (baseline + round_up 64)
    (H.stats h2).H.live_bytes

(* An uncommitted transactional allocation (lease never published)
   vanishes at recovery, exactly like the uncached tx path. *)
let test_unpublished_tx_alloc_rolled_back () =
  let mach, heap, inst, _ = mk_wrapped ~mag:4 () in
  Memdev.drain (Machine.dev mach);
  let baseline = (H.stats heap).H.live_bytes in
  ignore (Alloc_intf.i_tx_alloc inst 64 ~is_end:false);
  (* no tx_commit: the lease publish never happened *)
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base:heap_base () in
  H.check_invariants h2;
  check_int "uncommitted cached alloc rolled back" baseline
    (H.stats h2).H.live_bytes

let test_reset_returns_all_blocks () =
  let _, heap, inst, h = mk_wrapped ~mag:4 () in
  let baseline = (H.stats heap).H.live_bytes in
  let ptrs =
    List.init 6 (fun _ -> Option.get (Alloc_intf.i_alloc inst 64))
  in
  List.iter (fun p -> Alloc_intf.i_free inst p) ptrs;
  Tcache.reset h;
  H.check_invariants heap;
  check_int "reset drains bins back to the allocator" baseline
    (H.stats heap).H.live_bytes;
  (* the cache still works after a reset *)
  check "post-reset alloc" true (Alloc_intf.i_alloc inst 64 <> None)

(* ---------- store-level equivalence ---------- *)

let kv_workload kv =
  for k = 1 to 60 do
    ignore (Kv.put kv ~key:k ~vseed:(500 + k))
  done;
  for k = 1 to 60 do
    if k mod 3 = 0 then ignore (Kv.delete kv ~key:k)
  done;
  for k = 1 to 60 do
    if k mod 4 = 0 then ignore (Kv.put kv ~key:k ~vseed:(900 + k))
  done

let test_kv_equivalence () =
  let mk wrapped =
    let mach = Machine.create () in
    let heap =
      H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
        ~sub_data_size:(1 lsl 20) ()
    in
    let inst = Poseidon.instance heap in
    let inst =
      if wrapped then fst (Tcache.wrap ~mag:4 inst) else inst
    in
    let kv = Kv.create inst ~shards:2 ~value_size:64 in
    kv_workload kv;
    kv
  in
  let plain = mk false and cached = mk true in
  check_int "same key count" (Kv.count_keys plain) (Kv.count_keys cached);
  for k = 1 to 60 do
    check (Printf.sprintf "key %d reads identically" k) true
      (Kv.get plain ~key:k = Kv.get cached ~key:k)
  done

(* ---------- serve metrics (MVCC, tcache and apply gauges) ---------- *)

let test_serve_metrics_surfaced () =
  let module S = Service.Server in
  let factory = Workloads.Factories.poseidon () in
  let scope = "test/tcache/serve" in
  let cfg =
    { S.default_config with
      S.shards = 2;
      clients = 4;
      rate = 30_000.;
      duration = 0.004;
      keyspace = 256;
      preload = 64;
      mvcc_window = 2;
      tcache_mag = 4;
      scope }
  in
  let r =
    S.run
      ~make:(fun () -> factory.Workloads.Factories.make ())
      ~reattach:(fun mach ->
        Poseidon.instance
          (H.attach mach ~base:Workloads.Factories.heap_base ()))
      cfg
  in
  check "run completed requests" true (r.S.completed > 0);
  check_int "no acked write lost" 0 r.S.ledger.S.mismatches;
  let gauge ?(scope = scope) name = Obs.Metrics.get_gauge ~scope name in
  check "mvcc_truncated_reads gauge present" true
    (gauge "mvcc_truncated_reads" <> None);
  for sh = 0 to 1 do
    let sscope = Printf.sprintf "%s/shard%d" scope sh in
    check
      (Printf.sprintf "shard %d chain-count gauge present" sh)
      true
      (gauge ~scope:sscope "mvcc_chains" <> None);
    check
      (Printf.sprintf "shard %d chain-versions gauge present" sh)
      true
      (gauge ~scope:sscope "mvcc_chain_versions" <> None);
    check
      (Printf.sprintf "shard %d applied after its replies" sh)
      true
      (match gauge ~scope:sscope "apply_after_reply_ns" with
       | Some ns -> ns > 0.
       | None -> false)
  done;
  let g name = Option.get (gauge name) in
  check "tcache gauges present" true
    (gauge "tcache_hits" <> None
    && gauge "tcache_misses" <> None
    && gauge "tcache_bin_refills" <> None
    && gauge "tcache_bin_flushes" <> None);
  check "the cache actually served traffic" true
    (g "tcache_hits" +. g "tcache_misses" > 0.);
  check "idle handlers topped their bins up" true
    (g "tcache_idle_refills" > 0.);
  let topup_ns sh =
    Option.get
      (gauge ~scope:(Printf.sprintf "%s/shard%d" scope sh) "idle_topup_ns")
  in
  check "the top-ups took handler time" true (topup_ns 0 +. topup_ns 1 > 0.);
  check "top-up waiters are handled requests" true
    (g "topup_waiters" <= g "handled");
  check "the value index answered the writes' lookups" true
    (g "vindex_hits" > 0. && g "vindex_entries" > 0.)

(* Without a magazine cache no handler tops up: no time in top-ups,
   and no request waits behind one. *)
let test_serve_topup_gauges_mag0 () =
  let module S = Service.Server in
  let factory = Workloads.Factories.poseidon () in
  let scope = "test/tcache/serve-mag0" in
  let r =
    S.run
      ~make:(fun () -> factory.Workloads.Factories.make ())
      ~reattach:(fun _ -> assert false)
      { S.default_config with
        S.shards = 2;
        clients = 4;
        rate = 30_000.;
        duration = 0.004;
        keyspace = 256;
        preload = 64;
        scope }
  in
  check "run completed requests" true (r.S.completed > 0);
  check "no top-up waiters" true
    (Obs.Metrics.get_gauge ~scope "topup_waiters" = Some 0.);
  for sh = 0 to 1 do
    check
      (Printf.sprintf "shard %d spent no time in top-ups" sh)
      true
      (Obs.Metrics.get_gauge ~scope:(Printf.sprintf "%s/shard%d" scope sh)
         "idle_topup_ns"
      = Some 0.)
  done

(* A run that serves no request reports no cache traffic: the preload
   allocates through the cache and fills the value index too, before
   the simulation starts, and the gauges leave it out.  The index keeps
   what the preload put in it. *)
let test_serve_gauges_skip_preload () =
  let module S = Service.Server in
  let factory = Workloads.Factories.poseidon () in
  let scope = "test/tcache/preload-only" in
  let r =
    S.run
      ~make:(fun () -> factory.Workloads.Factories.make ())
      ~reattach:(fun _ -> assert false)
      { S.default_config with
        S.read_pct = 0;
        scan_pct = 0;
        tcache_mag = 8;
        rate = 1000.;
        duration = 0.001;
        scope }
  in
  check_int "no request offered" 0 r.S.offered;
  List.iter
    (fun name ->
      check (name ^ " is 0") true
        (Obs.Metrics.get_gauge ~scope name = Some 0.))
    [ "tcache_hits"; "tcache_misses"; "tcache_bin_refills";
      "tcache_bin_flushes"; "vindex_hits"; "vindex_misses" ];
  check "the index holds every preloaded key" true
    (Obs.Metrics.get_gauge ~scope "vindex_entries"
    = Some
        (float_of_int (min S.default_config.S.preload S.default_config.S.keyspace)))

(* ---------- crashcheck sweeps ---------- *)

let test_kv_tcache_sweep_green () =
  let scn = Option.get (Crashcheck.scenario_by_name "kv-tcache-put") in
  let r = Crashcheck.run ~max_points:6 ~subsets_per_point:1 scn in
  check "sweeps points" true (r.Crashcheck.points_explored >= 6);
  check_int "no counterexamples" 0 (List.length r.Crashcheck.counterexamples)

let test_tcache_broken_flagged () =
  let scn = Option.get (Crashcheck.scenario_by_name "tcache-broken") in
  let r = Crashcheck.run ~max_points:10 ~subsets_per_point:1 scn in
  check "the leaseless-recycle mutation is flagged" true
    (r.Crashcheck.counterexamples <> [])

let () =
  Alcotest.run "tcache"
    [ ( "bins",
        [ Alcotest.test_case "hit/miss/refill accounting" `Quick
            test_bin_mechanics;
          Alcotest.test_case "overfull bin flushes in bulk" `Quick
            test_flush_on_overfull_bin;
          Alcotest.test_case "size-class routing + large fallback" `Quick
            test_size_class_routing;
          Alcotest.test_case "wrap refuses mag zero and the baselines"
            `Quick test_wrap_rejects ] );
      ( "top-up",
        [ Alcotest.test_case "missed, half-empty bins gain a magazine" `Quick
            test_top_up_refills_missed_bins;
          Alcotest.test_case "no top-up during a pending tx" `Quick
            test_top_up_waits_for_pending_tx;
          Alcotest.test_case "crash after a top-up reclaims it" `Quick
            test_crash_after_top_up ] );
      ( "crash",
        [ Alcotest.test_case "publish survives, bin residue reclaimed"
            `Quick test_publish_survives_bin_residue_reclaimed;
          Alcotest.test_case "stashed free reclaimed" `Quick
            test_stash_reclaimed_after_crash;
          Alcotest.test_case "unpublished tx alloc rolled back" `Quick
            test_unpublished_tx_alloc_rolled_back;
          Alcotest.test_case "reset returns every cached block" `Quick
            test_reset_returns_all_blocks ] );
      ( "store",
        [ Alcotest.test_case "cached store = uncached store" `Quick
            test_kv_equivalence;
          Alcotest.test_case "serve surfaces mvcc + tcache gauges" `Quick
            test_serve_metrics_surfaced;
          Alcotest.test_case "serve gauges skip the preload" `Quick
            test_serve_gauges_skip_preload;
          Alcotest.test_case "no top-up gauges without a cache" `Quick
            test_serve_topup_gauges_mag0 ] );
      ( "crashcheck",
        [ Alcotest.test_case "kv-tcache-put sweep green" `Quick
            test_kv_tcache_sweep_green;
          Alcotest.test_case "tcache-broken flagged" `Quick
            test_tcache_broken_flagged ] ) ]
