(* Systematic crash-injection tests: crash Poseidon at *every*
   persistent-barrier boundary of an operation sequence (strict mode)
   and at random ones (adversarial mode), then recover and verify
   consistency.

   Mechanism: every mutation between two sfences is volatile, so a
   strict crash "after fence k" covers every crash instant in
   (fence k, fence k+1).  A fence hook aborts execution exactly there,
   mid-operation included; adversarial mode additionally persists
   random subsets of the unflushed lines, modelling cache eviction.

   Randomized loops seed from CRASH_SEED (see crash_seed.ml); a
   failure prints the seed that reproduces it.  The *systematic*
   (exhaustive, oracle-checked) exploration lives in lib/crashcheck
   and test_crashcheck.ml. *)

module Prng = Repro_util.Prng
module Memdev = Nvmm.Memdev
module H = Poseidon.Heap

let check = Alcotest.(check bool)

let base = 1 lsl 30

exception Crash_now

let mkmach () =
  let cfg = { Machine.Config.default with num_cpus = 2 } in
  Machine.create ~cfg ()

let mkheap mach =
  H.create mach ~base ~size:(1 lsl 34) ~heap_id:1 ~sub_data_size:(1 lsl 18)
    ~base_buckets:32 ()

(* the canonical trace: allocations of mixed sizes, frees, a tx *)
let trace h =
  let ps = ref [] in
  for i = 1 to 12 do
    match H.alloc h (32 * i) with
    | Some p -> ps := p :: !ps
    | None -> ()
  done;
  (match !ps with
   | a :: b :: rest ->
     H.free h a;
     H.free h b;
     ps := rest
   | _ -> ());
  ignore (H.tx_alloc h 64 ~is_end:false);
  ignore (H.tx_alloc h 128 ~is_end:true)

(* run the trace, aborting after [crash_after] fences (counted from
   the start of the trace); returns the machine *)
let run_trace ~crash_after =
  let mach = mkmach () in
  let h = mkheap mach in
  let dev = Machine.dev mach in
  Memdev.reset_counters dev;
  Memdev.set_persistence_hook dev
    (Some
       (fun { Memdev.fence_no = n; _ } ->
         if n >= crash_after then raise Crash_now));
  (try trace h with Crash_now -> ());
  Memdev.set_persistence_hook dev None;
  mach

let count_fences () =
  let mach = mkmach () in
  let h = mkheap mach in
  Memdev.reset_counters (Machine.dev mach);
  trace h;
  (Memdev.counters (Machine.dev mach)).Memdev.fences

let recover_and_check mach =
  let h2 = H.attach mach ~base () in
  H.check_invariants h2;
  h2

let test_crash_at_every_fence () =
  let total = count_fences () in
  check "trace produces many fences" true (total > 50);
  for k = 1 to total do
    let mach = run_trace ~crash_after:k in
    Memdev.crash (Machine.dev mach) `Strict;
    ignore (recover_and_check mach)
  done

let test_crash_adversarial_random () =
  Crash_seed.with_seed ~default:2024 @@ fun seed ->
  let total = count_fences () in
  let rng = Prng.create seed in
  for _ = 1 to 60 do
    let k = 1 + Prng.int rng total in
    let mach = run_trace ~crash_after:k in
    Memdev.crash (Machine.dev mach) (`Adversarial rng);
    ignore (recover_and_check mach)
  done

let test_double_crash_during_recovery () =
  (* crash mid-trace, recover partially (recovery itself interrupted
     by a fence-hook crash), then recover fully: idempotent replay
     (5.8) *)
  Crash_seed.with_seed ~default:7 @@ fun seed ->
  let total = count_fences () in
  let rng = Prng.create seed in
  for _ = 1 to 25 do
    let k = 1 + Prng.int rng total in
    let mach = run_trace ~crash_after:k in
    let dev = Machine.dev mach in
    Memdev.crash dev `Strict;
    (* interrupt the recovery after a few fences *)
    let fences_now = (Memdev.counters dev).Memdev.fences in
    Memdev.set_persistence_hook dev
      (Some
         (fun { Memdev.fence_no = n; _ } ->
           if n >= fences_now + 1 + Prng.int rng 5 then raise Crash_now));
    (try ignore (H.attach mach ~base ()) with Crash_now -> ());
    Memdev.set_persistence_hook dev None;
    Memdev.crash dev (`Adversarial rng);
    ignore (recover_and_check mach)
  done

let test_committed_allocations_survive_any_crash () =
  (* allocations whose API call returned before the crash point must
     survive: compare the live bytes after recovery with the sizes
     whose H.alloc completed *)
  Crash_seed.with_seed ~default:99 @@ fun seed ->
  let total = count_fences () in
  let rng = Prng.create seed in
  for _ = 1 to 40 do
    let k = 1 + Prng.int rng total in
    let mach = mkmach () in
    let h = mkheap mach in
    let dev = Machine.dev mach in
    Memdev.reset_counters dev;
    Memdev.set_persistence_hook dev
      (Some (fun { Memdev.fence_no = n; _ } -> if n >= k then raise Crash_now));
    let completed = ref 0 in
    (try
       for i = 1 to 14 do
         match H.alloc h (32 * i) with
         | Some _ -> completed := !completed + Poseidon.Layout.round_up (32 * i)
         | None -> ()
       done
     with Crash_now -> ());
    Memdev.set_persistence_hook dev None;
    let in_flight = ref 0 in
    (* at most one allocation was in flight when the crash hit; its
       rounded size is bounded by the largest request *)
    in_flight := 512;
    Memdev.crash dev `Strict;
    let h2 = recover_and_check mach in
    let live = (H.stats h2).H.live_bytes in
    check "all completed allocations survive" true
      (live >= !completed && live <= !completed + !in_flight)
  done

let test_tx_atomicity_at_any_crash_point () =
  (* random sequences of multi-allocation transactions, crashed at a
     random fence: after recovery the live bytes equal exactly the sum
     of the transactions whose commit completed — every transaction is
     all-or-nothing (4.5) *)
  Crash_seed.with_seed ~default:777 @@ fun seed ->
  let rng = Prng.create seed in
  for _round = 1 to 40 do
    let mach = mkmach () in
    let h = mkheap mach in
    let dev = Machine.dev mach in
    Memdev.reset_counters dev;
    let committed = ref 0 in
    let k = 5 + Prng.int rng 120 in
    Memdev.set_persistence_hook dev
      (Some (fun { Memdev.fence_no = n; _ } -> if n >= k then raise Crash_now));
    (try
       for _tx = 1 to 6 do
         let n = 1 + Prng.int rng 4 in
         let sizes = List.init n (fun _ -> 32 lsl Prng.int rng 4) in
         let sum =
           List.fold_left (fun a s -> a + Poseidon.Layout.round_up s) 0 sizes
         in
         List.iteri
           (fun i s ->
             match H.tx_alloc h s ~is_end:(i = n - 1) with
             | Some _ -> if i = n - 1 then committed := !committed + sum
             | None -> failwith "oom")
           sizes
       done
     with Crash_now -> ());
    Memdev.set_persistence_hook dev None;
    Memdev.crash dev (if Prng.bool rng then `Strict else `Adversarial rng);
    let h2 = recover_and_check mach in
    let live = (H.stats h2).H.live_bytes in
    (* the crash may hit between the last sub-allocation's micro-log
       append and our [committed] bump: the transaction is then
       legitimately committed on-media though the loop never counted
       it.  Accept exactly that one extra transaction. *)
    check "all-or-nothing" true
      (live >= !committed && live - !committed <= 4 * 512)
  done

let test_pmdk_crash_recovery_consistent () =
  (* the PMDK baseline also recovers its lanes and action log *)
  Crash_seed.with_seed ~default:4242 @@ fun seed ->
  let rng = Prng.create seed in
  for _ = 1 to 20 do
    let mach = Machine.create () in
    let h = Pmdk_sim.Heap.create mach ~base ~size:(1 lsl 24) ~heap_id:1 () in
    let live = ref [] in
    for _ = 1 to 40 do
      if Prng.bool rng || !live = [] then begin
        match Pmdk_sim.Heap.alloc h (16 + Prng.int rng 2000) with
        | Some p -> live := p :: !live
        | None -> ()
      end
      else begin
        match !live with
        | p :: rest ->
          Pmdk_sim.Heap.free h p;
          live := rest
        | [] -> ()
      end
    done;
    Memdev.crash (Machine.dev mach) `Strict;
    let h2 = Pmdk_sim.Heap.attach mach ~base () in
    let st = Pmdk_sim.Heap.stats h2 in
    check "chunk walk intact" false st.Pmdk_sim.Heap.walk_damaged;
    (* live objects still readable: their in-place headers intact *)
    List.iter
      (fun p ->
        check "header magic" true
          (Machine.read_u64 mach (p - 8) = Pmdk_sim.Layout.obj_magic))
      !live
  done

let test_pmdk_crash_mid_op () =
  Crash_seed.with_seed ~default:31337 @@ fun seed ->
  let rng = Prng.create seed in
  for _ = 1 to 25 do
    let mach = Machine.create () in
    let h = Pmdk_sim.Heap.create mach ~base ~size:(1 lsl 24) ~heap_id:1 () in
    let dev = Machine.dev mach in
    Memdev.reset_counters dev;
    let k = 1 + Prng.int rng 60 in
    Memdev.set_persistence_hook dev
      (Some (fun { Memdev.fence_no = n; _ } -> if n >= k then raise Crash_now));
    (try
       for i = 1 to 10 do
         (match Pmdk_sim.Heap.alloc h (64 * i) with
          | Some p -> if i mod 3 = 0 then Pmdk_sim.Heap.free h p
          | None -> ())
       done
     with Crash_now -> ());
    Memdev.set_persistence_hook dev None;
    Memdev.crash dev `Strict;
    let h2 = Pmdk_sim.Heap.attach mach ~base () in
    check "walk survives mid-op crash" false
      (Pmdk_sim.Heap.stats h2).Pmdk_sim.Heap.walk_damaged
  done

let test_makalu_gc_recovers_unreachable () =
  (* without logging, anything not reachable from the root is freed *)
  let mach = Machine.create () in
  let h = Makalu_sim.Heap.create mach ~base ~size:(1 lsl 24) ~heap_id:1 in
  let inst = Makalu_sim.instance h in
  let keep = Option.get (Alloc_intf.i_alloc inst 64) in
  for _ = 1 to 20 do
    ignore (Alloc_intf.i_alloc inst 64)
  done;
  Alloc_intf.i_set_root inst keep;
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = Makalu_sim.Heap.attach mach ~base in
  let st = Makalu_sim.Heap.stats h2 in
  Alcotest.(check int) "only the root object lives" 1 st.Makalu_sim.Heap.gc_live;
  Alcotest.(check int) "the rest reclaimed" 20 st.Makalu_sim.Heap.gc_swept

let test_makalu_reachability_chain () =
  let mach = Machine.create () in
  let h = Makalu_sim.Heap.create mach ~base ~size:(1 lsl 24) ~heap_id:1 in
  let inst = Makalu_sim.instance h in
  (* root -> a -> b -> c, plus an orphan *)
  let a = Option.get (Alloc_intf.i_alloc inst 64) in
  let b = Option.get (Alloc_intf.i_alloc inst 64) in
  let c = Option.get (Alloc_intf.i_alloc inst 64) in
  ignore (Alloc_intf.i_alloc inst 64);
  let w p q =
    Machine.write_u64 mach (Alloc_intf.i_get_rawptr inst p)
      (Alloc_intf.i_get_rawptr inst q);
    Machine.persist mach (Alloc_intf.i_get_rawptr inst p) 8
  in
  w a b;
  w b c;
  Alloc_intf.i_set_root inst a;
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = Makalu_sim.Heap.attach mach ~base in
  Alcotest.(check int) "chain of 3 lives" 3
    (Makalu_sim.Heap.stats h2).Makalu_sim.Heap.gc_live

let () =
  Alcotest.run "crash"
    [ ( "poseidon",
        [ Alcotest.test_case "every fence point (strict)" `Slow
            test_crash_at_every_fence;
          Alcotest.test_case "random points (adversarial)" `Quick
            test_crash_adversarial_random;
          Alcotest.test_case "crash during recovery" `Quick
            test_double_crash_during_recovery;
          Alcotest.test_case "committed survive" `Quick
            test_committed_allocations_survive_any_crash;
          Alcotest.test_case "tx atomicity" `Quick
            test_tx_atomicity_at_any_crash_point ] );
      ( "baselines",
        [ Alcotest.test_case "pmdk recovery" `Quick
            test_pmdk_crash_recovery_consistent;
          Alcotest.test_case "pmdk mid-op crash" `Quick test_pmdk_crash_mid_op;
          Alcotest.test_case "makalu gc sweep" `Quick
            test_makalu_gc_recovers_unreachable;
          Alcotest.test_case "makalu reachability" `Quick
            test_makalu_reachability_chain ] ) ]
