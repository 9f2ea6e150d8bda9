(* Crash-recovery walkthrough: drives Poseidon through power failures
   at adversarially chosen instants — including in the middle of
   allocator operations and in the middle of recovery itself — and
   shows the undo/micro-log machinery putting the heap back together
   every time (paper 4.5, 5.8).

   Run with: dune exec examples/crash_recovery.exe *)

module Memdev = Nvmm.Memdev
module Prng = Repro_util.Prng

let base = 1 lsl 30

exception Crash_now

let fresh () =
  let mach = Machine.create () in
  let heap =
    Poseidon.Heap.create mach ~base ~size:(1 lsl 34) ~heap_id:1
      ~sub_data_size:(1 lsl 20) ()
  in
  (mach, heap)

let () =
  (* 1. the basic contract: committed allocations survive, the
     in-flight one is rolled back or completed — never half-done *)
  let mach, heap = fresh () in
  let committed = ref 0 in
  for i = 1 to 8 do
    match Poseidon.Heap.alloc heap (100 * i) with
    | Some _ -> committed := !committed + Poseidon.Layout.round_up (100 * i)
    | None -> ()
  done;
  Printf.printf "committed %d bytes across 8 allocations\n" !committed;

  (* 2. now crash in the MIDDLE of an allocation: the fence hook stops
     execution at an inner persistence point *)
  let dev = Machine.dev mach in
  Memdev.reset_counters dev;
  Memdev.set_persistence_hook dev
    (Some (fun { Memdev.fence_no = n; _ } -> if n >= 3 then raise Crash_now));
  (try ignore (Poseidon.Heap.alloc heap 256) with Crash_now -> ());
  Memdev.set_persistence_hook dev None;
  print_endline "-- power failed mid-allocation (3 fences in) --";
  Memdev.crash dev `Strict;

  let heap = Poseidon.Heap.attach mach ~base () in
  Poseidon.Heap.check_invariants heap;
  let live = (Poseidon.Heap.stats heap).Poseidon.Heap.live_bytes in
  Printf.printf "recovered: %d live bytes (undo log rolled the torn op back)\n"
    live;
  assert (live = !committed);

  (* 3. transactional allocation: a multi-object transaction that
     never commits must vanish entirely (the paper's P-and-Q example
     from 2.2) *)
  ignore (Poseidon.Heap.tx_alloc heap 512 ~is_end:false);
  ignore (Poseidon.Heap.tx_alloc heap 512 ~is_end:false);
  print_endline "-- power failed before the transaction committed --";
  Memdev.crash dev `Strict;
  let heap = Poseidon.Heap.attach mach ~base () in
  Poseidon.Heap.check_invariants heap;
  Printf.printf "recovered: %d live bytes (micro log freed both objects)\n"
    (Poseidon.Heap.stats heap).Poseidon.Heap.live_bytes;

  (* 4. torture: random adversarial crashes (arbitrary cache lines
     evicted), including one in the middle of recovery *)
  let rng = Prng.create 42 in
  let survived = ref 0 in
  let heap = ref heap in
  for round = 1 to 30 do
    ignore round;
    (* do some work *)
    let ps =
      List.filter_map
        (fun i -> Poseidon.Heap.alloc !heap (32 * (1 + (i mod 8))))
        (List.init 6 Fun.id)
    in
    List.iteri (fun i p -> if i mod 2 = 0 then Poseidon.Heap.free !heap p) ps;
    (* crash at a random fence of the next operation *)
    Memdev.reset_counters dev;
    let k = 1 + Prng.int rng 12 in
    Memdev.set_persistence_hook dev
      (Some (fun { Memdev.fence_no = n; _ } -> if n >= k then raise Crash_now));
    (try ignore (Poseidon.Heap.alloc !heap 128) with Crash_now -> ());
    Memdev.set_persistence_hook dev None;
    Memdev.crash dev (`Adversarial rng);
    (* sometimes interrupt the recovery too, then recover again *)
    if Prng.bool rng then begin
      let fences = (Memdev.counters dev).Memdev.fences in
      Memdev.set_persistence_hook dev
        (Some
           (fun { Memdev.fence_no = n; _ } ->
             if n >= fences + 1 + Prng.int rng 4 then raise Crash_now));
      (try ignore (Poseidon.Heap.attach mach ~base ()) with Crash_now -> ());
      Memdev.set_persistence_hook dev None;
      Memdev.crash dev (`Adversarial rng)
    end;
    let h = Poseidon.Heap.attach mach ~base () in
    Poseidon.Heap.check_invariants h;
    heap := h;
    incr survived
  done;
  Printf.printf
    "survived %d adversarial crash/recovery rounds with invariants intact\n"
    !survived;
  print_endline "crash_recovery done"
