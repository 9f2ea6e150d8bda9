(* Tests for the persistent B+-tree: inserts/finds/deletes against a
   reference model, splits at every level, scans, concurrency, and
   allocator-genericity (the tree must behave identically on all
   three allocators). *)

module Prng = Repro_util.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let base = 1 lsl 30

let poseidon_heap () =
  let mach = Machine.create () in
  ( mach,
    Poseidon.Heap.create mach ~base ~size:(1 lsl 36) ~heap_id:1
      ~sub_data_size:(1 lsl 24) () )

let poseidon_inst () =
  let mach, h = poseidon_heap () in
  (mach, Poseidon.instance h)

let all_insts () =
  [ (fun () -> poseidon_inst ());
    (fun () ->
      let mach = Machine.create () in
      (mach, Pmdk_sim.instance (Pmdk_sim.Heap.create mach ~base ~size:(1 lsl 26) ~heap_id:1 ())));
    (fun () ->
      let mach = Machine.create () in
      (mach, Makalu_sim.instance (Makalu_sim.Heap.create mach ~base ~size:(1 lsl 26) ~heap_id:1))) ]

let test_empty_tree () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  check "missing" true (Btree.find t 42 = None);
  check_int "empty count" 0 (Btree.count_keys t);
  check_int "depth 1" 1 (Btree.tree_depth t)

let test_single_insert () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  Btree.insert t ~key:5 ~value:50;
  check "found" true (Btree.find t 5 = Some 50);
  check "other missing" true (Btree.find t 6 = None)

let test_update_in_place () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  Btree.insert t ~key:5 ~value:50;
  Btree.insert t ~key:5 ~value:99;
  check "updated" true (Btree.find t 5 = Some 99);
  check_int "no duplicate" 1 (Btree.count_keys t)

let test_key_zero_rejected () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  check "zero key rejected" true
    (try Btree.insert t ~key:0 ~value:1; false with Invalid_argument _ -> true)

let test_sequential_inserts_split () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  for k = 1 to 1000 do
    Btree.insert t ~key:k ~value:(k * 10)
  done;
  Btree.check t;
  check "depth grew" true (Btree.tree_depth t >= 3);
  check_int "count" 1000 (Btree.count_keys t);
  let ok = ref true in
  for k = 1 to 1000 do
    if Btree.find t k <> Some (k * 10) then ok := false
  done;
  check "all found" true !ok

(* A tree on a fresh Poseidon heap, with the number of nodes it holds,
   read from the heap's live bytes: the values here are plain integers,
   so every live block is a node. *)
let tree_and_nodes () =
  let _, h = poseidon_heap () in
  let live () = (Poseidon.Heap.stats h).Poseidon.Heap.live_bytes in
  let before = live () in
  let t = Btree.create (Poseidon.instance h) in
  let node = live () - before in
  (t, fun () -> (live () - before) / node)

(* Inserts [keys] in order and returns how many went in before the
   tree allocated a node: the room left in the leaf they land in. *)
let inserts_before_split t nodes keys =
  let n0 = nodes () in
  let rec go i = function
    | [] -> i
    | k :: rest ->
      Btree.insert t ~key:k ~value:k;
      if nodes () > n0 then i else go (i + 1) rest
  in
  go 0 keys

(* An ascending load appends at the right edge of every level, and
   each of those splits keeps 27 of 31 entries on the left; splitting
   in half would leave about 14 keys per node. *)
let test_ascending_fills_nodes () =
  let t, nodes = tree_and_nodes () in
  for k = 1 to 1000 do
    Btree.insert t ~key:k ~value:k
  done;
  Btree.check t;
  check "depth 3: inner nodes split too" true (Btree.tree_depth t >= 3);
  let per_node = 1000 / nodes () in
  check (Printf.sprintf "at least 20 keys per node (%d)" per_node) true
    (per_node >= 20)

(* Only an append to the last node of a level splits unevenly: a
   middle insert into a full rightmost leaf, and an append to a full
   leaf that has a right sibling, still split 15/16. *)
let test_other_splits_halve () =
  let keys lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let full_leaf_split_in_the_middle () =
    let t, nodes = tree_and_nodes () in
    for k = 1 to 31 do
      Btree.insert t ~key:(k * 100) ~value:k
    done;
    Btree.insert t ~key:1550 ~value:0;
    (t, nodes)
  in
  (* the left half keeps 100..1500 and takes 1550: 15 free slots *)
  let t, nodes = full_leaf_split_in_the_middle () in
  check_int "middle insert: 15 free slots in the left half" 15
    (inserts_before_split t nodes (keys 101 149));
  Btree.check t;
  (* fill that left half again; 1551 sorts after its last key, below
     its sibling's first: the right half takes 115..1551, 17 keys *)
  let t, nodes = full_leaf_split_in_the_middle () in
  List.iter (fun k -> Btree.insert t ~key:k ~value:k) (keys 101 115);
  Btree.insert t ~key:1551 ~value:0;
  check_int "append with a sibling: 14 free slots in the right half" 14
    (inserts_before_split t nodes (keys 1552 1599));
  Btree.check t

let test_reverse_inserts () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  for k = 1000 downto 1 do
    Btree.insert t ~key:k ~value:k
  done;
  Btree.check t;
  check_int "count" 1000 (Btree.count_keys t);
  check "first" true (Btree.find t 1 = Some 1);
  check "last" true (Btree.find t 1000 = Some 1000)

let test_random_vs_model () =
  List.iter
    (fun mk ->
      let _, inst = mk () in
      let t = Btree.create inst in
      let model = Hashtbl.create 64 in
      let rng = Prng.create 31 in
      for _ = 1 to 3000 do
        let k = 1 + Prng.int rng 999 in
        match Prng.int rng 3 with
        | 0 | 1 ->
          let v = Prng.int rng 100000 in
          Btree.insert t ~key:k ~value:v;
          Hashtbl.replace model k v
        | _ ->
          let deleted = Btree.delete t k in
          check "delete agrees with model" (Hashtbl.mem model k) deleted;
          Hashtbl.remove model k
      done;
      Btree.check t;
      check_int "count matches model" (Hashtbl.length model) (Btree.count_keys t);
      Hashtbl.iter
        (fun k v -> check "value matches" true (Btree.find t k = Some v))
        model)
    (all_insts ())

let test_scan () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  for k = 1 to 200 do
    Btree.insert t ~key:(k * 2) ~value:k
  done;
  let seen = ref [] in
  Btree.scan t ~from_key:100 ~n:10 (fun k _ -> seen := k :: !seen);
  Alcotest.(check (list int)) "scan range"
    [ 100; 102; 104; 106; 108; 110; 112; 114; 116; 118 ]
    (List.rev !seen)

let test_scan_crosses_leaves () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  for k = 1 to 500 do
    Btree.insert t ~key:k ~value:k
  done;
  let n = ref 0 in
  let last = ref 0 in
  let sorted = ref true in
  Btree.scan t ~from_key:1 ~n:500 (fun k _ ->
      incr n;
      if k <= !last then sorted := false;
      last := k);
  check_int "full scan" 500 !n;
  check "ascending across leaves" true !sorted

let test_fold_range () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  for k = 1 to 200 do
    Btree.insert t ~key:k ~value:(k * 3)
  done;
  let sum =
    Btree.fold_range t ~from_key:50 ~to_key:60 ~init:0 (fun acc k v ->
        check_int "fold sees the stored value" (k * 3) v;
        acc + k)
  in
  check_int "inclusive bounds" (11 * 55) sum;
  check_int "range past the last key folds init" (-1)
    (Btree.fold_range t ~from_key:300 ~to_key:400 ~init:(-1)
       (fun _ _ _ -> 0));
  check_int "inverted bounds fold nothing" 7
    (Btree.fold_range t ~from_key:60 ~to_key:50 ~init:7
       (fun acc _ _ -> acc + 1))

let test_cursor () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  let keys = [ 3; 7; 12; 100; 101; 250 ] in
  List.iter (fun k -> Btree.insert t ~key:k ~value:(k + 1)) keys;
  let c = Btree.cursor_open t ~from_key:5 in
  let rec drain acc =
    match Btree.cursor_next c with
    | Some (k, v) ->
      check_int "cursor value" (k + 1) v;
      drain (k :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "ordered suffix from 5"
    [ 7; 12; 100; 101; 250 ] (drain []);
  check "an exhausted cursor stays exhausted" true
    (Btree.cursor_next c = None);
  let c2 = Btree.cursor_open t ~from_key:1000 in
  check "cursor past the last key is empty" true (Btree.cursor_next c2 = None)

let test_cursor_across_leaves () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  for k = 1 to 500 do
    Btree.insert t ~key:k ~value:(k * 2)
  done;
  let c = Btree.cursor_open t ~from_key:1 in
  let n = ref 0
  and last = ref 0
  and ok = ref true in
  let rec go () =
    match Btree.cursor_next c with
    | Some (k, v) ->
      if k <= !last || v <> k * 2 then ok := false;
      last := k;
      incr n;
      go ()
    | None -> ()
  in
  go ();
  check_int "cursor walks every entry" 500 !n;
  check "ascending with correct values" true !ok

let test_delete_then_reinsert () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  for k = 1 to 100 do
    Btree.insert t ~key:k ~value:k
  done;
  for k = 1 to 100 do
    check "delete ok" true (Btree.delete t k)
  done;
  check_int "empty" 0 (Btree.count_keys t);
  for k = 1 to 100 do
    Btree.insert t ~key:k ~value:(k + 1)
  done;
  check_int "reinserted" 100 (Btree.count_keys t);
  check "new values" true (Btree.find t 50 = Some 51)

let test_delete_missing () =
  let _, inst = poseidon_inst () in
  let t = Btree.create inst in
  Btree.insert t ~key:5 ~value:5;
  check "missing delete false" false (Btree.delete t 6)

let test_concurrent_inserts () =
  let mach, inst = poseidon_inst () in
  let t = Btree.create inst in
  let threads = 8 and per = 1000 in
  let _ =
    Machine.parallel mach ~threads (fun i ->
        for j = 0 to per - 1 do
          Btree.insert t ~key:(1 + (j * threads) + i) ~value:(i * 100000 + j)
        done)
  in
  Btree.check t;
  check_int "all inserted" (threads * per) (Btree.count_keys t);
  let ok = ref true in
  for i = 0 to threads - 1 do
    for j = 0 to per - 1 do
      if Btree.find t (1 + (j * threads) + i) <> Some ((i * 100000) + j) then
        ok := false
    done
  done;
  check "all values correct" true !ok

let test_concurrent_mixed_readers_writers () =
  let mach, inst = poseidon_inst () in
  let t = Btree.create inst in
  for k = 1 to 2000 do
    Btree.insert t ~key:k ~value:k
  done;
  let anomalies = ref 0 in
  let _ =
    Machine.parallel mach ~threads:8 (fun i ->
        let rng = Prng.create i in
        for _ = 1 to 500 do
          let k = 1 + Prng.int rng 2000 in
          if i mod 2 = 0 then begin
            (* readers: loaded keys must always be visible *)
            match Btree.find t k with
            | Some _ -> ()
            | None -> incr anomalies
          end
          else Btree.insert t ~key:(2000 + Prng.int rng 2000 + 1) ~value:k
        done)
  in
  Btree.check t;
  check_int "no lost reads" 0 !anomalies

(* Regression: a lock-free cursor must not repeat or skip keys when
   the leaf it sits on is split or shifted by concurrent inserts (a
   cached slot index goes stale the moment the leaf changes).  The
   reader walks the odd keys — present for the cursor's whole lifetime
   — while the writer interleaves the even keys, splitting the
   reader's leaves under it.  Strict ascent rules out re-yielded
   relocated entries; the odd count rules out skips. *)
let test_cursor_vs_concurrent_splits () =
  let mach, inst = poseidon_inst () in
  let t = Btree.create inst in
  let n = 1000 in
  for i = 0 to n - 1 do
    Btree.insert t ~key:((2 * i) + 1) ~value:(2 * i + 2)
  done;
  let bad_order = ref 0 and bad_value = ref 0 and seen_odd = ref 0 in
  let _ =
    Machine.parallel mach ~threads:2 (fun i ->
        if i = 0 then
          for j = 1 to n do
            Btree.insert t ~key:(2 * j) ~value:((2 * j) + 1)
          done
        else begin
          let c = Btree.cursor_open t ~from_key:1 in
          let last = ref 0 in
          let rec go () =
            match Btree.cursor_next c with
            | Some (k, v) ->
              if k <= !last then incr bad_order;
              if v <> k + 1 then incr bad_value;
              if k land 1 = 1 then incr seen_odd;
              last := k;
              go ()
            | None -> ()
          in
          go ()
        end)
  in
  Btree.check t;
  check_int "strictly ascending under splits" 0 !bad_order;
  check_int "every yielded value intact" 0 !bad_value;
  check_int "every long-lived key yielded exactly once" n !seen_odd

(* Regression: [find] must never report a present key absent because
   a racing split relocated it to the right sibling between the
   descent and the leaf probe (the FAST-FAIR reader retry). *)
let test_find_vs_concurrent_splits () =
  let mach, inst = poseidon_inst () in
  let t = Btree.create inst in
  let n = 1000 in
  for i = 0 to n - 1 do
    Btree.insert t ~key:((2 * i) + 1) ~value:(2 * i + 2)
  done;
  let misses = ref 0 in
  let _ =
    Machine.parallel mach ~threads:4 (fun i ->
        if i = 0 then
          for j = 1 to n do
            Btree.insert t ~key:(2 * j) ~value:((2 * j) + 1)
          done
        else begin
          let rng = Prng.create (100 + i) in
          for _ = 1 to 1500 do
            let k = (2 * Prng.int rng n) + 1 in
            match Btree.find t k with
            | Some v when v = k + 1 -> ()
            | _ -> incr misses
          done
        end)
  in
  check_int "a present key is never reported absent mid-split" 0 !misses

let test_crash_at_every_split_boundary () =
  (* crash at many persistence points while inserting; after attach,
     every key whose insert call returned must be findable (the
     sibling chain covers splits whose separator never reached the
     parent) *)
  let exception Crash_now in
  for k_fence = 1 to 40 do
    let mach, inst = poseidon_inst () in
    let t = Btree.create inst in
    (* preload enough to make splits imminent *)
    for k = 1 to 93 do
      Btree.insert t ~key:(k * 10) ~value:k
    done;
    let dev = Machine.dev mach in
    Nvmm.Memdev.reset_counters dev;
    let completed = ref [] in
    Nvmm.Memdev.set_persistence_hook dev
      (Some
         (fun { Nvmm.Memdev.fence_no = n; _ } ->
           if n >= k_fence then raise Crash_now));
    (try
       for k = 1 to 40 do
         let key = (k * 10) + 1 in
         Btree.insert t ~key ~value:k;
         completed := key :: !completed
       done
     with Crash_now -> ());
    Nvmm.Memdev.set_persistence_hook dev None;
    Nvmm.Memdev.crash dev `Strict;
    let h2 = Poseidon.Heap.attach mach ~base () in
    let t2 = Btree.attach (Poseidon.instance h2) in
    (* preloaded keys all survive *)
    for k = 1 to 93 do
      check "preloaded key survives" true (Btree.find t2 (k * 10) = Some k)
    done;
    (* completed inserts all survive *)
    List.iter
      (fun key -> check "completed insert survives" true
          (Btree.find t2 key <> None))
      !completed
  done

(* FAST writes back once per cache line: a shift fences each line
   before its first store into the next one.  The crash checker cuts
   only at fences, after they committed their lines, so it cannot see a
   store issued into the next line before the previous line's fence;
   the persistence hook can.  Every fence of a position-0 insert and
   of its delete on a 20-entry leaf must leave no dirty line behind and
   commit exactly the one line it closes. *)
let test_shift_writes_back_per_line () =
  let mach, inst = poseidon_inst () in
  let t = Btree.create inst in
  for k = 1 to 20 do
    Btree.insert t ~key:(k * 10) ~value:k
  done;
  let dev = Machine.dev mach in
  Nvmm.Memdev.drain dev;
  let fences = ref [] in
  Nvmm.Memdev.set_persistence_hook dev (Some (fun fi -> fences := fi :: !fences));
  let fences_of f =
    fences := [];
    f ();
    List.rev !fences
  in
  let ins = fences_of (fun () -> Btree.insert t ~key:5 ~value:0) in
  let del = fences_of (fun () -> ignore (Btree.delete t 5)) in
  Nvmm.Memdev.set_persistence_hook dev None;
  (* 21 entries span at most 7 lines: one fence per line touched plus
     the dup and count fences, where per-entry write-back took 22 *)
  check "insert: one fence per line" true
    (List.length ins >= 6 && List.length ins <= 9);
  check "delete: one fence per line" true
    (List.length del >= 5 && List.length del <= 7);
  List.iter
    (fun (name, fs) ->
      List.iter
        (fun (fi : Nvmm.Memdev.fence_info) ->
          check_int (name ^ ": no dirty line left behind a fence") 0
            fi.Nvmm.Memdev.dirty_residue;
          check_int (name ^ ": one line per fence") 1
            fi.Nvmm.Memdev.lines_committed)
        fs)
    [ ("insert", ins); ("delete", del) ];
  Btree.check t;
  check_int "all keys back" 20 (Btree.count_keys t)

(* Crash at every fence of a position-0 insert on a 20-entry leaf and
   of a middle insert into a full leaf (a split): after attach, a
   crashed shift may leave one adjacent duplicate and a crashed split
   stale copies in the left leaf, which [repair] must remove without
   losing a key. *)
let test_repair_after_crash () =
  let exception Crash_now in
  let scenario ~n ~key =
    let rec go stop =
      let mach, inst = poseidon_inst () in
      let t = Btree.create inst in
      for k = 1 to n do
        Btree.insert t ~key:(k * 10) ~value:k
      done;
      let dev = Machine.dev mach in
      Nvmm.Memdev.drain dev;
      Nvmm.Memdev.reset_counters dev;
      Nvmm.Memdev.set_persistence_hook dev
        (Some
           (fun { Nvmm.Memdev.fence_no = f; _ } ->
             if f >= stop then raise Crash_now));
      let finished =
        try
          Btree.insert t ~key ~value:0;
          true
        with Crash_now -> false
      in
      Nvmm.Memdev.set_persistence_hook dev None;
      Nvmm.Memdev.crash dev `Strict;
      let t2 = Btree.attach (Poseidon.Heap.attach mach ~base () |> Poseidon.instance) in
      Btree.repair t2 key;
      let keys = ref [] in
      Btree.scan t2 ~from_key:1 ~n:max_int (fun k _ -> keys := k :: !keys);
      let keys = List.rev !keys in
      check "no duplicate or stale entry after repair" true
        (List.sort_uniq compare keys = keys);
      for k = 1 to n do
        check "committed key survives" true (Btree.find t2 (k * 10) = Some k)
      done;
      Btree.check t2;
      if not finished then go (stop + 1)
    in
    go 1
  in
  scenario ~n:20 ~key:5;
  scenario ~n:31 ~key:155

let test_persistence_across_crash () =
  (* tree nodes live in NVMM; after a crash + attach of the allocator,
     the tree is reachable from the heap root *)
  let mach, inst = poseidon_inst () in
  let t = Btree.create inst in
  for k = 1 to 300 do
    Btree.insert t ~key:k ~value:(k * 7)
  done;
  Nvmm.Memdev.crash (Machine.dev mach) `Strict;
  let h2 = Poseidon.Heap.attach mach ~base () in
  let inst2 = Poseidon.instance h2 in
  let t2 = Btree.attach inst2 in
  Btree.check t2;
  check_int "count preserved" 300 (Btree.count_keys t2);
  check "value preserved" true (Btree.find t2 123 = Some 861)

let prop_btree_model =
  QCheck.Test.make ~name:"btree agrees with a map model" ~count:25
    QCheck.(list (pair (int_range 1 500) (int_range 0 10_000)))
    (fun kvs ->
      let _, inst = poseidon_inst () in
      let t = Btree.create inst in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          Btree.insert t ~key:k ~value:v;
          Hashtbl.replace model k v)
        kvs;
      Btree.check t;
      Hashtbl.fold (fun k v ok -> ok && Btree.find t k = Some v) model true
      && Btree.count_keys t = Hashtbl.length model)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_btree_model ]

let () =
  Alcotest.run "btree"
    [ ( "basic",
        [ Alcotest.test_case "empty" `Quick test_empty_tree;
          Alcotest.test_case "single" `Quick test_single_insert;
          Alcotest.test_case "update" `Quick test_update_in_place;
          Alcotest.test_case "key zero" `Quick test_key_zero_rejected ] );
      ( "splits",
        [ Alcotest.test_case "sequential" `Quick test_sequential_inserts_split;
          Alcotest.test_case "reverse" `Quick test_reverse_inserts;
          Alcotest.test_case "ascending fills nodes" `Quick
            test_ascending_fills_nodes;
          Alcotest.test_case "other splits halve" `Quick
            test_other_splits_halve ] );
      ( "model",
        [ Alcotest.test_case "random ops, all allocators" `Quick
            test_random_vs_model ]
        @ qsuite );
      ( "scan",
        [ Alcotest.test_case "range" `Quick test_scan;
          Alcotest.test_case "across leaves" `Quick test_scan_crosses_leaves;
          Alcotest.test_case "fold_range" `Quick test_fold_range;
          Alcotest.test_case "cursor" `Quick test_cursor;
          Alcotest.test_case "cursor across leaves" `Quick
            test_cursor_across_leaves ] );
      ( "delete",
        [ Alcotest.test_case "delete/reinsert" `Quick test_delete_then_reinsert;
          Alcotest.test_case "missing" `Quick test_delete_missing ] );
      ( "concurrency",
        [ Alcotest.test_case "parallel inserts" `Quick test_concurrent_inserts;
          Alcotest.test_case "readers/writers" `Quick
            test_concurrent_mixed_readers_writers;
          Alcotest.test_case "cursor vs splits" `Quick
            test_cursor_vs_concurrent_splits;
          Alcotest.test_case "find vs splits" `Quick
            test_find_vs_concurrent_splits ] );
      ( "persistence",
        [ Alcotest.test_case "crash + attach" `Quick test_persistence_across_crash;
          Alcotest.test_case "crash at split boundaries" `Quick
            test_crash_at_every_split_boundary;
          Alcotest.test_case "shift writes back per line" `Quick
            test_shift_writes_back_per_line;
          Alcotest.test_case "repair after a crashed shift or split" `Quick
            test_repair_after_crash ] ) ]
