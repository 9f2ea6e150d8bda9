(* Tests for the extendible-hash index (the §8 "more advanced index
   scheme" extension): model agreement, splits and directory doubling,
   deletes, crash consistency through its private undo log. *)

module Prng = Repro_util.Prng
module Eh = Poseidon.Exthash

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let base = 1 lsl 30

let mk ?(size = 1 lsl 24) () =
  let mach = Machine.create () in
  Machine.add_region mach ~base ~size ~kind:Nvmm.Memdev.Nvmm ~numa:0;
  (mach, Eh.create mach ~base ~size)

let test_empty () =
  let _, t = mk () in
  check "missing" true (Eh.lookup t 42 = None);
  check_int "count 0" 0 (Eh.count t);
  Eh.check t

let test_insert_lookup () =
  let _, t = mk () in
  Eh.with_op t (fun ctx -> Eh.insert ctx t 42 4200);
  check "found" true (Eh.lookup t 42 = Some 4200);
  check "other missing" true (Eh.lookup t 43 = None);
  check_int "count" 1 (Eh.count t)

let test_update () =
  let _, t = mk () in
  Eh.with_op t (fun ctx ->
      Eh.insert ctx t 7 1;
      Eh.insert ctx t 7 2);
  check "updated" true (Eh.lookup t 7 = Some 2);
  check_int "no duplicate" 1 (Eh.count t)

let test_zero_key_rejected () =
  let _, t = mk () in
  check "zero rejected" true
    (try Eh.with_op t (fun ctx -> Eh.insert ctx t 0 1); false
     with Invalid_argument _ -> true)

let test_splits_and_doubling () =
  let _, t = mk () in
  let n = 5000 in
  Eh.with_op t (fun _ -> ());
  for k = 1 to n do
    Eh.with_op t (fun ctx -> Eh.insert ctx t k (k * 3))
  done;
  Eh.check t;
  check "directory grew" true (Eh.depth t > 1);
  check_int "count" n (Eh.count t);
  let ok = ref true in
  for k = 1 to n do
    if Eh.lookup t k <> Some (k * 3) then ok := false
  done;
  check "all found after splits" true !ok

let test_delete () =
  let _, t = mk () in
  for k = 1 to 100 do
    Eh.with_op t (fun ctx -> Eh.insert ctx t k k)
  done;
  for k = 1 to 100 do
    if k mod 2 = 0 then
      check "deleted" true (Eh.with_op t (fun ctx -> Eh.delete ctx t k))
  done;
  check "missing delete" false (Eh.with_op t (fun ctx -> Eh.delete ctx t 2));
  check_int "half left" 50 (Eh.count t);
  check "odd kept" true (Eh.lookup t 51 = Some 51);
  check "even gone" true (Eh.lookup t 50 = None);
  Eh.check t

let prop_model =
  QCheck.Test.make ~name:"exthash agrees with a map model" ~count:30
    QCheck.(list (pair (int_range 1 1000) (int_range 0 100000)))
    (fun kvs ->
      let _, t = mk () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          Eh.with_op t (fun ctx -> Eh.insert ctx t k v);
          Hashtbl.replace model k v)
        kvs;
      Eh.check t;
      Hashtbl.fold (fun k v ok -> ok && Eh.lookup t k = Some v) model true
      && Eh.count t = Hashtbl.length model)

let test_crash_consistency () =
  (* interrupted operations roll back through the private undo log *)
  let exception Crash_now in
  let rng = Prng.create 4 in
  for _ = 1 to 25 do
    let mach, t = mk () in
    let dev = Machine.dev mach in
    for k = 1 to 200 do
      Eh.with_op t (fun ctx -> Eh.insert ctx t k k)
    done;
    (* crash at a random fence during further inserts *)
    Nvmm.Memdev.reset_counters dev;
    let stop = 1 + Prng.int rng 20 in
    Nvmm.Memdev.set_persistence_hook dev
      (Some
         (fun { Nvmm.Memdev.fence_no = n; _ } ->
           if n >= stop then raise Crash_now));
    (try
       for k = 201 to 260 do
         Eh.with_op t (fun ctx -> Eh.insert ctx t k k)
       done
     with Crash_now -> ());
    Nvmm.Memdev.set_persistence_hook dev None;
    Nvmm.Memdev.crash dev `Strict;
    (* recover the private log, then validate *)
    ignore mach;
    Eh.recover t;
    Eh.check t;
    let ok = ref true in
    for k = 1 to 200 do
      if Eh.lookup t k <> Some k then ok := false
    done;
    check "prefix intact after crash" true !ok
  done

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_model ]

let () =
  Alcotest.run "exthash"
    [ ( "basic",
        [ Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "zero key" `Quick test_zero_key_rejected ] );
      ( "growth",
        [ Alcotest.test_case "splits and doubling" `Quick
            test_splits_and_doubling ] );
      ("delete", [ Alcotest.test_case "delete" `Quick test_delete ]);
      ("model", qsuite);
      ( "crash",
        [ Alcotest.test_case "undo-log consistency" `Quick
            test_crash_consistency ] ) ]
