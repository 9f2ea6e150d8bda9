(* Unit and property tests for the repro_util library. *)

module Prng = Repro_util.Prng
module Bitset = Repro_util.Bitset
module Zipf = Repro_util.Zipf
module Tablefmt = Repro_util.Tablefmt

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- prng ---------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_u64 a) (Prng.next_u64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 42 and b = Prng.create 43 in
  check "different seeds differ" true (Prng.next_u64 a <> Prng.next_u64 b)

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 10_000 do
    let x = Prng.int rng 17 in
    check "in range" true (x >= 0 && x < 17)
  done

let test_prng_int_in () =
  let rng = Prng.create 7 in
  for _ = 1 to 10_000 do
    let x = Prng.int_in rng 5 9 in
    check "in closed range" true (x >= 5 && x <= 9)
  done

let test_prng_uniformish () =
  let rng = Prng.create 11 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let x = Prng.int rng 10 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      check "roughly uniform" true
        (abs (c - (n / 10)) < n / 10 (* within 10 % absolute *)))
    counts

let test_prng_split_independent () =
  let a = Prng.create 42 in
  let b = Prng.split a in
  check "split streams differ" true (Prng.next_u64 a <> Prng.next_u64 b)

let test_prng_copy () =
  let a = Prng.create 13 in
  ignore (Prng.next_u64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.next_u64 a) (Prng.next_u64 b)

let test_shuffle_permutation () =
  let rng = Prng.create 3 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

let test_float_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 10_000 do
    let x = Prng.float rng 1.0 in
    check "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

(* ---------- bitset ---------- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check "fresh empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 99;
  Bitset.set b 63;
  check "mem 0" true (Bitset.mem b 0);
  check "mem 99" true (Bitset.mem b 99);
  check "mem 63" true (Bitset.mem b 63);
  check "not mem 1" false (Bitset.mem b 1);
  check_int "count" 3 (Bitset.count b);
  Bitset.clear b 63;
  check "cleared" false (Bitset.mem b 63);
  check_int "count after clear" 2 (Bitset.count b)

let test_bitset_range () =
  let b = Bitset.create 64 in
  Bitset.set_range b 10 20;
  check_int "range count" 20 (Bitset.count b);
  check "below" false (Bitset.mem b 9);
  check "first" true (Bitset.mem b 10);
  check "last" true (Bitset.mem b 29);
  check "above" false (Bitset.mem b 30);
  Bitset.clear_range b 15 5;
  check_int "after clear_range" 15 (Bitset.count b)

let test_bitset_first_clear_run () =
  let b = Bitset.create 32 in
  Bitset.set_range b 0 5;
  Bitset.set_range b 8 2;
  Alcotest.(check (option int)) "run of 3" (Some 5) (Bitset.first_clear_run b 3);
  Alcotest.(check (option int)) "run of 4" (Some 10) (Bitset.first_clear_run b 4);
  Alcotest.(check (option int)) "run of 23" None (Bitset.first_clear_run b 23);
  Alcotest.(check (option int)) "run of 22" (Some 10) (Bitset.first_clear_run b 22)

let test_bitset_iter () =
  let b = Bitset.create 64 in
  List.iter (Bitset.set b) [ 3; 17; 40 ];
  let seen = ref [] in
  Bitset.iter_set b (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "iter order" [ 3; 17; 40 ] (List.rev !seen)

let test_bitset_oob () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b (-1));
  Alcotest.check_raises "beyond" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem b 8))

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset matches a model set" ~count:200
    QCheck.(list (pair (int_bound 127) bool))
    (fun ops ->
      let b = Bitset.create 128 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (i, set) ->
          if set then begin
            Bitset.set b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.clear b i;
            Hashtbl.remove model i
          end)
        ops;
      Hashtbl.length model = Bitset.count b
      && List.for_all
           (fun i -> Bitset.mem b i = Hashtbl.mem model i)
           (List.init 128 Fun.id))

(* ---------- zipf ---------- *)

let test_zipf_range () =
  let z = Zipf.create 1000 in
  let rng = Prng.create 9 in
  for _ = 1 to 10_000 do
    let x = Zipf.draw z rng in
    check "in range" true (x >= 0 && x < 1000)
  done

let test_zipf_skew () =
  let z = Zipf.create 1000 in
  let rng = Prng.create 9 in
  let head = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Zipf.draw z rng < 10 then incr head
  done;
  (* with theta=0.99, the top-10 of 1000 items get ~30 % of draws *)
  check "zipfian head heavy" true (!head > n / 5)

let test_zipf_scrambled_range () =
  let z = Zipf.create 777 in
  let rng = Prng.create 10 in
  for _ = 1 to 10_000 do
    let x = Zipf.scrambled z rng in
    check "scrambled in range" true (x >= 0 && x < 777)
  done

(* ---------- tablefmt ---------- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_render () =
  let t = Tablefmt.create ~title:"Title" ~columns:[ "a"; "bb" ] in
  Tablefmt.add_row t "r1" [ "1" ];
  Tablefmt.add_float_row t "r2" [ 2.5 ];
  let s = Tablefmt.render t in
  check "contains title" true (contains ~needle:"Title" s);
  check "contains r1" true (contains ~needle:"r1" s);
  check "contains formatted float" true (contains ~needle:"2.500" s)

let test_table_too_many_cells () =
  let t = Tablefmt.create ~title:"T" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Tablefmt.add_row: more cells than columns") (fun () ->
      Tablefmt.add_row t "r" [ "1"; "2" ])

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_bitset_model ]

let () =
  Alcotest.run "util"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "int_in" `Quick test_prng_int_in;
          Alcotest.test_case "uniform-ish" `Quick test_prng_uniformish;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
          Alcotest.test_case "float bounds" `Quick test_float_bounds ] );
      ( "bitset",
        [ Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "ranges" `Quick test_bitset_range;
          Alcotest.test_case "first_clear_run" `Quick test_bitset_first_clear_run;
          Alcotest.test_case "iter_set" `Quick test_bitset_iter;
          Alcotest.test_case "out of bounds" `Quick test_bitset_oob ]
        @ qsuite );
      ( "zipf",
        [ Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "scrambled range" `Quick test_zipf_scrambled_range ] );
      ( "tablefmt",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cell arity" `Quick test_table_too_many_cells ] ) ]
