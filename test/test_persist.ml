(* Tests for the persistence-log machinery (Pundo, Plog): the undo
   protocol, commit points, torn entries, idempotent replay, overflow. *)

module Pundo = Persist.Pundo
module Plog = Persist.Plog
module Memdev = Nvmm.Memdev
module Prng = Repro_util.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let log_base = 1 lsl 20
let data_base = (1 lsl 20) + 65536
let count_addr = log_base
let entries_addr = log_base + 8 (* the entries follow the count word *)

let mkmach () =
  let m = Machine.create () in
  Machine.add_region m ~base:log_base ~size:(1 lsl 20) ~kind:Nvmm.Memdev.Nvmm
    ~numa:0;
  m

let mklog m = Pundo.create m ~count_addr ~cap:64
let begin_op m = Pundo.begin_op (mklog m)

(* the entry count, below the count word's generation *)
let count_field m = Machine.read_u64 m count_addr land 0xFFFF_FFFF

(* ---------- pundo ---------- *)

let test_write_and_commit () =
  let m = mkmach () in
  Machine.write_u64 m data_base 1;
  Machine.persist m data_base 8;
  let ctx = begin_op m in
  Pundo.write ctx data_base 2;
  check_int "in-place visible" 2 (Machine.read_u64 m data_base);
  Pundo.commit ctx;
  check "log empty after commit" true (Pundo.is_empty m ~count_addr);
  Memdev.crash (Machine.dev m) `Strict;
  check_int "committed value durable" 2 (Machine.read_u64 m data_base)

let test_crash_mid_op_rolls_back () =
  let m = mkmach () in
  Machine.write_u64 m data_base 10;
  Machine.write_u64 m (data_base + 8) 20;
  Machine.persist m data_base 16;
  let ctx = begin_op m in
  Pundo.write ctx data_base 11;
  Pundo.write ctx (data_base + 8) 21;
  (* no commit: crash *)
  Memdev.crash (Machine.dev m) `Strict;
  check "log non-empty" false (Pundo.is_empty m ~count_addr);
  check "recovered" true (Pundo.recover m ~count_addr);
  check_int "rolled back 1" 10 (Machine.read_u64 m data_base);
  check_int "rolled back 2" 20 (Machine.read_u64 m (data_base + 8));
  check "log empty after recover" true (Pundo.is_empty m ~count_addr)

let test_adversarial_crash_mid_op () =
  (* whatever subset of lines the crash persists, recovery must
     restore the pre-op state: the 8 words written one barrier each,
     then as one batch under one barrier *)
  let rng = Prng.create 123 in
  List.iter
    (fun batched ->
      for _ = 1 to 50 do
        let m = mkmach () in
        for i = 0 to 7 do
          Machine.write_u64 m (data_base + (i * 8)) (100 + i)
        done;
        Machine.persist m data_base 64;
        let ctx = begin_op m in
        let writes = List.init 8 (fun i -> (data_base + (i * 8), 200 + i)) in
        if batched then Pundo.write_all ctx writes
        else List.iter (fun (a, v) -> Pundo.write ctx a v) writes;
        Memdev.crash (Machine.dev m) (`Adversarial rng);
        ignore (Pundo.recover m ~count_addr);
        for i = 0 to 7 do
          check_int "pre-op state" (100 + i)
            (Machine.read_u64 m (data_base + (i * 8)))
        done
      done)
    [ false; true ]

let test_first_write_logged_once () =
  let m = mkmach () in
  Machine.write_u64 m data_base 5;
  Machine.persist m data_base 8;
  let ctx = begin_op m in
  Pundo.write ctx data_base 6;
  Pundo.write ctx data_base 7;
  Pundo.write ctx data_base 8;
  check_int "one entry" 1 (count_field m);
  Memdev.crash (Machine.dev m) `Strict;
  ignore (Pundo.recover m ~count_addr);
  check_int "rolls to original, not intermediate" 5
    (Machine.read_u64 m data_base)

let test_recover_idempotent () =
  let m = mkmach () in
  Machine.write_u64 m data_base 1;
  Machine.persist m data_base 8;
  let ctx = begin_op m in
  Pundo.write ctx data_base 2;
  Memdev.crash (Machine.dev m) `Strict;
  ignore (Pundo.recover m ~count_addr);
  (* crash during recovery: replay again *)
  ignore (Pundo.recover m ~count_addr);
  check_int "still original" 1 (Machine.read_u64 m data_base)

let test_torn_entry_skipped () =
  (* simulate a crash where the count persisted but the newest entry's
     line did not: recovery must skip the torn entry *)
  let m = mkmach () in
  Machine.write_u64 m data_base 1;
  Machine.persist m data_base 8;
  (* hand-craft: count = 1, entry garbage (checksum invalid) *)
  Machine.write_u64 m count_addr 1;
  Machine.write_u64 m entries_addr data_base;
  Machine.write_u64 m (entries_addr + 8) 999;
  Machine.write_u64 m (entries_addr + 16) 0 (* bad checksum *);
  Machine.persist m count_addr 8;
  Machine.persist m entries_addr 24;
  check "recover runs" true (Pundo.recover m ~count_addr);
  check_int "torn entry not applied" 1 (Machine.read_u64 m data_base)

(* A log written before generations existed: a bare count and entries
   whose checksum mixes in no generation still replay. *)
let test_generation_zero_log_recovers () =
  let m = mkmach () in
  Machine.write_u64 m data_base 1;
  Machine.write_u64 m (data_base + 8) 2;
  Machine.persist m data_base 16;
  List.iteri
    (fun i (addr, old) ->
      let e = entries_addr + (i * Pundo.entry_size) in
      Machine.write_u64 m e addr;
      Machine.write_u64 m (e + 8) old;
      Machine.write_u64 m (e + 16) (addr lxor old lxor 0x00C0FFEE))
    [ (data_base, 1); (data_base + 8, 2) ];
  Machine.write_u64 m count_addr 2;
  Machine.persist m count_addr 64;
  (* the operation's in-place writes reached the media *)
  Machine.write_u64 m data_base 10;
  Machine.write_u64 m (data_base + 8) 20;
  Machine.persist m data_base 16;
  check "recover runs" true (Pundo.recover m ~count_addr);
  check_int "word 0 restored" 1 (Machine.read_u64 m data_base);
  check_int "word 1 restored" 2 (Machine.read_u64 m (data_base + 8));
  check "log empty" true (Pundo.is_empty m ~count_addr)

(* A torn barrier whose count word persisted ahead of two entry lines:
   those slots still hold valid entries of the previous, committed
   operation, which recovery must not replay. *)
let test_stale_entry_skipped () =
  let m = mkmach () in
  let log = mklog m in
  for i = 0 to 3 do
    Machine.write_u64 m (data_base + (i * 8)) i
  done;
  Machine.persist m data_base 32;
  let ctx = Pundo.begin_op log in
  Pundo.write_all ctx
    [ (data_base, 10); (data_base + 8, 11); (data_base + 16, 12) ];
  Pundo.commit ctx;
  let ctx = Pundo.begin_op log in
  Pundo.write ctx (data_base + 24) 13;
  check_int "op 2 logged one entry" 1 (count_field m);
  (* op 2's generation with count 3: entry 0 is op 2's, 1-2 op 1's *)
  Machine.write_u64 m count_addr (Machine.read_u64 m count_addr + 2);
  Machine.persist m count_addr 8;
  Memdev.crash (Machine.dev m) `Strict;
  check "recover runs" true (Pundo.recover m ~count_addr);
  check_int "op 2's word restored" 3 (Machine.read_u64 m (data_base + 24));
  for i = 0 to 2 do
    check_int "op 1's committed word kept" (10 + i)
      (Machine.read_u64 m (data_base + (i * 8)))
  done;
  check "log empty" true (Pundo.is_empty m ~count_addr)

(* An operation's first barrier tears before its count word persists,
   leaving valid entries at the persisted generation + 1.  After the
   restart a durable write outside the log moves one of their words,
   and the first operation after attach tears in turn over those
   slots: the stale entries must not validate under its generation. *)
let test_no_generation_reuse_after_attach () =
  let m = mkmach () in
  let log = mklog m in
  for i = 0 to 3 do
    Machine.write_u64 m (data_base + (i * 8)) i
  done;
  Machine.persist m data_base 32;
  let ctx = Pundo.begin_op log in
  Pundo.write ctx (data_base + 24) 30;
  Pundo.commit ctx;
  let committed = Machine.read_u64 m count_addr in
  let ctx = Pundo.begin_op log in
  Pundo.write_all ctx
    [ (data_base, 10); (data_base + 8, 11); (data_base + 16, 12) ];
  Memdev.crash (Machine.dev m) `Strict;
  (* the count line never made it *)
  Machine.write_u64 m count_addr committed;
  Machine.persist m count_addr 8;
  check "nothing to replay" false (Pundo.recover m ~count_addr);
  let log = Pundo.attach m ~count_addr ~cap:64 in
  Machine.write_u64 m (data_base + 8) 21;
  Machine.persist m (data_base + 8) 8;
  let ctx = Pundo.begin_op log in
  Pundo.write ctx (data_base + 24) 31;
  Machine.write_u64 m count_addr (Machine.read_u64 m count_addr + 2);
  Machine.persist m count_addr 8;
  Memdev.crash (Machine.dev m) `Strict;
  ignore (Pundo.recover m ~count_addr);
  check_int "torn op rolled back" 30 (Machine.read_u64 m (data_base + 24));
  check_int "durable write kept" 21 (Machine.read_u64 m (data_base + 8));
  check_int "untouched word" 2 (Machine.read_u64 m (data_base + 16))

let test_overflow () =
  let m = mkmach () in
  let ctx = begin_op m in
  check "overflow raises" true
    (try
       for i = 0 to 64 do
         Pundo.write ctx (data_base + (i * 8)) i
       done;
       false
     with Pundo.Overflow -> true)

(* A batch whose fresh words exceed the cap raises before appending
   anything; words the op already logged do not count. *)
let test_batch_overflow () =
  let m = mkmach () in
  let ctx = begin_op m in
  let word i = data_base + (i * 8) in
  for i = 0 to 59 do
    Pundo.write ctx (word i) i
  done;
  let count_word = Machine.read_u64 m count_addr in
  let batch fresh =
    (word 0, 999) :: List.init fresh (fun k -> (word (60 + k), 100 + k))
  in
  check "overflow raises" true
    (try Pundo.write_all ctx (batch 5); false with Pundo.Overflow -> true);
  check_int "count word unchanged" count_word (Machine.read_u64 m count_addr);
  check_int "no entry appended" 0
    (Machine.read_u64 m (entries_addr + (60 * Pundo.entry_size)));
  check_int "logged word unchanged" 0 (Machine.read_u64 m (word 0));
  for k = 0 to 4 do
    check_int "fresh word unchanged" 0 (Machine.read_u64 m (word (60 + k)))
  done;
  Pundo.write_all ctx (batch 4);
  check_int "the batch filled the log" 64 (count_field m);
  check_int "stores issued" 999 (Machine.read_u64 m (word 0))

let test_before_truncate_hook () =
  let m = mkmach () in
  let order = ref [] in
  let ctx = begin_op m in
  Pundo.write ctx data_base 1;
  Pundo.commit ctx ~before_truncate:(fun () ->
      order := `Hook :: !order;
      order := (`Count (count_field m)) :: !order);
  (* the hook must run while the log is still non-empty *)
  check "hook saw non-empty log" true
    (List.exists (function `Count 1 -> true | _ -> false) !order)

let test_mark_dirty_persisted_at_commit () =
  let m = mkmach () in
  let ctx = begin_op m in
  Pundo.write ctx data_base 1; (* ensures the op is real *)
  Machine.write_u64 m (data_base + 64) 42;
  Pundo.mark_dirty ctx (data_base + 64);
  Pundo.commit ctx;
  Memdev.crash (Machine.dev m) `Strict;
  check_int "marked line flushed" 42 (Machine.read_u64 m (data_base + 64))

(* property: random op traces with strict crash at any point recover
   to a prefix of committed ops *)
let prop_random_ops_crash_recover =
  QCheck.Test.make ~name:"undo log: crash anywhere, recover to last commit"
    ~count:60
    QCheck.(pair small_nat (list (pair (int_bound 15) (int_bound 999))))
    (fun (crash_after, ops) ->
      let m = mkmach () in
      let log = mklog m in
      (* initial committed state: slot i = i *)
      for i = 0 to 15 do
        Machine.write_u64 m (data_base + (i * 8)) i
      done;
      Machine.persist m data_base 128;
      let committed = Array.init 16 Fun.id in
      let step = ref 0 in
      (try
         List.iter
           (fun (slot, v) ->
             let ctx = Pundo.begin_op log in
             Pundo.write ctx (data_base + (slot * 8)) v;
             incr step;
             if !step = crash_after then raise Exit;
             Pundo.commit ctx;
             committed.(slot) <- v)
           ops
       with Exit -> ());
      Memdev.crash (Machine.dev m) `Strict;
      ignore (Pundo.recover m ~count_addr);
      Array.for_all Fun.id
        (Array.init 16 (fun i ->
             Machine.read_u64 m (data_base + (i * 8)) = committed.(i))))

(* ---------- plog ---------- *)

let plog_area =
  { Plog.count_addr = log_base + 32768;
    entries_addr = log_base + 32768 + 8;
    cap = 8 }

let test_plog_append_entries () =
  let m = mkmach () in
  Plog.append m plog_area 11;
  Plog.append m plog_area 22;
  Alcotest.(check (list int)) "entries" [ 11; 22 ] (Plog.entries m plog_area);
  check "not empty" false (Plog.is_empty m plog_area);
  Plog.truncate m plog_area;
  check "empty after truncate" true (Plog.is_empty m plog_area)

let test_plog_survives_crash () =
  let m = mkmach () in
  Plog.append m plog_area 7;
  Memdev.crash (Machine.dev m) `Strict;
  Alcotest.(check (list int)) "entry durable" [ 7 ] (Plog.entries m plog_area)

let test_plog_truncate_is_commit () =
  let m = mkmach () in
  Plog.append m plog_area 7;
  Plog.truncate m plog_area;
  Memdev.crash (Machine.dev m) `Strict;
  check "truncation durable" true (Plog.is_empty m plog_area)

let test_plog_full () =
  let m = mkmach () in
  for i = 1 to 8 do
    Plog.append m plog_area i
  done;
  check "full" true (Plog.is_full m plog_area);
  check "overflow raises" true
    (try Plog.append m plog_area 9; false with Plog.Overflow -> true)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_random_ops_crash_recover ]

let () =
  Alcotest.run "persist"
    [ ( "pundo",
        [ Alcotest.test_case "write/commit" `Quick test_write_and_commit;
          Alcotest.test_case "crash mid-op" `Quick test_crash_mid_op_rolls_back;
          Alcotest.test_case "adversarial crash" `Quick test_adversarial_crash_mid_op;
          Alcotest.test_case "log once per word" `Quick test_first_write_logged_once;
          Alcotest.test_case "idempotent recover" `Quick test_recover_idempotent;
          Alcotest.test_case "torn entry" `Quick test_torn_entry_skipped;
          Alcotest.test_case "log without generations" `Quick
            test_generation_zero_log_recovers;
          Alcotest.test_case "stale entry of an earlier op" `Quick
            test_stale_entry_skipped;
          Alcotest.test_case "no generation reuse after attach" `Quick
            test_no_generation_reuse_after_attach;
          Alcotest.test_case "overflow" `Quick test_overflow;
          Alcotest.test_case "batch overflow" `Quick test_batch_overflow;
          Alcotest.test_case "before_truncate hook" `Quick test_before_truncate_hook;
          Alcotest.test_case "mark_dirty" `Quick test_mark_dirty_persisted_at_commit ]
        @ qsuite );
      ( "plog",
        [ Alcotest.test_case "append/entries" `Quick test_plog_append_entries;
          Alcotest.test_case "durable entries" `Quick test_plog_survives_crash;
          Alcotest.test_case "truncate commit" `Quick test_plog_truncate_is_commit;
          Alcotest.test_case "capacity" `Quick test_plog_full ] ) ]
