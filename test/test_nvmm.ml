(* Tests for the simulated NVMM device: access widths, regions,
   sparse backing, clwb/sfence persistence semantics, crash modes,
   hole punching, counters. *)

module Memdev = Nvmm.Memdev
module Prng = Repro_util.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mkdev ?(size = 1 lsl 20) () =
  let d = Memdev.create () in
  Memdev.add_region d ~base:0 ~size ~kind:Memdev.Nvmm ~numa:0;
  d

(* ---------- scalar access ---------- *)

let test_rw_widths () =
  let d = mkdev () in
  Memdev.write_u8 d 0 0xAB;
  check_int "u8" 0xAB (Memdev.read_u8 d 0);
  Memdev.write_u16 d 2 0xBEEF;
  check_int "u16" 0xBEEF (Memdev.read_u16 d 2);
  Memdev.write_u32 d 4 0xDEADBEEF;
  check_int "u32" 0xDEADBEEF (Memdev.read_u32 d 4);
  Memdev.write_u64 d 8 0x123456789ABCDEF;
  check_int "u64" 0x123456789ABCDEF (Memdev.read_u64 d 8)

let test_unwritten_reads_zero () =
  let d = mkdev () in
  check_int "virgin zero" 0 (Memdev.read_u64 d 4096)

let test_chunk_straddle () =
  let d = mkdev ~size:(1 lsl 20) () in
  (* 64 KiB chunk boundary at 65536; unaligned u64 across it *)
  let a = 65536 - 3 in
  Memdev.write_u64 d a 0x1122334455667788;
  check_int "straddling u64" 0x1122334455667788 (Memdev.read_u64 d a);
  check_int "bytes before" 0x88 (Memdev.read_u8 d a)

let test_bytes_roundtrip () =
  let d = mkdev () in
  let src = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  Memdev.write_bytes d 100 src;
  Alcotest.(check string) "roundtrip" (Bytes.to_string src)
    (Bytes.to_string (Memdev.read_bytes d 100 (Bytes.length src)))

let test_bytes_across_chunks () =
  let d = mkdev ~size:(1 lsl 20) () in
  let src = Bytes.make 200_000 'x' in
  Bytes.set src 0 'a';
  Bytes.set src 199_999 'z';
  Memdev.write_bytes d 10 src;
  let back = Memdev.read_bytes d 10 200_000 in
  check "multi-chunk blob" true (Bytes.equal src back)

let test_fill () =
  let d = mkdev () in
  Memdev.fill d 64 100 'q';
  check_int "filled" (Char.code 'q') (Memdev.read_u8 d 163);
  check_int "boundary" 0 (Memdev.read_u8 d 164)

(* ---------- regions ---------- *)

let test_region_info () =
  let d = Memdev.create () in
  Memdev.add_region d ~base:0 ~size:4096 ~kind:Memdev.Dram ~numa:0;
  Memdev.add_region d ~base:8192 ~size:4096 ~kind:Memdev.Nvmm ~numa:1;
  check "dram" true (Memdev.region_info d 100 = (Memdev.Dram, 0));
  check "nvmm" true (Memdev.region_info d 8192 = (Memdev.Nvmm, 1));
  check "has_region" true (Memdev.has_region d 0);
  check "no region" false (Memdev.has_region d 5000)

let test_region_overlap_rejected () =
  let d = Memdev.create () in
  Memdev.add_region d ~base:0 ~size:8192 ~kind:Memdev.Nvmm ~numa:0;
  check "overlap rejected" true
    (try
       Memdev.add_region d ~base:4096 ~size:8192 ~kind:Memdev.Nvmm ~numa:0;
       false
     with Invalid_argument _ -> true)

let test_invalid_address () =
  let d = mkdev ~size:4096 () in
  check "oob read raises" true
    (try ignore (Memdev.read_u64 d 4096); false
     with Memdev.Invalid_address _ -> true);
  check "oob write raises" true
    (try Memdev.write_u64 d 4090 1; false
     with Memdev.Invalid_address _ -> true)

(* ---------- persistence ---------- *)

let test_unflushed_lost_on_crash () =
  let d = mkdev () in
  Memdev.write_u64 d 0 42;
  Memdev.crash d `Strict;
  check_int "unflushed store lost" 0 (Memdev.read_u64 d 0)

let test_persist_survives_crash () =
  let d = mkdev () in
  Memdev.write_u64 d 0 42;
  Memdev.persist d 0 8;
  Memdev.write_u64 d 8 43; (* same line, not re-flushed *)
  Memdev.crash d `Strict;
  check_int "flushed survives" 42 (Memdev.read_u64 d 0);
  check_int "later store on same line lost" 0 (Memdev.read_u64 d 8)

let test_clwb_without_sfence_lost () =
  let d = mkdev () in
  Memdev.write_u64 d 0 42;
  Memdev.clwb d 0;
  (* no sfence *)
  Memdev.crash d `Strict;
  check_int "clwb without fence not durable" 0 (Memdev.read_u64 d 0)

let test_clwb_snapshot_semantics () =
  (* stores after clwb but before sfence must not be made durable by
     that earlier clwb *)
  let d = mkdev () in
  Memdev.write_u64 d 0 1;
  Memdev.clwb d 0;
  Memdev.write_u64 d 0 2;
  Memdev.sfence d;
  Memdev.crash d `Strict;
  check_int "snapshot at clwb time" 1 (Memdev.read_u64 d 0)

let test_dirty_tracking () =
  let d = mkdev () in
  check_int "clean" 0 (Memdev.dirty_lines d);
  Memdev.write_u64 d 0 1;
  Memdev.write_u64 d 8 2; (* same line *)
  check_int "one dirty line" 1 (Memdev.dirty_lines d);
  Memdev.write_u64 d 64 3;
  check_int "two dirty lines" 2 (Memdev.dirty_lines d);
  Memdev.persist d 0 72;
  check_int "clean after persist" 0 (Memdev.dirty_lines d)

let test_drain () =
  let d = mkdev () in
  for i = 0 to 99 do
    Memdev.write_u64 d (i * 64) i
  done;
  Memdev.drain d;
  Memdev.crash d `Strict;
  let ok = ref true in
  for i = 0 to 99 do
    if Memdev.read_u64 d (i * 64) <> i then ok := false
  done;
  check "drain flushed everything" true !ok

let test_adversarial_crash_subsets () =
  (* adversarial crash may persist any subset of dirty lines; flushed
     data must survive regardless, and every line must hold either the
     old or the new value *)
  let rng = Prng.create 99 in
  for _ = 1 to 20 do
    let d = mkdev () in
    Memdev.write_u64 d 0 7;
    Memdev.persist d 0 8;
    Memdev.write_u64 d 0 8;   (* dirty again *)
    Memdev.write_u64 d 64 9;  (* dirty, never flushed *)
    Memdev.crash d (`Adversarial rng);
    let v0 = Memdev.read_u64 d 0 and v1 = Memdev.read_u64 d 64 in
    check "line0 old or new" true (v0 = 7 || v0 = 8);
    check "line1 zero or evicted" true (v1 = 0 || v1 = 9)
  done

(* An adversarial crash draws one bit per dirty line, in line order
   within a chunk, then one per staged line in the order in which a
   [Hashtbl] from line base to snapshot, created with 64 buckets at the
   last fence, iterates.  Crashcheck's subsets rest on that order.  300
   staged lines take such a table through two resizes, and a punch
   then drops 100 of them: the table keeps the buckets it grew to. *)
let test_adversarial_staged_order () =
  let n = 300 and dropped i = i >= 100 && i < 200 in
  let seed = 5 in
  let d = mkdev () in
  for i = 0 to n - 1 do
    Memdev.write_u64 d (i * 64) (i + 1);
    Memdev.clwb d (i * 64);
    Memdev.write_u64 d (i * 64) (i + 1001) (* after the snapshot *)
  done;
  Memdev.punch d (100 * 64) (100 * 64);
  Memdev.crash d (`Adversarial (Prng.create seed));
  let rng = Prng.create seed in
  let evicted = Array.init n (fun i -> (not (dropped i)) && Prng.bool rng) in
  let tbl = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl (i * 64) i
  done;
  for i = 100 to 199 do
    Hashtbl.remove tbl (i * 64)
  done;
  let landed = Array.make n false in
  Hashtbl.iter (fun _ i -> landed.(i) <- Prng.bool rng) tbl;
  for i = 0 to n - 1 do
    let want =
      if landed.(i) then i + 1 else if evicted.(i) then i + 1001 else 0
    in
    check_int (Printf.sprintf "line %d" i) want (Memdev.read_u64 d (i * 64))
  done

let test_crash_idempotent () =
  let d = mkdev () in
  Memdev.write_u64 d 0 5;
  Memdev.persist d 0 8;
  Memdev.crash d `Strict;
  Memdev.crash d `Strict;
  check_int "double crash stable" 5 (Memdev.read_u64 d 0)

(* ---------- punch ---------- *)

let test_punch_zeroes () =
  let d = mkdev ~size:(1 lsl 20) () in
  Memdev.write_u64 d 100 42;
  Memdev.persist d 100 8;
  Memdev.punch d 0 4096;
  check_int "volatile zeroed" 0 (Memdev.read_u64 d 100);
  Memdev.crash d `Strict;
  check_int "persistent zeroed" 0 (Memdev.read_u64 d 100)

let test_punch_whole_chunk () =
  let d = mkdev ~size:(1 lsl 20) () in
  Memdev.write_u64 d 65536 1;
  Memdev.write_u64 d 65536 1;
  Memdev.punch d 65536 65536; (* exactly one backing chunk *)
  check_int "chunk released" 0 (Memdev.read_u64 d 65536)

let test_punch_partial () =
  let d = mkdev () in
  Memdev.write_u64 d 0 1;
  Memdev.write_u64 d 4096 2;
  Memdev.persist d 0 8;
  Memdev.persist d 4096 8;
  Memdev.punch d 0 4096;
  check_int "punched part zero" 0 (Memdev.read_u64 d 0);
  check_int "other part intact" 2 (Memdev.read_u64 d 4096)

(* A punch drops the lines staged in its range: the next fence must
   not write them back, and a crash must not persist them either. *)
let test_punch_drops_staged () =
  let chunk = 65536 in
  let lines = ref [] in
  let d = mkdev ~size:(1 lsl 20) () in
  Memdev.set_persistence_hook d
    (Some (fun i -> lines := i.Memdev.lines_committed :: !lines));
  Memdev.write_u64 d 64 42;               (* inside a chunk, partial punch *)
  Memdev.write_u64 d (chunk + 128) 43;    (* whole-chunk punch *)
  Memdev.write_u64 d 4096 44;             (* outside both punches *)
  List.iter (Memdev.clwb d) [ 64; chunk + 128; 4096 ];
  Memdev.punch d 0 128;
  Memdev.punch d chunk chunk;
  Memdev.sfence d;
  check "fence wrote back only the unpunched line" true (!lines = [ 1 ]);
  check_int "partial punch reads zero" 0 (Memdev.read_u64 d 64);
  check_int "whole-chunk punch reads zero" 0 (Memdev.read_u64 d (chunk + 128));
  Memdev.crash d `Strict;
  check_int "partial punch not persisted" 0 (Memdev.read_u64 d 64);
  check_int "whole-chunk punch not persisted" 0 (Memdev.read_u64 d (chunk + 128));
  check_int "unpunched line persisted" 44 (Memdev.read_u64 d 4096);
  (* staged, punched, then crashed before any fence: an adversarial
     crash draws only from what is still at risk *)
  let rng = Prng.create 7 in
  for _ = 1 to 16 do
    let d = mkdev ~size:(1 lsl 20) () in
    Memdev.write_u64 d 64 42;
    Memdev.write_u64 d (chunk + 128) 43;
    Memdev.clwb d 64;
    Memdev.clwb d (chunk + 128);
    Memdev.punch d 0 128;
    Memdev.punch d chunk chunk;
    Memdev.crash d (`Adversarial rng);
    check_int "partial punch survives no crash" 0 (Memdev.read_u64 d 64);
    check_int "whole-chunk punch survives no crash" 0
      (Memdev.read_u64 d (chunk + 128))
  done

(* A punch that covers part of a line keeps the unflushed stores to
   the line's other bytes: the line stays dirty, and a staged snapshot
   of it stays staged with the punched bytes zeroed. *)
let test_punch_part_of_line () =
  let crashed_after f =
    let d = mkdev () in
    f d;
    Memdev.crash d `Strict;
    (Memdev.read_u64 d 0, Memdev.read_u64 d 32, Memdev.read_u64 d 40)
  in
  List.iter
    (fun (name, f) ->
      let w0, w32, w40 = crashed_after f in
      check_int (name ^ ": the unpunched word persisted") 7 w0;
      check_int (name ^ ": the punched bytes read zero") 0 (w32 lor w40))
    [ ( "drain",
        fun d ->
          Memdev.write_u64 d 0 7;
          Memdev.punch d 32 32;
          Memdev.drain d );
      ( "clwb + sfence",
        fun d ->
          Memdev.write_u64 d 0 7;
          Memdev.punch d 32 32;
          Memdev.clwb d 0;
          Memdev.sfence d );
      ( "staged before the punch",
        fun d ->
          Memdev.write_u64 d 0 7;
          Memdev.write_u64 d 40 9;
          Memdev.clwb d 0;
          Memdev.punch d 32 32;
          Memdev.sfence d ) ]

(* A line staged again after a punch dropped its first snapshot
   commits the newer one. *)
let test_restage_after_punch () =
  let d = mkdev () in
  Memdev.write_u64 d 0 1;
  Memdev.clwb d 0;
  Memdev.punch d 0 64;
  Memdev.write_u64 d 8 2;
  Memdev.clwb d 0;
  Memdev.write_u64 d 16 3;
  Memdev.clwb d 0; (* re-snapshot of the same staged line *)
  Memdev.sfence d;
  Memdev.crash d `Strict;
  check_int "punched word" 0 (Memdev.read_u64 d 0);
  check_int "restaged word" 2 (Memdev.read_u64 d 8);
  check_int "resnapshot word" 3 (Memdev.read_u64 d 16)

(* Reads cache the chunk they hit; a whole-chunk punch must not leave
   the released chunk visible through that cache. *)
let test_punch_after_read () =
  let chunk = 65536 in
  let d = mkdev ~size:(1 lsl 20) () in
  Memdev.write_u64 d (chunk + 8) 7;
  Memdev.write_u64 d (chunk + 24) 8;
  Memdev.persist d chunk 64;
  check_int "read before punch" 7 (Memdev.read_u64 d (chunk + 8));
  Memdev.punch d chunk chunk;
  check_int "read after punch" 0 (Memdev.read_u64 d (chunk + 8));
  Memdev.write_u64 d (chunk + 16) 9;
  check_int "new word" 9 (Memdev.read_u64 d (chunk + 16));
  check_int "zero before it" 0 (Memdev.read_u64 d (chunk + 8));
  check_int "zero after it" 0 (Memdev.read_u64 d (chunk + 24));
  check "rest of the chunk zero" true
    (Bytes.for_all (( = ) '\000') (Memdev.read_bytes d (chunk + 64) (chunk - 64)));
  Memdev.persist d (chunk + 16) 8;
  Memdev.crash d `Strict;
  check_int "new word persisted" 9 (Memdev.read_u64 d (chunk + 16));
  check_int "old word gone" 0 (Memdev.read_u64 d (chunk + 8))

(* Chunks 1 and 1 + 1024 share a slot of the device's chunk cache. *)
let test_chunk_cache_collision () =
  let chunk = 65536 in
  let d = mkdev ~size:(1 lsl 27) () in
  let a = chunk + 8 and b = (1025 * chunk) + 8 in
  Memdev.write_u64 d a 1;
  Memdev.write_u64 d b 2;
  check_int "first chunk" 1 (Memdev.read_u64 d a);
  check_int "second chunk" 2 (Memdev.read_u64 d b);
  Memdev.punch d (1025 * chunk) chunk;
  check_int "first chunk kept" 1 (Memdev.read_u64 d a);
  check_int "second chunk released" 0 (Memdev.read_u64 d b)

(* ---------- counters ---------- *)

let test_counters () =
  let d = mkdev () in
  Memdev.reset_counters d;
  Memdev.write_u64 d 0 1;
  ignore (Memdev.read_u64 d 0);
  Memdev.persist d 0 8;
  let c = Memdev.counters d in
  check_int "stores" 1 c.Memdev.stores;
  check_int "loads" 1 c.Memdev.loads;
  check_int "flushed" 1 c.Memdev.lines_flushed;
  check_int "fences" 1 c.Memdev.fences

(* property: random write/persist/crash traces keep the persistent
   image consistent with the flush history *)
let prop_crash_consistency =
  QCheck.Test.make ~name:"every persisted write survives a strict crash"
    ~count:100
    QCheck.(list (pair (int_bound 63) (int_bound 1000)))
    (fun writes ->
      let d = mkdev () in
      let last = Hashtbl.create 16 in
      List.iter
        (fun (slot, v) ->
          let addr = slot * 8 in
          Memdev.write_u64 d addr v;
          Memdev.persist d addr 8;
          Hashtbl.replace last addr v)
        writes;
      Memdev.crash d `Strict;
      Hashtbl.fold (fun addr v ok -> ok && Memdev.read_u64 d addr = v) last true)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_crash_consistency ]

let () =
  Alcotest.run "nvmm"
    [ ( "access",
        [ Alcotest.test_case "widths" `Quick test_rw_widths;
          Alcotest.test_case "virgin zero" `Quick test_unwritten_reads_zero;
          Alcotest.test_case "chunk straddle" `Quick test_chunk_straddle;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "bytes across chunks" `Quick test_bytes_across_chunks;
          Alcotest.test_case "fill" `Quick test_fill ] );
      ( "regions",
        [ Alcotest.test_case "info" `Quick test_region_info;
          Alcotest.test_case "overlap rejected" `Quick test_region_overlap_rejected;
          Alcotest.test_case "invalid address" `Quick test_invalid_address ] );
      ( "persistence",
        [ Alcotest.test_case "unflushed lost" `Quick test_unflushed_lost_on_crash;
          Alcotest.test_case "flushed survives" `Quick test_persist_survives_crash;
          Alcotest.test_case "clwb needs fence" `Quick test_clwb_without_sfence_lost;
          Alcotest.test_case "clwb snapshots" `Quick test_clwb_snapshot_semantics;
          Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
          Alcotest.test_case "drain" `Quick test_drain;
          Alcotest.test_case "adversarial subsets" `Quick
            test_adversarial_crash_subsets;
          Alcotest.test_case "adversarial draw order" `Quick
            test_adversarial_staged_order;
          Alcotest.test_case "crash idempotent" `Quick test_crash_idempotent ]
        @ qsuite );
      ( "punch",
        [ Alcotest.test_case "zeroes" `Quick test_punch_zeroes;
          Alcotest.test_case "whole chunk" `Quick test_punch_whole_chunk;
          Alcotest.test_case "partial" `Quick test_punch_partial;
          Alcotest.test_case "drops staged lines" `Quick test_punch_drops_staged;
          Alcotest.test_case "part of a line" `Quick test_punch_part_of_line;
          Alcotest.test_case "restage after punch" `Quick test_restage_after_punch;
          Alcotest.test_case "whole chunk after read" `Quick test_punch_after_read;
          Alcotest.test_case "chunk cache collision" `Quick
            test_chunk_cache_collision ] );
      ("counters", [ Alcotest.test_case "basic" `Quick test_counters ]) ]
