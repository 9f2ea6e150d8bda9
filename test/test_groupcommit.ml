(* Group commit + pipelined persistence: the link's doorbell batching,
   Kv.group_commit's chunked covering-flush semantics, batched shipping
   with cumulative acks, the piggybacked 2PC decide, same-seed serve
   determinism and the window bound, and the windowed loss-bound property —
   a crash mid-batch loses at most the unacked window, never an acked
   op. *)

module Kv = Service.Kv
module S = Service.Server
module R = Replica
module H = Poseidon.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let heap_base = 1 lsl 30

let mk_store ?(value_size = 64) ~shards () =
  let cfg =
    { Machine.Config.default with
      Machine.Config.num_cpus = 1;
      numa_domains = 1 }
  in
  let mach = Machine.create ~cfg () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 20) ()
  in
  let inst = Poseidon.instance heap in
  (mach, inst, Kv.create inst ~shards ~value_size)

(* the first [n] keys the 2-shard hash partition puts on shard 0 — the
   tests never hardcode the map *)
let shard0_keys n =
  let rec go acc k =
    if List.length acc = n then List.rev acc
    else if Kv.shard_of ~shards:2 k = 0 then go (k :: acc) (k + 1)
    else go acc (k + 1)
  in
  go [] 1

(* Ids restart at 1 with every attach, so recovery zeroes each decided
   word: a word left over from before a crash would equal the id of a
   new chunk's slot, and recovery would redo that chunk although it
   never reached its commit point.  Crash a put at every fence, with
   shard 0's pre-crash word equal to the put's id: the put must be all
   or nothing, and a later put must keep its own value (a redone slot
   whose block the heap's replay freed would share it). *)
let test_stale_decided_word () =
  let exception Crash_now in
  let ks = Array.of_list (shard0_keys 5) in
  let other =
    List.filter (fun k -> Kv.shard_of ~shards:2 k = 1) (List.init 20 (fun k -> k + 1))
  in
  let rec sweep stop =
    let mach, _, kv = mk_store ~shards:2 () in
    let reattach () =
      fst (Kv.attach (Poseidon.instance (H.attach mach ~base:heap_base ())))
    in
    (* ids 1..3: shard 0's decided word is 3 *)
    for i = 0 to 2 do
      assert (Kv.put kv ~key:ks.(i) ~vseed:i)
    done;
    let dev = Machine.dev mach in
    Nvmm.Memdev.crash dev `Strict;
    let kv = reattach () in
    (* ids 1 and 2 on shard 1, so shard 0's word stays as it was; the
       put below takes id 3 *)
    assert (Kv.put kv ~key:(List.nth other 0) ~vseed:3);
    assert (Kv.put kv ~key:(List.nth other 1) ~vseed:4);
    Nvmm.Memdev.reset_counters dev;
    Nvmm.Memdev.set_persistence_hook dev
      (Some
         (fun { Nvmm.Memdev.fence_no = f; _ } ->
           if f >= stop then raise Crash_now));
    let finished =
      try
        ignore (Kv.put kv ~key:ks.(3) ~vseed:5);
        true
      with Crash_now -> false
    in
    Nvmm.Memdev.set_persistence_hook dev None;
    Nvmm.Memdev.crash dev `Strict;
    let kv = reattach () in
    assert (Kv.put kv ~key:ks.(4) ~vseed:6);
    let cks vs = Some (Kv.value_checksum kv ~vseed:vs) in
    let got = Kv.get kv ~key:ks.(3) in
    check "in-flight put is all or nothing" true (got = None || got = cks 5);
    check "a later put keeps its own value" true (Kv.get kv ~key:ks.(4) = cks 6);
    Kv.check kv;
    if not finished then sweep (stop + 1)
  in
  sweep 1

(* A two-port link between machines, as the replicated server builds. *)
let link ?drop_pct ?dup_pct ?seed ?(capacity = 256) () =
  Net.create ?drop_pct ?dup_pct ?seed (Machine.create ())
    ~ports:[| (0, capacity); (0, capacity) |] ()

(* ---------- Net: doorbell buffering + framed flush ---------- *)

let test_link_doorbell () =
  let l : int Net.t = link () in
  Net.buffer l ~dst:1 10;
  Net.buffer l ~dst:1 11;
  Net.buffer l ~dst:1 12;
  check_int "staged, not sent" 3 (Net.buffered l ~dst:1);
  check_int "nothing on the wire before the doorbell" 0
    (Net.pending l ~port:1);
  check "recv sees nothing" true (Net.recv l ~port:1 = None);
  check_int "flush carries the whole frame" 3 (Net.flush l ~dst:1);
  check_int "buffer drained" 0 (Net.buffered l ~dst:1);
  check_int "frame delivered" 3 (Net.pending l ~port:1);
  (match Net.recv l ~port:1 with
   | Some m -> check_int "in-order within the frame" 10 m.Net.payload
   | None -> Alcotest.fail "expected delivery");
  check_int "empty flush is free" 0 (Net.flush l ~dst:1);
  let s = Net.stats l ~port:1 in
  check_int "one doorbell rung" 1 s.Net.flushes;
  check_int "all records counted sent" 3 s.Net.enqueued;
  (* faults are frame-granular: a drop loses the whole frame, a dup
     re-delivers it whole — so the fault counters move in multiples of
     the frame size *)
  let lossy : int Net.t =
    link ~capacity:4096 ~drop_pct:30 ~dup_pct:20 ~seed:11 ()
  in
  for f = 1 to 50 do
    for r = 1 to 3 do
      Net.buffer lossy ~dst:1 ((100 * f) + r)
    done;
    ignore (Net.flush lossy ~dst:1)
  done;
  let s = Net.stats lossy ~port:1 in
  check "frames were dropped" true (s.Net.dropped > 0);
  check "frames were duplicated" true (s.Net.duplicated > 0);
  check_int "drops are whole frames" 0 (s.Net.dropped mod 3);
  check_int "dups are whole frames" 0 (s.Net.duplicated mod 3);
  check_int "queue accounts for every fault"
    (s.Net.enqueued - s.Net.dropped + s.Net.duplicated)
    (Net.pending lossy ~port:1)

(* ---------- Kv.group_commit vs the sequential per-op path ---------- *)

let test_group_commit_equivalence () =
  let _, _, a = mk_store ~shards:2 () in
  let _, _, b = mk_store ~shards:2 () in
  let ks = Array.of_list (shard0_keys 12) in
  List.iter
    (fun kv ->
      for i = 0 to 5 do
        assert (Kv.put kv ~key:ks.(i) ~vseed:(100 + i))
      done)
    [ a; b ];
  (* 12 ops > max_txn_ops forces chunking; ks.(0) twice forces an
     early chunk split; ks.(11) is absent so its delete is a no-op;
     delete-then-put of ks.(2) crosses a chunk boundary by key reuse *)
  let plan =
    [ Kv.Tput { key = ks.(0); vseed = 201 };
      Kv.Tput { key = ks.(6); vseed = 202 };
      Kv.Tdel { key = ks.(1) };
      Kv.Tput { key = ks.(0); vseed = 203 };
      Kv.Tdel { key = ks.(11) };
      Kv.Tput { key = ks.(7); vseed = 204 };
      Kv.Tdel { key = ks.(2) };
      Kv.Tput { key = ks.(2); vseed = 205 };
      Kv.Tput { key = ks.(8); vseed = 206 };
      Kv.Tput { key = ks.(9); vseed = 207 };
      Kv.Tdel { key = ks.(3) };
      Kv.Tput { key = ks.(10); vseed = 208 } ]
  in
  let chunks = ref [] in
  let results =
    Kv.group_commit a ~shard:0 plan ~on_chunk:(fun ~fin:_ cops ->
        chunks := cops :: !chunks)
  in
  let expected =
    List.map
      (function
        | Kv.Tput { key; vseed } -> Kv.put b ~key ~vseed
        | Kv.Tdel { key } -> Kv.delete b ~key)
      plan
  in
  check "per-op outcomes match the sequential path" true
    (List.map fst results = expected);
  Array.iter
    (fun k ->
      check "final state matches the sequential path" true
        (Kv.get a ~key:k = Kv.get b ~key:k))
    ks;
  check_int "same key count" (Kv.count_keys b) (Kv.count_keys a);
  Kv.check a;
  (* chunk shape: every chunk within the cap, no duplicate key inside
     one chunk, and only the absent delete stayed out *)
  let shipped = List.concat (List.rev !chunks) in
  check_int "absent delete never enters a chunk"
    (List.length plan - 1)
    (List.length shipped);
  List.iter
    (fun c ->
      check "chunk within max_txn_ops" true
        (List.length c <= Kv.max_txn_ops);
      let keys = List.map (function
          | Kv.Tput { key; _ } | Kv.Tdel { key } -> key)
          c
      in
      check "no duplicate key inside a chunk" true
        (List.length (List.sort_uniq compare keys) = List.length keys))
    (List.rev !chunks);
  check "wrong-shard key refused" true
    (try
       ignore (Kv.group_commit a ~shard:1 [ Kv.Tput { key = ks.(0); vseed = 1 } ]);
       false
     with Invalid_argument _ -> true)

(* When the heap runs out mid-chunk the chunk is retried as one-op
   chunks, so the group reports exactly what one put at a time would:
   the puts that still fit succeed, the rest return false, and nothing
   half-done stays behind. *)
let test_group_commit_exhaustion () =
  let fill () =
    let mach, _, kv = mk_store ~value_size:8192 ~shards:2 () in
    let ks = shard0_keys 400 in
    let rec go = function
      | k :: rest when Kv.put kv ~key:k ~vseed:k -> go rest
      | rest -> rest
    in
    let left = go ks in
    (* room for three more values, so a chunk of eight cannot fit *)
    List.iteri
      (fun i k -> if i < 3 then assert (Kv.delete kv ~key:k))
      ks;
    (mach, kv, List.filteri (fun i _ -> i < 8) left)
  in
  let mach, a, fresh = fill () in
  let _, b, _ = fill () in
  let plan = List.map (fun k -> Kv.Tput { key = k; vseed = 7 * k }) fresh in
  let grouped = List.map fst (Kv.group_commit a ~shard:0 plan) in
  let single = List.map (fun k -> Kv.put b ~key:k ~vseed:(7 * k)) fresh in
  check "some puts fit, some do not" true
    (List.mem true single && List.mem false single);
  check "group reports what one put at a time does" true (grouped = single);
  List.iter
    (fun k ->
      check "same outcome per key" true (Kv.get a ~key:k = Kv.get b ~key:k))
    fresh;
  Kv.check a;
  check_int "same key count" (Kv.count_keys b) (Kv.count_keys a);
  (* the failed chunk released its blocks: the heap is consistent *)
  H.check_invariants (H.attach mach ~base:heap_base ())

(* group commit survives re-attach like any other transaction: after a
   clean group the store recovers with nothing pending *)
let test_group_commit_recovery () =
  let _, inst, kv = mk_store ~shards:2 () in
  let ks = Array.of_list (shard0_keys 4) in
  let plan =
    [ Kv.Tput { key = ks.(0); vseed = 1 };
      Kv.Tput { key = ks.(1); vseed = 2 };
      Kv.Tput { key = ks.(2); vseed = 3 };
      Kv.Tdel { key = ks.(3) } ]
  in
  ignore (Kv.group_commit kv ~shard:0 plan);
  let kv2, rc = Kv.attach inst in
  check_int "nothing to replay" 0 (rc.Kv.replayed + rc.Kv.rolled_back);
  Array.iteri
    (fun i k -> check "state survives re-attach" true
        (Kv.get kv2 ~key:k = (if i < 3 then Some (Kv.value_checksum kv2 ~vseed:(i + 1)) else None)))
    ks

(* The value index mirrors the trees after every operation of a seeded
   plan ([Kv.check] compares each entry with its key's tree value):
   puts, deletes of present and of absent keys, group commits with
   duplicate keys, committed and aborted transactions, and Strict
   crashes with an armed slot — decided (redone by the re-attach, whose
   apply fills the fresh handle's index) or only prepared (rolled
   back). *)
let test_value_index_exact () =
  let mach, _, kv0 = mk_store ~shards:4 () in
  let kv = ref kv0 in
  let rng = Random.State.make [| 27 |] in
  let nkeys = 48 in
  let model = Hashtbl.create nkeys in
  let vseed = ref 0 in
  let put k =
    incr vseed;
    Kv.Tput { key = k; vseed = !vseed }
  in
  let model_apply = function
    | Kv.Tput { key; vseed } -> Hashtbl.replace model key vseed
    | Kv.Tdel { key } -> Hashtbl.remove model key
  in
  let any_key () = 1 + Random.State.int rng nkeys in
  let rec key_where p =
    let k = any_key () in
    if p k then k else key_where p
  in
  let present_key () =
    if Hashtbl.length model = 0 then None
    else Some (key_where (Hashtbl.mem model))
  in
  let absent_key () =
    if Hashtbl.length model = nkeys then nkeys + 1
    else key_where (fun k -> not (Hashtbl.mem model k))
  in
  (* two distinct keys on distinct shards, neither equal to [avoid] *)
  let cross_pair avoid =
    let a = key_where (fun k -> k <> avoid) in
    let b =
      key_where (fun k ->
          k <> avoid && Kv.shard_of_key !kv k <> Kv.shard_of_key !kv a)
    in
    (a, b)
  in
  let crash_with_armed_slot ~decided =
    let a, b = cross_pair 0 in
    let ops = [ put a; put b ] in
    (match Kv.txn_prepare !kv ops with
     | Error _ -> Alcotest.fail "prepare failed"
     | Ok p -> if decided then ignore (Kv.txn_decide !kv p));
    Nvmm.Memdev.crash (Machine.dev mach) `Strict;
    let kv2, r =
      Kv.attach (Poseidon.instance (H.attach mach ~base:heap_base ()))
    in
    kv := kv2;
    if decided then begin
      List.iter model_apply ops;
      check_int "both slots redone" 2 r.Kv.replayed;
      check_int "the redo filled the fresh index" 2 (Kv.vindex_entries kv2)
    end
    else check_int "both slots rolled back" 2 r.Kv.rolled_back
  in
  for step = 1 to 240 do
    (match step with
     | 80 -> crash_with_armed_slot ~decided:true
     | 160 -> crash_with_armed_slot ~decided:false
     | _ -> (
       match Random.State.int rng 6 with
       | 0 ->
         let k = any_key () in
         incr vseed;
         check "put" true (Kv.put !kv ~key:k ~vseed:!vseed);
         Hashtbl.replace model k !vseed
       | 1 -> (
         match present_key () with
         | Some k ->
           check "delete of a present key" true (Kv.delete !kv ~key:k);
           model_apply (Kv.Tdel { key = k })
         | None -> ())
       | 2 ->
         check "delete of an absent key" false
           (Kv.delete !kv ~key:(absent_key ()))
       | 3 ->
         (* six ops over three keys of one shard: duplicates split the
            chunk, an absent delete is a no-op *)
         let shard = Kv.shard_of_key !kv (any_key ()) in
         let pool =
           List.filter (fun k -> Kv.shard_of_key !kv k = shard)
             (List.init nkeys (fun k -> k + 1))
           |> List.filteri (fun i _ -> i < 3)
         in
         let ops =
           List.init 6 (fun _ ->
               let k = List.nth pool (Random.State.int rng (List.length pool)) in
               if Random.State.bool rng then put k else Kv.Tdel { key = k })
         in
         let results = Kv.group_commit !kv ~shard ops in
         List.iter2
           (fun o (ok, _) ->
             match o with
             | Kv.Tput _ ->
               check "group put" true ok;
               model_apply o
             | Kv.Tdel { key } ->
               check "group delete reports presence" (Hashtbl.mem model key) ok;
               model_apply o)
           ops results
       | 4 ->
         let del = present_key () in
         let a, b = cross_pair (Option.value del ~default:0) in
         let ops =
           [ put a; put b ]
           @ (match del with
              | Some k when k <> a && k <> b -> [ Kv.Tdel { key = k } ]
              | _ -> [])
         in
         check "transaction commits" true (Kv.txn !kv ops).Kv.committed;
         List.iter model_apply ops
       | _ ->
         let gone = absent_key () in
         let a, _ = cross_pair gone in
         let r = Kv.txn !kv [ put a; Kv.Tdel { key = gone } ] in
         check "absent strict delete aborts" true
           (r.Kv.abort = Some (Kv.Txn_absent_key gone))));
    Kv.check !kv
  done;
  for k = 1 to nkeys do
    check "the store matches the model" true
      (Kv.get !kv ~key:k
      = Option.map (fun vs -> Kv.value_checksum !kv ~vseed:vs)
          (Hashtbl.find_opt model k))
  done;
  let hits, misses = Kv.vindex_stats !kv in
  check "the index both hit and missed" true (hits > 0 && misses > 0)

(* ---------- batched shipping + cumulative batched acks ---------- *)

let test_batched_ship_cumulative_ack () =
  let run ~ack_batch =
    let link : R.msg Net.t = link () in
    let sh = R.Shipper.create ~window:16 ~shards:2 ~link in
    let applied = ref 0 in
    let ap =
      R.Applier.create link ~shards:2 ~ack_batch
        ~apply:(fun ~shard:_ _ -> incr applied)
        ~held:(fun ~shard:_ -> false)
    in
    for k = 1 to 6 do
      ignore
        (R.Shipper.ship sh ~shard:(k mod 2)
           (R.Put { key = k; vseed = k }))
    done;
    (* no ack can precede the covering flush: nothing is even on the
       wire, so the applier sees nothing and no ack exists *)
    check_int "nothing on the wire before the flush" 0
      (Net.pending link ~port:R.backup_ep);
    R.Applier.pump ap ~until:(fun () ->
        Net.pending link ~port:R.backup_ep = 0);
    check_int "nothing applied before the flush" 0 !applied;
    check_int "no ack before the covering flush (shard 0)" (-1)
      (R.Shipper.acked sh ~shard:0);
    check_int "no ack before the covering flush (shard 1)" (-1)
      (R.Shipper.acked sh ~shard:1);
    check_int "doorbell carries every staged record" 6 (R.Shipper.flush sh);
    R.Applier.pump ap ~until:(fun () ->
        Net.pending link ~port:R.backup_ep = 0);
    check_int "all applied after the flush" 6 !applied;
    R.Shipper.poll_acks sh;
    check "cumulative ack covers the frame" true
      (R.Shipper.acked sh ~shard:0 >= 2 && R.Shipper.acked sh ~shard:1 >= 2);
    check_int "no unacked residue" 0
      (R.Shipper.lag sh ~shard:0 + R.Shipper.lag sh ~shard:1);
    (Net.stats link ~port:R.primary_ep).Net.enqueued
  in
  let acks_batched = run ~ack_batch:true in
  let acks_per_record = run ~ack_batch:false in
  check_int "per-record mode acks every record" 6 acks_per_record;
  check "batched acks: one per touched shard per burst" true
    (acks_batched <= 2);
  check "strictly fewer ack messages" true (acks_batched < acks_per_record)

(* ---------- piggybacked 2PC decide ---------- *)

(* The same plan — three transactions and one put between the first
   two — must leave bit-identical backup stores in every delivery
   order.  Per record, each prepare and decide is its own wire trip;
   piggybacked, every participant's prepare + decide is ONE frame.
   Shard-major is the order go-back-N produces after a lost frame, which
   it retransmits shard by shard: everything is shipped before any
   pump, then shard 0's whole stream reaches the applier before shard
   1's.  The first transaction's decide then holds shard 0 until shard
   1's decide publishes it: the put behind it (on a key that
   transaction writes) parks, and no ack covers the holding decide or
   the put before the publish.  Shard-major runs with per-record acks
   and with batched acks and group applies, the applier's two entry
   paths. *)
let test_piggybacked_decide_equivalence () =
  (* two committing transactions + a strict-delete abort *)
  let txn_plan =
    [ [ Kv.Tput { key = 1; vseed = 11 }; Kv.Tput { key = 2; vseed = 12 } ];
      [ Kv.Tdel { key = 1 }; Kv.Tput { key = 3; vseed = 13 } ];
      [ Kv.Tput { key = 4; vseed = 14 }; Kv.Tdel { key = 9999 } ] ]
  in
  let key_of = function Kv.Tput { key; _ } | Kv.Tdel { key } -> key in
  let on_shard s o = Kv.shard_of ~shards:2 (key_of o) = s in
  let first = List.hd txn_plan in
  check "the first transaction spans both shards" true
    (List.exists (on_shard 0) first && List.exists (on_shard 1) first);
  let put_key = key_of (List.find (on_shard 0) first) in
  let run ~order ~ack_batch =
    let _, _, p = mk_store ~shards:2 () in
    let _, _, b = mk_store ~shards:2 () in
    let link : R.msg Net.t = link () in
    let sh = R.Shipper.create ~window:16 ~shards:2 ~link in
    let ap =
      R.Applier.create link ~shards:2 ~ack_batch
        ?apply_group:
          (if order = `Shard_major && ack_batch then
             Some (Kv.apply_replicated_group b)
           else None)
        ~apply:(Kv.apply_replicated b) ~held:(Kv.backup_held b)
    in
    let pump () =
      R.Applier.pump ap ~until:(fun () -> Net.pending link ~port:R.backup_ep = 0)
    in
    (* every record's shard, seq and op, newest first *)
    let shipped = ref [] in
    let ship ~shard r =
      shipped := (shard, R.Shipper.ship sh ~shard r, r) :: !shipped;
      (* per record, each record is a frame of one; otherwise the
         flush after the transaction or put sends one frame *)
      if order = `Per_record then ignore (R.Shipper.flush sh)
    in
    let step () = if order <> `Shard_major then pump () in
    let committed = ref [] in
    List.iteri
      (fun i ops ->
        if i = 1 then begin
          ignore (Kv.put p ~key:put_key ~vseed:99);
          ship ~shard:0 (R.Put { key = put_key; vseed = 99 });
          ignore (R.Shipper.flush sh);
          step ()
        end;
        let res =
          Kv.txn p ops ~on_commit:(fun res ->
              List.iter (fun (s, r) -> ship ~shard:s r) (Kv.txn_records res);
              ignore (R.Shipper.flush sh))
        in
        committed := res.Kv.committed :: !committed;
        step ())
      txn_plan;
    if order = `Shard_major then begin
      (* take every record off the wire, in shipping order, and hand
         the applier shard 0's before shard 1's *)
      let msgs =
        List.fold_left
          (fun acc (shard, _, _) ->
            (shard, Option.get (Net.recv link ~port:R.backup_ep)) :: acc)
          [] (List.rev !shipped)
        |> List.rev
      in
      let deliver s =
        List.iter
          (fun (shard, (m : R.msg Net.msg)) ->
            if shard = s then
              ignore (Net.try_send link ~dst:R.backup_ep m.Net.payload))
          msgs;
        pump ();
        R.Shipper.poll_acks sh
      in
      (* the first transaction's decide on shard 0 *)
      let holding_decide =
        List.fold_left
          (fun acc (shard, seq, r) ->
            match r with R.Txn_decide _ when shard = 0 -> Some seq | _ -> acc)
          None !shipped
        |> Option.get
      in
      deliver 0;
      check "the put held behind the first transaction is not applied" true
        (Kv.get b ~key:put_key = None);
      check "no ack covers the holding decide or the parked put" true
        (R.Shipper.acked sh ~shard:0 < holding_decide);
      deliver 1;
      for s = 0 to 1 do
        check_int "every record acked once the transactions published"
          (R.Shipper.high_water sh ~shard:s) (R.Shipper.acked sh ~shard:s)
      done
    end;
    (p, b, List.rev !committed, R.Applier.applied ap,
     (Net.stats link ~port:R.backup_ep).Net.flushes)
  in
  let p1, b1, c1, applied1, _ = run ~order:`Per_record ~ack_batch:false in
  let p2, b2, c2, applied2, flushes2 = run ~order:`Piggyback ~ack_batch:true in
  check "one doorbell frame per committed transaction" true (flushes2 >= 2);
  check "committed txns: both paths shipped" true (applied1 > 0);
  let runs =
    [ ("piggybacked", p2, b2, c2, applied2);
      (let p, b, c, a, _ = run ~order:`Shard_major ~ack_batch:false in
       ("shard-major", p, b, c, a));
      (let p, b, c, a, _ = run ~order:`Shard_major ~ack_batch:true in
       ("shard-major batched", p, b, c, a)) ]
  in
  List.iter
    (fun (name, p, b, c, applied) ->
      check (name ^ ": same commit/abort outcomes") true (c = c1);
      check_int (name ^ ": same records applied on the backup") applied1 applied;
      for k = 1 to 5 do
        check (name ^ ": backup stores bit-identical") true
          (Kv.get b ~key:k = Kv.get b1 ~key:k);
        check (name ^ ": backup equals its primary") true
          (Kv.get b ~key:k = Kv.get p ~key:k)
      done;
      check_int (name ^ ": same backup key count") (Kv.count_keys b1)
        (Kv.count_keys b))
    runs;
  for k = 1 to 5 do
    check "per-record backup equals its primary" true
      (Kv.get b1 ~key:k = Kv.get p1 ~key:k)
  done

(* ---------- serve determinism and the window bound ---------- *)

let serve cfg =
  let factory = Workloads.Factories.poseidon () in
  S.run
    ~make:(fun () -> factory.Workloads.Factories.make ())
    ~reattach:(fun mach ->
      Poseidon.instance
        (Poseidon.Heap.attach mach ~base:Workloads.Factories.heap_base ()))
    cfg

let base_cfg =
  { S.default_config with
    S.shards = 2;
    clients = 8;
    rate = 30_000.;
    duration = 0.005;
    keyspace = 512;
    preload = 256;
    read_pct = 20;
    scope = "test/groupcommit" }

let test_window1_determinism () =
  (* the default window is 1, so both runs have one config: same seed,
     same result, field for field.  That window 1 runs groups of one
     is checked by test_service's loop table and test_attrib's detail
     spans. *)
  let r1 = serve { base_cfg with S.scope = "test/groupcommit/w1a" } in
  let r2 =
    serve { base_cfg with S.batch_window = 1; scope = "test/groupcommit/w1b" }
  in
  check "same config, same result" true (r1 = r2);
  (* and a genuinely batched run still serves correctly *)
  let r4 =
    serve { base_cfg with S.batch_window = 4; scope = "test/groupcommit/w4" }
  in
  check "batched run completes traffic" true (r4.S.completed > 0);
  check "batched run acked mutations" true (r4.S.acked_mutations > 0);
  check_int "batched run verifies clean" 0 r4.S.ledger.S.mismatches;
  check "rejects window 0" true
    (try
       ignore (serve { base_cfg with S.batch_window = 0 });
       false
     with Invalid_argument _ -> true)

(* ---------- loss bound under faults, swept across windows ---------- *)

let repl_serve cfg rcfg =
  S.run_replicated
    ~make:(fun mach -> Workloads.Factories.poseidon_on mach)
    cfg rcfg

(* For every batch window: (1) a bounded slice of the exhaustive
   crashcheck fence sweep under the WINDOWED prefix oracle — the
   recovered backup equals a plan prefix within [acked, acked+window];
   (2) a replicated serve run that crashes mid-traffic on a lossy
   (drop + dup) wire — no acked write may be lost, at any window.
   CRASH_SEED reseeds both (Crash_seed). *)
let test_loss_bound_windows () =
  Crash_seed.with_seed ~default:42 @@ fun seed ->
  List.iter
    (fun window ->
      let scn = Crashcheck.scn_kv_batched_put ~window () in
      let r = Crashcheck.run ~max_points:4 ~subsets_per_point:1 ~seed scn in
      check "sweep explored points" true (r.Crashcheck.points_explored >= 4);
      check_int
        (Printf.sprintf "window %d: crash loses at most the unacked batch"
           window)
        0
        (List.length r.Crashcheck.counterexamples);
      let r =
        repl_serve
          { base_cfg with
            S.batch_window = window;
            crash_at = Some 0.5;
            seed;
            scope = Printf.sprintf "test/groupcommit/loss-w%d" window }
          { S.default_repl_config with
            S.link_drop_pct = 10;
            link_dup_pct = 5 }
      in
      check "crashed mid-run" true r.S.base.S.crashed;
      check "ledger checked keys" true (r.S.base.S.ledger.S.checked > 0);
      check_int
        (Printf.sprintf "window %d: no acked op lost under drop/dup" window)
        0 r.S.base.S.ledger.S.mismatches)
    [ 1; 4; 16 ]

(* the seeded ack-before-flush bug must be caught: the mutation gate
   in scripts/check.sh relies on this scenario being flaggable *)
let test_batched_broken_flagged () =
  let scn = Crashcheck.scn_kv_batched_broken () in
  let r = Crashcheck.run ~max_points:6 ~subsets_per_point:1 scn in
  check "checker flags acks ahead of the covering flush" true
    (r.Crashcheck.counterexamples <> [])

let () =
  Alcotest.run "groupcommit"
    [ ( "link",
        [ Alcotest.test_case "doorbell buffer + framed flush" `Quick
            test_link_doorbell ] );
      ( "kv",
        [ Alcotest.test_case "group vs sequential equivalence" `Quick
            test_group_commit_equivalence;
          Alcotest.test_case "group survives re-attach" `Quick
            test_group_commit_recovery;
          Alcotest.test_case "stale decided word never redoes" `Quick
            test_stale_decided_word;
          Alcotest.test_case "heap exhaustion splits the chunk" `Quick
            test_group_commit_exhaustion;
          Alcotest.test_case "value index mirrors the tree" `Quick
            test_value_index_exact ] );
      ( "replica",
        [ Alcotest.test_case "batched ship + cumulative ack" `Quick
            test_batched_ship_cumulative_ack;
          Alcotest.test_case "piggybacked decide equivalence" `Quick
            test_piggybacked_decide_equivalence ] );
      ( "server",
        [ Alcotest.test_case "same config, same result" `Quick
            test_window1_determinism ] );
      ( "loss-bound",
        [ Alcotest.test_case "windows {1,4,16} under drop/dup" `Quick
            test_loss_bound_windows;
          Alcotest.test_case "ack-before-flush bug flagged" `Quick
            test_batched_broken_flagged ] ) ]
