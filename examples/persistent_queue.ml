(* A crash-safe persistent message queue built on transactional
   allocation (paper 4.5, 5.3): enqueuing a message allocates the
   node and its payload in ONE transaction, so a crash can never leak
   a half-linked message — the exact P-and-Q scenario of 2.2.

   Layout of a node (allocated from Poseidon):
     [0]  packed nvmptr of the next node (null = tail)
     [8]  payload length
     [16] payload bytes

   The queue head lives at the heap root.  Dequeue unlinks the head
   (one atomic persisted store to the root) and frees the node.

   Run with: dune exec examples/persistent_queue.exe *)

module Q = struct
  type t = { inst : Alloc_intf.instance; mach : Machine.t }

  let create inst =
    { inst; mach = Alloc_intf.instance_machine inst }

  let node_next t node = Machine.read_u64 t.mach node

  let rec tail_of t node =
    let nxt = node_next t node in
    if nxt = Alloc_intf.packed_null then node
    else tail_of t (Alloc_intf.i_get_rawptr t.inst (Alloc_intf.unpack ~heap_id:1 nxt))

  let enqueue t msg =
    let len = String.length msg in
    (* the whole message is one transaction: if we crash before the
       commit, recovery frees the node — nothing leaks, nothing
       dangles *)
    match Alloc_intf.i_tx_alloc t.inst (16 + len) ~is_end:true with
    | None -> failwith "queue: out of persistent memory"
    | Some p ->
      let node = Alloc_intf.i_get_rawptr t.inst p in
      Machine.write_u64 t.mach node Alloc_intf.packed_null;
      Machine.write_u64 t.mach (node + 8) len;
      Machine.write_bytes t.mach (node + 16) (Bytes.of_string msg);
      Machine.persist t.mach node (16 + len);
      (* publish: link from the tail (or the root), a single atomic
         persisted store *)
      let root = Alloc_intf.i_get_root t.inst in
      if Alloc_intf.is_null root then Alloc_intf.i_set_root t.inst p
      else begin
        let tail = tail_of t (Alloc_intf.i_get_rawptr t.inst root) in
        Machine.write_u64 t.mach tail (Alloc_intf.pack p);
        Machine.persist t.mach tail 8
      end

  let dequeue t =
    let root = Alloc_intf.i_get_root t.inst in
    if Alloc_intf.is_null root then None
    else begin
      let node = Alloc_intf.i_get_rawptr t.inst root in
      let len = Machine.read_u64 t.mach (node + 8) in
      let msg = Bytes.to_string (Machine.read_bytes t.mach (node + 16) len) in
      let next = node_next t node in
      Alloc_intf.i_set_root t.inst (Alloc_intf.unpack ~heap_id:1 next);
      Alloc_intf.i_free t.inst root;
      Some msg
    end

  let length t =
    let rec go node acc =
      if Alloc_intf.is_null node then acc
      else
        go
          (Alloc_intf.unpack ~heap_id:1
             (node_next t (Alloc_intf.i_get_rawptr t.inst node)))
          (acc + 1)
    in
    go (Alloc_intf.i_get_root t.inst) 0
end

let base = 1 lsl 30

let () =
  let mach = Machine.create () in
  let heap = Poseidon.Heap.create mach ~base ~size:(1 lsl 36) ~heap_id:1 () in
  let q = Q.create (Poseidon.instance heap) in

  List.iter (Q.enqueue q)
    [ "first message"; "second message"; "third message" ];
  Printf.printf "enqueued 3, queue length = %d\n" (Q.length q);

  (* a transactional enqueue interrupted by a crash must vanish *)
  let dev = Machine.dev mach in
  Nvmm.Memdev.reset_counters dev;
  let exception Boom in
  Nvmm.Memdev.set_persistence_hook dev
    (Some (fun { Nvmm.Memdev.fence_no = n; _ } -> if n >= 4 then raise Boom));
  (try Q.enqueue q "doomed message" with Boom -> ());
  Nvmm.Memdev.set_persistence_hook dev None;
  print_endline "-- power failed mid-enqueue --";
  Nvmm.Memdev.crash dev `Strict;

  let heap = Poseidon.Heap.attach mach ~base () in
  Poseidon.Heap.check_invariants heap;
  let q = Q.create (Poseidon.instance heap) in
  Printf.printf "after recovery: queue length = %d (doomed message rolled back)\n"
    (Q.length q);
  Printf.printf "live bytes = %d (no leak from the torn enqueue)\n"
    (Poseidon.Heap.stats heap).Poseidon.Heap.live_bytes;

  (* drain in order *)
  let rec drain () =
    match Q.dequeue q with
    | Some m ->
      Printf.printf "dequeued: %s\n" m;
      drain ()
    | None -> ()
  in
  drain ();
  Printf.printf "drained; live bytes = %d\n"
    (Poseidon.Heap.stats heap).Poseidon.Heap.live_bytes;
  print_endline "persistent_queue done"
