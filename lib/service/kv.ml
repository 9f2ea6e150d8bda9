module A = Alloc_intf
module Sched = Simcore.Sched

(* superroot layout (u64 words):
   +0   magic
   +8   geometry: shards lor (value_size lsl 16)
   +64 + i*64: shard record i:
        +0  tree root (packed nvmptr)
        +8  decided word: id of the last slot to reach its commit point
            on this shard — a chunk of this shard, or a cross-shard
            transaction whose lowest participant this shard is
   +64 + nshards*64 + i*256: shard i's slot (chunks and 2PC
        participants alike):
        +0  id (0 = free)
        +8  checksum over id/meta/entries (guards torn persists)
        +16 meta: nops lor (shard lsl 8)
        +24 + j*24: entry j: key, new value (packed; null = delete),
            old value (packed; null = fresh insert) *)

let magic = 0x00504F534B560006 (* "POSKV" v6 *)
let hdr_size = 64
let shard_stride = 64
let slot_root = 0
let slot_decided = 8

(* a shard's slot is owned by whoever holds that shard's lock, so it is
   always free when a transaction or a chunk claims it *)
let max_txn_ops = 8
let slot_size = 256
let tslot_txn = 0
let tslot_cksum = 8
let tslot_meta = 16
let tslot_entries = 24
let tentry_stride = 24

type shard = { tree : Btree.t; base : int (* raw addr of the record *) }

type t = {
  inst : A.instance;
  mach : Machine.t;
  hid : int;
  raw : int; (* raw addr of the superroot *)
  value_size : int;
  nshards : int;
  shard_tbl : shard array;
  shard_locks : Machine.Lock.lock array;
  mutable next_txn : int;
      (* next slot id, for chunks and transactions alike, so no two
         slots share one; restarts at 1 on attach, which is why
         recovery zeroes every decided word *)
  mvcc : Mvcc.t;
      (* volatile per-shard version chains for lock-free snapshot
         reads; window 0 (the default) disables every hook *)
  mutable mvcc_seq : int;
      (* MVCC commit sequence: every publication mints the next value
         as its timestamp.  A store-local counter, NOT the wall/sim
         clock — outside the simulator a clock-based ts would pin
         every commit at 0 and degrade snapshots to read-latest, and
         even in simulation two commits can share one tick. *)
  mutable mvcc_truncated : int;
      (* snapshot reads that outlived their key's retained history and
         were answered with a version from AFTER the snapshot (the
         bounded-window consistency loss) — observable via
         [mvcc_truncated_reads] so callers/tests can detect it *)
  rcache : Rcache.t;
      (* DRAM-resident read cache over the shards: key -> newest
         committed digest, write-through invalidated in the same pure
         OCaml step as each mutation's MVCC publication.  Volatile by
         construction (attach starts empty); entries 0 (the default)
         disables every hook. *)
  backup_decided : (int, int * int) Hashtbl.t;
      (* backup role only: the primary's txn id -> (the slot id this
         store minted for it at its first prepare, decides seen so
         far).  Volatile on purpose — after a crash the
         prepared-but-unpublished slots are presumed-aborted by
         recovery, so neither need survive. *)
  backup_held : int array;
      (* backup role only, volatile like [backup_decided]: per shard,
         the transaction whose decide this shard has applied but which
         has not published yet (another participant's decide is still
         on its way); 0 = not held *)
  apply_after_commit : int array;
      (* per shard, simulated ns spent applying chunks after their
         commit-point callback returned *)
  vindex : (int, int) Hashtbl.t array;
      (* per shard, key -> packed value block (null = absent): the DRAM
         mirror of the tree that every mutation's old-value lookup
         reads ([find_packed]).  Filled on a lookup's miss, written by
         [apply_tslot] right after each tree update, and volatile like
         the read cache: a fresh handle starts empty. *)
  mutable vindex_hits : int;
  mutable vindex_misses : int;
}

type recovery = { replayed : int; rolled_back : int }

let shards t = t.nshards
let value_size t = t.value_size

(* splitmix64-style finalizer with constants cut to OCaml's 63 bits *)
let mix k =
  let z = k + 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

let shard_of ~shards k = mix k mod shards
let shard_of_key t k = shard_of ~shards:t.nshards k
let shard t k = t.shard_tbl.(shard_of_key t k)
let shard_lock t i = t.shard_locks.(i)

let val_word vseed w = mix ((vseed lsl 8) lxor (w + 1))

let value_checksum t ~vseed =
  let words = t.value_size / 8 in
  let acc = ref 0 in
  for w = 0 to words - 1 do
    acc := !acc lxor val_word vseed w
  done;
  !acc

(* ---------- construction / recovery ---------- *)

let cell_of mach hid base =
  { Btree.load =
      (fun () -> A.unpack ~heap_id:hid (Machine.read_u64 mach (base + slot_root)));
    store =
      (fun p ->
        Machine.write_u64 mach (base + slot_root) (A.pack p);
        Machine.persist mach (base + slot_root) 8) }

(* The volatile handle over the superroot at [raw]: [open_tree] is
   [Btree.create_in] for a new store and [Btree.attach_in] on restart. *)
let make ~open_tree ~mvcc_window ~rcache_entries inst ~hid ~raw ~nshards
    ~value_size =
  let mach = A.instance_machine inst in
  let shard_tbl =
    Array.init nshards (fun i ->
        let base = raw + hdr_size + (i * shard_stride) in
        { tree = open_tree inst (cell_of mach hid base); base })
  in
  let shard_locks =
    Array.init nshards (fun i ->
        Machine.Lock.create mach ~name:(Printf.sprintf "kv-shard-%d" i) ())
  in
  { inst; mach; hid; raw; value_size; nshards; shard_tbl;
    shard_locks; next_txn = 1;
    mvcc = Mvcc.create ~shards:nshards ~window:mvcc_window;
    mvcc_seq = 0; mvcc_truncated = 0;
    rcache = Rcache.create ~shards:nshards ~entries:rcache_entries;
    backup_decided = Hashtbl.create 8;
    backup_held = Array.make nshards 0;
    apply_after_commit = Array.make nshards 0;
    vindex = Array.init nshards (fun _ -> Hashtbl.create 64);
    vindex_hits = 0; vindex_misses = 0 }

let create ?(mvcc_window = 0) ?(rcache_entries = 0) inst ~shards ~value_size =
  if shards < 1 || shards > 0xFFFF then invalid_arg "Kv.create: bad shards";
  let value_size = max 8 ((value_size + 7) / 8 * 8) in
  let mach = A.instance_machine inst in
  let size = hdr_size + (shards * (shard_stride + slot_size)) in
  let p =
    match A.i_alloc inst size with
    | Some p -> p
    | None -> failwith "Kv.create: allocator out of memory for superroot"
  in
  let raw = A.i_get_rawptr inst p in
  for w = 0 to (size / 8) - 1 do
    Machine.write_u64 mach (raw + (8 * w)) 0
  done;
  Machine.write_u64 mach raw magic;
  Machine.write_u64 mach (raw + 8) (shards lor (value_size lsl 16));
  Machine.persist mach raw size;
  A.i_set_root inst p;
  make ~open_tree:Btree.create_in ~mvcc_window ~rcache_entries inst
    ~hid:p.A.heap_id ~raw ~nshards:shards ~value_size

(* ---------- the shard slots ---------- *)

type txn_op = Replica.txn_op =
  | Tput of { key : int; vseed : int }
  | Tdel of { key : int }

type txn_abort =
  | Txn_empty
  | Txn_too_many_ops
  | Txn_duplicate_key
  | Txn_absent_key of int
  | Txn_no_memory

type txn_result = {
  txn_id : int;
  committed : bool;
  abort : txn_abort option;
  fin : int;
  participants : (int * txn_op list) list;
}

let txn_key = function Tput { key; _ } | Tdel { key } -> key

let tslot_base t i = t.raw + hdr_size + (t.nshards * shard_stride) + (i * slot_size)

(* Entries are (key, packed new value | null = delete, packed old
   value | null).  The checksum makes a torn slot persist (an
   adversarial subset of the slot's four cache lines) detectable:
   recovery must never redo or undo from a half-written slot. *)
let tslot_checksum ~txn ~meta entries =
  List.fold_left
    (fun acc (k, nv, ov) -> mix (acc lxor mix k lxor mix nv lxor mix ov))
    (mix txn lxor mix meta)
    entries

let set_word b off v = Bytes.set_int64_le b off (Int64.of_int v)

(* The whole slot image goes out in one store; nothing orders its
   words before the persist's fence, and the checksum catches a torn
   persist. *)
let write_tslot t i ~txn entries =
  let nops = List.length entries in
  let meta = nops lor (i lsl 8) in
  let len = tslot_entries + (nops * tentry_stride) in
  let b = Bytes.create len in
  set_word b tslot_txn txn;
  set_word b tslot_cksum (tslot_checksum ~txn ~meta entries);
  set_word b tslot_meta meta;
  List.iteri
    (fun j (k, nv, ov) ->
      let e = tslot_entries + (j * tentry_stride) in
      set_word b e k;
      set_word b (e + 8) nv;
      set_word b (e + 16) ov)
    entries;
  let base = tslot_base t i in
  Machine.write_bytes t.mach base b;
  Machine.persist t.mach base len

let read_tslot t i =
  let base = tslot_base t i in
  let rd off = Machine.read_u64 t.mach (base + off) in
  let txn = rd tslot_txn in
  if txn = 0 then `Free
  else
    let meta = rd tslot_meta in
    let nops = meta land 0xFF in
    if nops < 1 || nops > max_txn_ops || meta lsr 8 <> i then `Torn
    else
      let entries =
        List.init nops (fun j ->
            let e = tslot_entries + (j * tentry_stride) in
            (rd e, rd (e + 8), rd (e + 16)))
      in
      if rd tslot_cksum <> tslot_checksum ~txn ~meta entries then `Torn
      else `Slot (txn, entries)

let clear_tslot t i =
  let base = tslot_base t i in
  Machine.write_u64 t.mach (base + tslot_txn) 0;
  Machine.persist t.mach (base + tslot_txn) 8

(* Publish a prepared slot into shard [i]'s tree, free the values it
   overwrote, and clear it.  Insert is an idempotent overwrite and free
   is Poseidon's safe free, so replaying a half-applied slot after a
   crash is harmless — provided no freed block was handed out again
   before the clear.  So every free follows the last tree update: a
   split's node allocation can never reuse a block the redo frees.
   This is the one place the trees change, so the value index follows
   each tree update here and mirrors the tree exactly. *)
let apply_tslot t i entries =
  let tree = t.shard_tbl.(i).tree in
  List.iter
    (fun (key, newv, _) ->
      if newv = A.packed_null then ignore (Btree.delete tree key)
      else Btree.insert tree ~key ~value:newv;
      Hashtbl.replace t.vindex.(i) key newv)
    entries;
  List.iter
    (fun (_, _, oldv) ->
      if oldv <> A.packed_null then A.i_free t.inst (A.unpack ~heap_id:t.hid oldv))
    entries;
  clear_tslot t i

let abort_tslot t i entries =
  List.iter
    (fun (_, newv, _) ->
      if newv <> A.packed_null then
        (* the block may already be gone when the allocator micro-log
           rolled the prepare's transaction back — safe free absorbs *)
        A.i_free t.inst (A.unpack ~heap_id:t.hid newv))
    entries;
  clear_tslot t i

let decided_addr t i = t.shard_tbl.(i).base + slot_decided

(* Persist shard [i]'s decided word = [id] in its own fence: the commit
   point of the chunk or transaction whose slots carry [id]. *)
let write_decided t i id =
  let a = decided_addr t i in
  Machine.write_u64 t.mach a id;
  Machine.persist t.mach a 8

(* The one commit rule: a slot whose id some shard's decided word holds
   reached its commit point and is redone; every other occupied slot
   never did — its client was never answered — and is rolled back
   (presumed abort).  Ids are unique per handle, and a word moves past
   a transaction's id only once every slot of it is cleared, so a word
   never names a slot it did not commit.  A torn slot's persist fence
   never completed, so its allocator transaction was still open and
   the heap's own replay already freed its blocks: nothing to undo but
   the slot. *)
let resolve_slots t =
  let decided =
    List.init t.nshards (fun i -> Machine.read_u64 t.mach (decided_addr t i))
  in
  let replayed = ref 0 and rolled_back = ref 0 in
  for i = 0 to t.nshards - 1 do
    match read_tslot t i with
    | `Free -> ()
    | `Torn ->
      clear_tslot t i;
      incr rolled_back
    | `Slot (id, entries) ->
      if List.mem id decided then begin
        apply_tslot t i entries;
        incr replayed
      end
      else begin
        abort_tslot t i entries;
        incr rolled_back
      end
  done;
  { replayed = !replayed; rolled_back = !rolled_back }

(* Recovery.  First the trees: a crash inside a shift or a split left
   the paths of the armed slots' keys with a duplicate or stale entry,
   which a redo would otherwise build on.  Then every slot is resolved
   by the one commit rule.  Ids restart at 1 with the new handle, so
   every decided word is zeroed last: no stale word may match a new
   id. *)
let recover t =
  for i = 0 to t.nshards - 1 do
    match read_tslot t i with
    | `Slot (_, entries) ->
      List.iter (fun (key, _, _) -> Btree.repair t.shard_tbl.(i).tree key) entries
    | `Free | `Torn -> ()
  done;
  let r = resolve_slots t in
  for i = 0 to t.nshards - 1 do
    if Machine.read_u64 t.mach (decided_addr t i) <> 0 then write_decided t i 0
  done;
  r

let attach ?(mvcc_window = 0) ?(rcache_entries = 0) inst =
  let mach = A.instance_machine inst in
  let root = A.i_get_root inst in
  if A.is_null root then invalid_arg "Kv.attach: no store at allocator root";
  let raw = A.i_get_rawptr inst root in
  if Machine.read_u64 mach raw <> magic then
    failwith "Kv.attach: bad superroot magic";
  let geom = Machine.read_u64 mach (raw + 8) in
  let nshards = geom land 0xFFFF in
  let value_size = (geom lsr 16) land 0xFFFF_FFFF in
  let t =
    make ~open_tree:Btree.attach_in ~mvcc_window ~rcache_entries inst
      ~hid:root.A.heap_id ~raw ~nshards ~value_size
  in
  (t, recover t)

(* ---------- operations ---------- *)

let now () = if Sched.in_simulation () then Sched.now () else 0

(* Mint an MVCC commit timestamp.  The mint and the publication it
   stamps must sit in one pure OCaml step (no simulated-machine call
   between them), so the cooperative scheduler can never interleave a
   snapshot minted above this commit's watermark advance. *)
let mvcc_mint t =
  t.mvcc_seq <- t.mvcc_seq + 1;
  t.mvcc_seq

(* digest of the value block behind a packed pointer — the unit of
   observation for gets and for published MVCC versions *)
let block_digest t packed =
  let vaddr = A.i_get_rawptr t.inst (A.unpack ~heap_id:t.hid packed) in
  let words = t.value_size / 8 in
  let acc = ref 0 in
  for w = 0 to words - 1 do
    acc := !acc lxor Machine.read_u64 t.mach (vaddr + (8 * w))
  done;
  !acc

let tree_packed t i key =
  match Btree.find t.shard_tbl.(i).tree key with
  | Some v -> v
  | None -> A.packed_null

(* Seed [key]'s floor pre-image before a mutation first touches its
   tree entry, so a concurrent lock-free snapshot reader resolves the
   key through its chain and never reads the tree mid-update.  The
   caller holds the shard lock, so the pre-image is committed state.
   [known] short-circuits the tree probe when the caller already
   looked the old value up. *)
let mvcc_seed ?known t i key =
  if Mvcc.enabled t.mvcc && not (Mvcc.has_chain t.mvcc ~shard:i ~key) then begin
    let packed =
      match known with Some p -> p | None -> tree_packed t i key
    in
    let value =
      if packed = A.packed_null then None else Some (block_digest t packed)
    in
    Mvcc.seed t.mvcc ~shard:i ~key ~value
  end

(* a mutation's published version: the digest comes from the vseed
   (no memory reads), so chain append + watermark advance stay one
   pure OCaml step *)
let op_version t = function
  | Tput { key; vseed } -> (key, Some (value_checksum t ~vseed))
  | Tdel { key } -> (key, None)

(* version list of a prepared slot's entries, digests read from the
   already-persisted new-value blocks (the backup's apply, where the
   originating vseeds are out of reach) *)
let entry_versions t entries =
  List.map
    (fun (key, newv, _) ->
      (key, if newv = A.packed_null then None else Some (block_digest t newv)))
    entries

(* Simulated cost of one read-cache probe: an index lookup plus a slot
   line, ~2 DRAM reads at the machine model's DRAM latency.  The probe
   itself is pure OCaml (its atomicity carries the consistency
   argument); the cost is charged separately, and only when the cache
   is armed so an --rcache-entries 0 store stays byte-identical to a
   cacheless one. *)
let rcache_probe_ns = 160

let rcache_charge t =
  if Rcache.enabled t.rcache then begin
    Machine.compute t.mach rcache_probe_ns;
    Obs.Span.note Obs.Span.Rcache rcache_probe_ns
  end

(* ---------- single-shard commit: chunks ---------- *)

let flush_lines t a len =
  if len > 0 then begin
    let first = a asr 6 and last = (a + len - 1) asr 6 in
    for l = first to last do
      Machine.clwb t.mach (l lsl 6)
    done
  end

(* A mutation's old-value lookup, under the shard lock: one DRAM probe
   of the value index, charged like a read-cache probe.  A miss descends
   the tree once and caches the answer, absence included. *)
let find_packed t i key =
  Machine.compute t.mach rcache_probe_ns;
  match Hashtbl.find_opt t.vindex.(i) key with
  | Some p ->
    t.vindex_hits <- t.vindex_hits + 1;
    p
  | None ->
    t.vindex_misses <- t.vindex_misses + 1;
    let p = tree_packed t i key in
    Hashtbl.replace t.vindex.(i) key p;
    p

(* The slot entries of [slices]: per shard, its ops, each paired with
   its key's current packed value (null = absent).  Every put's value
   is allocated under the open allocator transaction, written in one
   store and clwb'd without a fence — the first slot persist's fence
   makes it durable.  When the heap runs out part-way, what was allocated is
   released and the allocator transaction closed — net zero, nothing
   durable changed. *)
let stage_values t slices =
  let allocated = ref [] in
  let entry = function
    | Tdel { key }, old -> (key, A.packed_null, old)
    | Tput { key; vseed }, old -> (
      match A.i_tx_alloc t.inst t.value_size ~is_end:false with
      | None -> raise_notrace Exit
      | Some p ->
        allocated := p :: !allocated;
        let vaddr = A.i_get_rawptr t.inst p in
        let b = Bytes.create t.value_size in
        for w = 0 to (t.value_size / 8) - 1 do
          set_word b (8 * w) (val_word vseed w)
        done;
        Machine.write_bytes t.mach vaddr b;
        flush_lines t vaddr t.value_size;
        (key, A.pack p, old))
  in
  match List.map (fun (i, slice) -> (i, List.map entry slice)) slices with
  | filled -> Ok filled
  | exception Exit ->
    List.iter (fun p -> A.i_free t.inst p) !allocated;
    A.i_tx_commit t.inst;
    Error Txn_no_memory

(* Commit one chunk of single-key mutations on shard [i]: distinct
   keys, each paired with its current packed value (null = absent;
   deletes are of present keys).  The caller holds the shard lock or is
   the only mutator.  The order is the protocol:
   + stage the new values ([stage_values]);
   + write the shard's slot and fence it — the fence covers the values
     too;
   + commit the allocator transaction (micro-log truncate, or tcache
     lease publish), when the chunk allocated: from here the slot owns
     the blocks;
   + persist the shard's decided word = the slot's id, in its own
     fence.  That fence is the chunk's one commit point: recovery redoes
     a slot some decided word names and rolls back any other.  It must
     follow the allocator commit — redoing a slot whose blocks the
     heap's replay has just freed would publish dangling values;
   + publish the versions and kill the cached digests in one pure
     step, then run [on_commit fin] — the chunk is committed, so the
     server replies and ships from here — then apply the entries to
     the tree and free the old values, and clear the slot.
   [Error] (heap exhausted) leaves nothing durable behind. *)
let commit_chunk ?(on_commit = ignore) t i members =
  match stage_values t [ (i, members) ] with
  | Error a -> Error a
  | Ok filled ->
    let entries = List.concat_map snd filled in
    let id = t.next_txn in
    t.next_txn <- id + 1;
    write_tslot t i ~txn:id entries;
    if List.exists (fun (_, nv, _) -> nv <> A.packed_null) entries then
      A.i_tx_commit t.inst;
    (* pre-images from the slot's old values, before any tree entry
       changes below *)
    if Mvcc.enabled t.mvcc then
      List.iter (fun (key, _, old) -> mvcc_seed ~known:old t i key) entries;
    write_decided t i id;
    let fin = now () in
    if Mvcc.enabled t.mvcc then
      Mvcc.publish t.mvcc ~shard:i ~ts:(mvcc_mint t)
        (List.map (fun (o, _) -> op_version t o) members);
    List.iter (fun (key, _, _) -> Rcache.invalidate t.rcache ~shard:i ~key) entries;
    on_commit fin;
    let t_apply = now () in
    apply_tslot t i entries;
    t.apply_after_commit.(i) <- t.apply_after_commit.(i) + (now () - t_apply);
    Ok fin

(* put and delete are chunks of one *)
let put t ~key ~vseed =
  if key < 1 then invalid_arg "Kv.put: keys must be >= 1";
  let i = shard_of_key t key in
  Result.is_ok (commit_chunk t i [ (Tput { key; vseed }, find_packed t i key) ])

let get t ~key =
  let si = shard_of_key t key in
  let cached = Rcache.find t.rcache ~shard:si ~key in
  rcache_charge t;
  match cached with
  | Some d -> Some d
  | None -> (
    match Btree.find t.shard_tbl.(si).tree key with
    | None -> None
    | Some v ->
      let d = block_digest t v in
      (* fill under the caller's shard lock: [d] is the key's newest
         committed value, stamped with its chain-head commit ts (0 =
         never mutated since attach, valid for every snapshot) *)
      let vts =
        match Mvcc.newest_ts t.mvcc ~shard:si ~key with
        | Some ts -> ts
        | None -> 0
      in
      Rcache.insert t.rcache ~shard:si ~key ~digest:d ~vts;
      Some d)

let delete t ~key =
  let i = shard_of_key t key in
  let old = find_packed t i key in
  old <> A.packed_null
  && Result.is_ok (commit_chunk t i [ (Tdel { key }, old) ])

let scan t ~from_key ~n =
  let sh = shard t from_key in
  let visited = ref 0 in
  Btree.scan sh.tree ~from_key ~n (fun _ _ -> incr visited);
  !visited

let count_keys t =
  Array.fold_left (fun acc sh -> acc + Btree.count_keys sh.tree) 0 t.shard_tbl

let check t =
  Array.iteri
    (fun i sh ->
      Btree.check sh.tree;
      Hashtbl.iter
        (fun key p ->
          let tv = tree_packed t i key in
          if p <> tv then
            failwith
              (Printf.sprintf
                 "Kv.check: value index names %#x for key %d, the tree %#x" p
                 key tv))
        t.vindex.(i))
    t.shard_tbl

let vindex_stats t = (t.vindex_hits, t.vindex_misses)
let vindex_entries t =
  Array.fold_left (fun n h -> n + Hashtbl.length h) 0 t.vindex

(* ---------- snapshot reads (MVCC) ---------- *)

let mvcc_window t = Mvcc.window t.mvcc
let snapshot t = Mvcc.snapshot t.mvcc

let mvcc_chain_length t ~key =
  Mvcc.chain_length t.mvcc ~shard:(shard_of_key t key) ~key

let mvcc_truncated_reads t = t.mvcc_truncated

(* ---------- read-cache introspection ---------- *)

let rcache_entries t = Rcache.entries t.rcache
let rcache_stats t = Rcache.stats t.rcache
let rcache_cached t = Rcache.cached t.rcache

let rcache_mem t ~key =
  Rcache.mem t.rcache ~shard:(shard_of_key t key) ~key

let rcache t = t.rcache

let mvcc_shard_chains t =
  Array.init t.nshards (fun shard -> Mvcc.census t.mvcc ~shard)

(* A chain resolution as the read path consumes it: a truncated
   lookup still answers with the oldest retained version (the bounded
   history the window buys), but the consistency loss is counted so
   callers and tests can see it instead of mistaking it for mere
   staleness. *)
let resolved_value t = function
  | Mvcc.Resolved r -> r
  | Mvcc.Truncated r ->
    t.mvcc_truncated <- t.mvcc_truncated + 1;
    r
  | Mvcc.No_chain -> None

let snapshot_get t ~ts ~key =
  let i = shard_of_key t key in
  (* cache probe first, pure: a present entry digests the key's newest
     committed version at commit timestamp [vts], so it is exactly the
     version this snapshot must observe whenever [vts <= ts]. *)
  let cached = Rcache.find_at t.rcache ~shard:i ~key ~ts in
  rcache_charge t;
  (* a miss may fill, but only inside a pure step that also proves the
     resolved version is still the key's newest — the lock-free read
     below may race a writer, and a fill that lost such a race would
     serve the OLD digest to every later snapshot.  Chain resolutions
     are pure (chain values are digests), so guard + insert share one
     atomic step; any later publish kills the entry in its own pure
     step. *)
  match cached with
  | Some d -> Some d
  | None -> (
  match Mvcc.lookup t.mvcc ~shard:i ~key ~ts with
  | Mvcc.No_chain ->
    (* no chain: the key has not been mutated since this store was
       built, so the tree is its version for every snapshot *)
    let r =
      match Btree.find t.shard_tbl.(i).tree key with
      | None -> None
      | Some v -> Some (block_digest t v)
    in
    (* validate: a writer that raced this lock-free read seeded the
       pre-image before touching the tree, so a chain appearing by now
       means the floor read may be torn — the chain is authoritative
       (its pre-image entry is exactly the committed value at [ts]) *)
    (match Mvcc.lookup t.mvcc ~shard:i ~key ~ts with
     | Mvcc.No_chain ->
       (* still no chain (pure revalidation): with MVCC on, a writer
          always seeds the chain before touching the tree, so the
          floor read above was clean and is the newest version *)
       (match r with
        | Some d when Mvcc.enabled t.mvcc ->
          Rcache.insert t.rcache ~shard:i ~key ~digest:d ~vts:0
        | _ -> ());
       r
     | res -> resolved_value t res)
  | res ->
    let r = resolved_value t res in
    (* fill only when the version this snapshot resolved is the chain
       head — [newest_ts <= ts] proves it in the same pure step *)
    (match (r, Mvcc.newest_ts t.mvcc ~shard:i ~key) with
     | Some d, Some vts when vts <= ts ->
       Rcache.insert t.rcache ~shard:i ~key ~digest:d ~vts
     | _ -> ());
    r)

(* One shard's merged snapshot stream: the live tree cursor
   interleaved with the shard's chain keys.  The chain side is asked
   afresh at every step for its first key at or after the merge
   position: a key deleted mid-scan leaves the tree before the cursor
   reaches it, so the cursor (entry gone) misses it even though its
   freshly seeded chain still holds the version visible at [ts].
   Chain presence is also re-checked on every tree-yielded key, and a
   chainless tree read is validated exactly like [snapshot_get]. *)
type sstream = {
  ss_shard : int;
  ss_cursor : Btree.cursor;
  mutable ss_tree : (int * int) option; (* peeked live-tree entry *)
  mutable ss_pos : int; (* lower bound of the next key to merge *)
}

let sstream_open t ~shard ~from_key =
  let c = Btree.cursor_open t.shard_tbl.(shard).tree ~from_key in
  { ss_shard = shard; ss_cursor = c; ss_tree = Btree.cursor_next c;
    ss_pos = from_key }

(* next (key, digest) visible at [ts], ascending; [None] = exhausted *)
let rec sstream_next t st ~ts =
  let chain =
    Mvcc.next_chain_key t.mvcc ~shard:st.ss_shard ~from_key:st.ss_pos
  in
  match (st.ss_tree, chain) with
  | None, None -> None
  | tree, chain ->
    let tk = match tree with Some (k, _) -> k | None -> max_int in
    let key = min tk (Option.value chain ~default:max_int) in
    st.ss_pos <- key + 1;
    let tv = if tk = key then tree else None in
    if tk = key then st.ss_tree <- Btree.cursor_next st.ss_cursor;
    let resolved =
      if Mvcc.has_chain t.mvcc ~shard:st.ss_shard ~key then
        resolved_value t (Mvcc.lookup t.mvcc ~shard:st.ss_shard ~key ~ts)
      else begin
        match tv with
        | None -> None (* chain vanished mid-scan: cannot happen *)
        | Some (_, v) ->
          let d = block_digest t v in
          (match Mvcc.lookup t.mvcc ~shard:st.ss_shard ~key ~ts with
           | Mvcc.No_chain -> Some d
           | res -> resolved_value t res)
      end
    in
    match resolved with
    | Some d -> Some (key, d)
    | None -> sstream_next t st ~ts (* absent at this snapshot: skip *)

let snapshot_scan t ~ts ~from_key ~n f =
  if from_key < 1 then invalid_arg "Kv.snapshot_scan: keys must be >= 1";
  if n <= 0 then 0
  else begin
    let streams =
      Array.init t.nshards (fun i -> sstream_open t ~shard:i ~from_key)
    in
    let heads = Array.map (fun st -> sstream_next t st ~ts) streams in
    let visited = ref 0 in
    let exhausted = ref false in
    while (not !exhausted) && !visited < n do
      (* smallest head key across shards (the hash partition makes
         keys unique across shards, so no cross-shard dedupe) *)
      let best = ref (-1) and bestk = ref max_int in
      Array.iteri
        (fun i -> function
          | Some (k, _) when k < !bestk ->
            best := i;
            bestk := k
          | _ -> ())
        heads;
      if !best < 0 then exhausted := true
      else begin
        (match heads.(!best) with Some (k, d) -> f k d | None -> ());
        incr visited;
        heads.(!best) <- sstream_next t streams.(!best) ~ts
      end
    done;
    !visited
  end

(* ---------- cross-shard transactions (the 2PC core) ---------- *)

let iter_values t f =
  Array.iter
    (fun sh ->
      Btree.scan sh.tree ~from_key:1 ~n:max_int (fun key v ->
          f ~key (A.unpack ~heap_id:t.hid v)))
    t.shard_tbl

(* participants in ascending shard order, each with its ops in
   submission order — the lock-acquisition order, so concurrent
   transactions cannot deadlock *)
let group_participants t ops =
  let parts = Array.make t.nshards [] in
  List.iter
    (fun o ->
      let s = shard_of_key t (txn_key o) in
      parts.(s) <- o :: parts.(s))
    ops;
  let out = ref [] in
  for i = t.nshards - 1 downto 0 do
    if parts.(i) <> [] then out := (i, List.rev parts.(i)) :: !out
  done;
  !out

let validate_static t ops =
  if ops = [] then Error Txn_empty
  else begin
    let keys = List.map txn_key ops in
    if List.exists (fun k -> k < 1) keys then
      invalid_arg "Kv.txn: keys must be >= 1";
    if List.length (List.sort_uniq compare keys) <> List.length keys then
      Error Txn_duplicate_key
    else
      let parts = group_participants t ops in
      if List.exists (fun (_, l) -> List.length l > max_txn_ops) parts then
        Error Txn_too_many_ops
      else Ok parts
  end

type prepared = { txn : int; parts : (int * txn_op list) list }

(* Phase 1, the caller holding every participant lock (or being the
   only mutator): stage the new values under one open allocator
   transaction, then persist one slot per participant shard.  The
   slots own the blocks once [i_tx_commit] truncates the micro-log;
   before that a crash rolls the whole prepare back at the allocator
   level. *)
let prepare t parts =
  let slices =
    List.map
      (fun (i, ops) ->
        (i, List.map (fun o -> (o, find_packed t i (txn_key o))) ops))
      parts
  in
  match
    List.find_opt
      (function Tdel _, old -> old = A.packed_null | Tput _, _ -> false)
      (List.concat_map snd slices)
  with
  | Some (o, _) -> Error (Txn_absent_key (txn_key o))
  | None ->
    Result.map
      (fun filled ->
        let txn = t.next_txn in
        t.next_txn <- txn + 1;
        List.iter (fun (i, entries) -> write_tslot t i ~txn entries) filled;
        A.i_tx_commit t.inst;
        { txn; parts })
      (stage_values t slices)

let txn_prepare t ops = Result.bind (validate_static t ops) (prepare t)

(* Phase 2: persisting the lowest participant's decided word = [txn] is
   THE commit point — before it a crash aborts every participant, after
   it recovery redoes them from their slots ([txn] holds that shard's
   lock until the slots are cleared).  Pre-images go first: once
   [txn_apply] publishes, snapshot readers resolve every written key
   through its chain, so the floors must be in place before any tree
   entry is touched. *)
let txn_decide t { txn; parts } =
  if Mvcc.enabled t.mvcc then
    List.iter
      (fun (i, ops) -> List.iter (fun o -> mvcc_seed t i (txn_key o)) ops)
      parts;
  write_decided t (fst (List.hd parts)) txn;
  now ()

(* Phase 3, from the publication on: the [versions] become visible at
   one timestamp and the [kills] leave the read cache in one pure OCaml
   step (nothing yields between the mint and the watermark advance), so
   a lock-free snapshot reader resolves the written keys through their
   chains while the trees are still being updated, and can never pair
   the group's watermark with a stale cached digest.  Then every slot
   among [shards] naming [id] is published into its tree and
   cleared. *)
let publish_apply t ~id ~versions ~kills shards =
  Option.iter (fun g -> Mvcc.publish_group t.mvcc ~ts:(mvcc_mint t) g) versions;
  List.iter (fun (i, key) -> Rcache.invalidate t.rcache ~shard:i ~key) kills;
  List.iter
    (fun i ->
      match read_tslot t i with
      | `Slot (sid, entries) when sid = id -> apply_tslot t i entries
      | `Free | `Torn | `Slot _ -> ())
    shards

(* the versions come from the ops' vseeds — no memory reads *)
let txn_apply t { txn; parts } =
  let versions =
    if Mvcc.enabled t.mvcc then
      Some (List.map (fun (i, ops) -> (i, List.map (op_version t) ops)) parts)
    else None
  in
  let kills =
    List.concat_map (fun (i, ops) -> List.map (fun o -> (i, txn_key o)) ops) parts
  in
  publish_apply t ~id:txn ~versions ~kills (List.map fst parts)

let abort_result a parts =
  { txn_id = 0; committed = false; abort = Some a; fin = 0;
    participants = parts }

let txn ?on_commit ?(trace = -1) ?(span = -1) t ops =
  match validate_static t ops with
  | Error a -> abort_result a []
  | Ok parts ->
    let idxs = List.map fst parts in
    List.iter (fun i -> Machine.Lock.acquire t.shard_locks.(i)) idxs;
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun i -> Machine.Lock.release t.shard_locks.(i))
          (List.rev idxs))
      (fun () ->
        let sprep =
          Obs.Span.open_span ~trace ~parent:span Obs.Span.Txn_prepare
        in
        let prepared = prepare t parts in
        Obs.Span.close_span sprep;
        match prepared with
        | Error a -> abort_result a parts
        | Ok p ->
          let sdec =
            Obs.Span.open_span ~trace ~parent:span Obs.Span.Txn_decide
          in
          let fin = txn_decide t p in
          txn_apply t p;
          Obs.Span.close_span sdec;
          let res =
            { txn_id = p.txn; committed = true; abort = None; fin;
              participants = parts }
          in
          Option.iter (fun f -> f res) on_commit;
          res)

(* ---------- group commit (batched single-shard mutations) ---------- *)

(* A commit group is a run of consecutive single-key mutations bound
   for ONE shard, executed as chunks of up to [max_txn_ops] ops each
   ([commit_chunk]): per chunk one covering slot fence, one allocator
   commit and one decided-word fence.  A chunk closes early when the
   next op's key is already in it, so every op's old value — probed
   once, as the op joins — reflects every earlier op of the group.  An
   absent delete never joins a chunk.  When the heap runs out, the
   chunk is retried as one-op chunks, so one put that cannot allocate
   fails alone. *)
let group_commit ?on_chunk t ~shard ops =
  List.iter
    (fun o ->
      let k = txn_key o in
      if k < 1 then invalid_arg "Kv.group_commit: keys must be >= 1";
      if shard_of_key t k <> shard then
        invalid_arg "Kv.group_commit: op key not on this shard")
    ops;
  let results = Array.make (List.length ops) (false, 0) in
  let rec commit members =
    let on_commit fin =
      List.iter (fun (idx, _) -> results.(idx) <- (true, fin)) members;
      Option.iter (fun f -> f ~fin (List.map (fun (_, (o, _)) -> o) members)) on_chunk
    in
    match commit_chunk ~on_commit t shard (List.map snd members) with
    | Ok _ -> ()
    | Error _ -> (
      match members with
      | [ (idx, _) ] -> results.(idx) <- (false, now ())
      | _ -> List.iter (fun m -> commit [ m ]) members)
  in
  Machine.Lock.acquire t.shard_locks.(shard);
  Fun.protect
    ~finally:(fun () -> Machine.Lock.release t.shard_locks.(shard))
    (fun () ->
      (* the open chunk, newest first: (input index, (op, old value)) *)
      let chunk = ref [] and len = ref 0 in
      let flush () =
        if !chunk <> [] then begin
          let members = List.rev !chunk in
          chunk := [];
          len := 0;
          commit members
        end
      in
      List.iteri
        (fun idx o ->
          let k = txn_key o in
          if !len >= max_txn_ops
             || List.exists (fun (_, (o', _)) -> txn_key o' = k) !chunk
          then flush ();
          let old = find_packed t shard k in
          match o with
          | Tdel _ when old = A.packed_null -> results.(idx) <- (false, now ())
          | _ ->
            chunk := (idx, (o, old)) :: !chunk;
            incr len)
        ops;
      flush ());
  Array.to_list results

let apply_after_commit_ns t ~shard = t.apply_after_commit.(shard)

let txn_resolve_indoubt t =
  Hashtbl.reset t.backup_decided;
  Array.fill t.backup_held 0 t.nshards 0;
  (* promotion: this store now serves reads itself, and the chains it
     grew as a backup may name transactions being discarded below —
     start over from the (recovered) trees as the floor.  The read
     cache restarts empty for the same reason: entries filled as a
     backup may digest values the presumed-abort pass discards. *)
  Mvcc.reset t.mvcc;
  Rcache.reset t.rcache;
  (* a live backup clears every slot of a transaction in the step that
     commits it, so each slot still armed is a prepare whose last
     decide died on the wire: the one rule rolls it back *)
  (resolve_slots t).rolled_back

(* ---------- backup side: the replication stream ---------- *)

(* Invariant: the slot is free.  A prepare follows its predecessor's
   decide on the shard's stream, and the applier parks it while that
   decide's transaction is unpublished ([backup_held]).  The slot
   carries an id this store mints at the transaction's first prepare,
   not the primary's [txn]: this store's chunks take their ids from its
   own counter, so a primary id could equal a chunk's, and the decided
   word that committed one would redo the other. *)
let txn_backup_prepare t ~txn ~shard ~ops =
  (match read_tslot t shard with
   | `Free -> ()
   | `Torn | `Slot _ -> failwith "Kv.txn_backup_prepare: slot busy");
  let id =
    match Hashtbl.find_opt t.backup_decided txn with
    | Some (id, _) -> id
    | None ->
      let id = t.next_txn in
      t.next_txn <- id + 1;
      Hashtbl.replace t.backup_decided txn (id, 0);
      id
  in
  let slice = List.map (fun o -> (o, find_packed t shard (txn_key o))) ops in
  match stage_values t [ (shard, slice) ] with
  | Error _ -> failwith "Kv.txn_backup_prepare: backup heap exhausted"
  | Ok filled ->
    write_tslot t shard ~txn:id (List.concat_map snd filled);
    A.i_tx_commit t.inst

(* The backup's half of [txn_apply]: it has no vseeds, so each version
   is the digest of its prepared block.  Seeds, slot reads and digests
   yield, so they are all gathered — with the cache-kill keys — before
   [publish_apply]'s pure step. *)
let gather_slots t id =
  let groups = ref [] and kills = ref [] in
  if Mvcc.enabled t.mvcc || Rcache.enabled t.rcache then
    for i = 0 to t.nshards - 1 do
      match read_tslot t i with
      | `Slot (sid, entries) when sid = id ->
        if Mvcc.enabled t.mvcc then begin
          List.iter (fun (key, _, _) -> mvcc_seed t i key) entries;
          groups := (i, entry_versions t entries) :: !groups
        end;
        kills := List.map (fun (key, _, _) -> (i, key)) entries @ !kills
      | `Free | `Torn | `Slot _ -> ()
    done;
  ((if Mvcc.enabled t.mvcc then Some !groups else None), !kills)

(* Deferred group apply.  Publishing each slice as its decide arrives
   would tear the transaction: a crash (or a promotion) between two
   slices leaves half of it published with no way to undo.  Instead a
   committed slice stays prepared until the decides of ALL [nparts]
   participants have been seen.  The last one commits the group by the
   one rule: it persists its own shard's decided word = the group's
   slot id, then publishes and clears every slot of the group before
   this store applies anything else, so the word cannot move past the
   id while a slot still needs it.  Until then the shard is held
   ([backup_held]): the applier parks its later records and acks
   nothing past the record before this decide.  The decide count is
   volatile: if it is lost to a crash, every slot of the group is still
   prepared and recovery presumed-aborts them — sound, because the
   primary's sync reply waits for every participant's ack, and no ack
   covers a decide before its transaction publishes here. *)
let txn_backup_decide t ~txn ~shard ~nparts =
  match Hashtbl.find_opt t.backup_decided txn with
  | None -> () (* published already: a duplicate decide *)
  | Some (id, decides) -> (
    match read_tslot t shard with
    | `Slot (sid, _) when sid = id ->
      if decides + 1 < nparts then begin
        Hashtbl.replace t.backup_decided txn (id, decides + 1);
        t.backup_held.(shard) <- txn
      end
      else begin
        Hashtbl.remove t.backup_decided txn;
        let versions, kills = gather_slots t id in
        write_decided t shard id;
        publish_apply t ~id ~versions ~kills (List.init t.nshards Fun.id);
        Array.iteri
          (fun i held -> if held = txn then t.backup_held.(i) <- 0)
          t.backup_held
      end
    | `Free | `Torn | `Slot _ -> ())

let backup_held t ~shard = t.backup_held.(shard) <> 0

(* A committed transaction's replication records, in shipping order:
   each participant's prepare, then its decide. *)
let txn_records res =
  let nparts = List.length res.participants in
  List.concat_map
    (fun (shard, ops) ->
      [ (shard, Replica.Txn_prepare { txn = res.txn_id; ops });
        ( shard,
          Replica.Txn_decide { txn = res.txn_id; nparts } ) ])
    res.participants

(* One dispatch for everything the replication stream carries, so
   every applier (server, crashcheck, tests) resolves the [Replica.op]
   variant in one place. *)
let apply_replicated t ~shard (op : Replica.op) =
  match op with
  | Replica.Put { key; vseed } -> ignore (put t ~key ~vseed)
  | Replica.Del { key } -> ignore (delete t ~key)
  | Replica.Txn_prepare { txn; ops } -> txn_backup_prepare t ~txn ~shard ~ops
  | Replica.Txn_decide { txn; nparts } -> txn_backup_decide t ~txn ~shard ~nparts

(* A chunk never finds its shard's slot armed: on a shard's stream a
   prepare is followed by its own decide, and a committed decide holds
   the shard ([backup_held]) until its transaction publishes and clears
   every slot, so the applier parks the shard's later records until
   then.  Results are discarded — the backup replays outcomes the
   primary already decided. *)
let apply_replicated_group t ~shard (ops : Replica.op list) =
  ignore
    (group_commit t ~shard
       (List.map
          (function
            | Replica.Put { key; vseed } -> Tput { key; vseed }
            | Replica.Del { key } -> Tdel { key }
            | Replica.Txn_prepare _ | Replica.Txn_decide _ ->
              invalid_arg "Kv.apply_replicated_group: transaction record")
          ops))
