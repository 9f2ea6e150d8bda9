(* Volatile per-shard version chains over commit timestamps.

   The store is pure DRAM state (plain OCaml hashtables) layered over
   the persistent trees: every mutation publishes (ts, value digest)
   for its keys, a read-only transaction mints the current safe
   timestamp and resolves each key to the newest version <= ts.  A key
   with no chain has never been mutated since this store was built, so
   the persistent tree IS its version for every mintable timestamp —
   the floor.

   Two invariants carry the whole consistency argument:

   - [safe_ts] only advances AFTER every version of the commit it
     names is in its chain ([publish]/[publish_group] append first,
     advance last, in one OCaml step with no simulated-machine call in
     between — the cooperative scheduler cannot interleave a reader);
   - a writer seeds a key's floor pre-image BEFORE it first touches
     the tree entry ([seed]), so a concurrent lock-free reader never
     resolves a mutated key through the in-flux tree.

   Everything here is volatile by construction: a crash drops the
   chains, [attach] rebuilds them empty, and the persistent tree —
   which recovery already proves prefix-consistent — becomes the floor
   again.  That is why the crashcheck oracles need no new persistence
   reasoning for the read path. *)

type entry = { ts : int; value : int option (* None = absent/deleted *) }

type resolution =
  | No_chain
  | Resolved of int option
  | Truncated of int option

module Keys = Set.Make (Int)

type t = {
  window : int; (* K committed versions kept per chain; 0 = disabled *)
  nshards : int;
  chains : (int, entry list) Hashtbl.t array; (* newest-first per key *)
  keys : Keys.t array; (* per shard, the keys of [chains], ordered *)
  watermark : int array; (* newest fully-published ts per shard *)
  mutable safe_ts : int; (* newest fully-published ts store-wide *)
}

let create ~shards ~window =
  if shards < 1 then invalid_arg "Mvcc.create: shards must be >= 1";
  if window < 0 then invalid_arg "Mvcc.create: window must be >= 0";
  { window;
    nshards = shards;
    chains = Array.init shards (fun _ -> Hashtbl.create 64);
    keys = Array.make shards Keys.empty;
    watermark = Array.make shards 0;
    safe_ts = 0 }

let window t = t.window
let enabled t = t.window > 0
let shards t = t.nshards
let snapshot t = t.safe_ts
let watermark t ~shard = t.watermark.(shard)

let reset t =
  Array.iter Hashtbl.reset t.chains;
  Array.fill t.keys 0 t.nshards Keys.empty;
  Array.fill t.watermark 0 t.nshards 0;
  t.safe_ts <- 0

let has_chain t ~shard ~key = Hashtbl.mem t.chains.(shard) key

let chain_length t ~shard ~key =
  match Hashtbl.find_opt t.chains.(shard) key with
  | Some c -> List.length c
  | None -> 0

let newest_ts t ~shard ~key =
  match Hashtbl.find_opt t.chains.(shard) key with
  | Some ({ ts; _ } :: _) -> Some ts
  | Some [] | None -> None

let seed t ~shard ~key ~value =
  if enabled t && not (Hashtbl.mem t.chains.(shard) key) then begin
    (* the floor pre-image: valid for every snapshot older than the
       first published version (all real timestamps are >= 0) *)
    Hashtbl.replace t.chains.(shard) key [ { ts = 0; value } ];
    t.keys.(shard) <- Keys.add key t.keys.(shard)
  end

(* keep the newest [window] committed versions plus one older entry as
   the in-chain floor *)
let trim t c =
  let cap = t.window + 1 in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | e :: rest -> e :: take (n - 1) rest
  in
  take cap c

let publish_one t ~shard ~ts (key, value) =
  let tbl = t.chains.(shard) in
  let chain =
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
      t.keys.(shard) <- Keys.add key t.keys.(shard);
      []
  in
  Hashtbl.replace tbl key (trim t ({ ts; value } :: chain))

let advance t ~shard ~ts =
  if ts > t.watermark.(shard) then t.watermark.(shard) <- ts;
  if ts > t.safe_ts then t.safe_ts <- ts

let publish t ~shard ~ts versions =
  if enabled t then begin
    List.iter (publish_one t ~shard ~ts) versions;
    advance t ~shard ~ts
  end

let publish_group t ~ts parts =
  if enabled t then begin
    (* every participant's versions enter their chains before ANY
       shard's watermark moves: a snapshot either predates the whole
       transaction or sees all of it *)
    List.iter
      (fun (shard, versions) -> List.iter (publish_one t ~shard ~ts) versions)
      parts;
    List.iter (fun (shard, _) -> advance t ~shard ~ts) parts
  end

let lookup t ~shard ~key ~ts =
  if not (enabled t) then No_chain
  else
    match Hashtbl.find_opt t.chains.(shard) key with
    | None -> No_chain
    | Some chain ->
      let rec resolve = function
        | [] -> No_chain (* unreachable: chains are never stored empty *)
        | [ oldest ] ->
          if oldest.ts <= ts then Resolved oldest.value
          else
            (* every retained version postdates the snapshot: trimming
               dropped the version [ts] should observe.  Surface the
               consistency loss — the oldest survivor is a FORWARD
               read, not a stale one — and let the caller decide what
               degradation means (see DESIGN §13). *)
            Truncated oldest.value
        | e :: rest -> if e.ts <= ts then Resolved e.value else resolve rest
      in
      resolve chain

let next_chain_key t ~shard ~from_key =
  Keys.find_first_opt (fun k -> k >= from_key) t.keys.(shard)

let census t ~shard =
  Hashtbl.fold
    (fun _ c (n, v) -> (n + 1, v + List.length c))
    t.chains.(shard) (0, 0)
