(** Extendible hashing — the "more advanced index scheme" the paper's
    §8 suggests for huge NVMM capacities, implemented as an
    alternative to the multi-level table for comparison.

    A directory of 2^depth bucket pointers indexes fixed-size buckets
    of records; an overfull bucket splits (doubling the directory when
    its local depth reaches the global depth), so lookups stay O(1)
    with exactly one directory load and one bucket scan regardless of
    population — where the multi-level table's worst case grows with
    the number of levels.

    The structure lives in simulated NVMM and is mutated through the
    caller's undo-logging context, matching the mutation discipline of
    the production index.  Layout, from [base]:

    {v
    0    global depth
    8    bump pointer for bucket allocation (absolute address)
    16   directory: dir_cap pointers (bucket addresses)
    ...  bucket area: buckets of [header | slots]
           bucket header: [local depth][count]
           slot: [key][value] (key 0 = empty; keys must be non-zero)
    v} *)

let word = 8
let slots_per_bucket = 14
let bucket_size = 16 + (slots_per_bucket * 16)

let max_depth = 20

type t = {
  mach : Machine.t;
  base : int;
  size : int; (* total region size *)
  log_base : int; (* private undo-log area *)
  log : Persist.Pundo.log;
}

let off_depth = 0
let off_bump = 8
let off_dir = 16
let dir_cap = 1 lsl max_depth

let bucket_area_off = off_dir + (dir_cap * word)

let depth t = Machine.read_u64 t.mach (t.base + off_depth)
let dir_slot t i = t.base + off_dir + (i * word)

let b_depth mach b = Machine.read_u64 mach b
let b_count mach b = Machine.read_u64 mach (b + 8)
let slot_addr b i = b + 16 + (i * 16)

let mix key =
  let x = key * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 31) in
  (x * 0xBF58476D1CE4E5) lxor (x lsr 29) land max_int

let hash_bits t key = mix key land ((1 lsl depth t) - 1)

(* allocate a virgin bucket from the bump area *)
let alloc_bucket ctx t ~local_depth =
  let bump = Machine.read_u64 t.mach (t.base + off_bump) in
  if bump + bucket_size > t.base + t.size then failwith "Exthash: region full";
  Persist.Pundo.write ctx (t.base + off_bump) (bump + bucket_size);
  Persist.Pundo.write ctx bump local_depth;
  Persist.Pundo.write ctx (bump + 8) 0;
  (* slots are virgin zeroes (key 0 = empty) or punched *)
  bump

(** Runs [f] as one crash-consistent operation against the
    structure's private undo log. *)
let log_cap = 2048

let with_op t f =
  let ctx = Persist.Pundo.begin_op t.log in
  let r = f ctx in
  Persist.Pundo.commit ctx;
  r

(** Replays the private undo log after a crash (idempotent). *)
let recover t =
  ignore (Persist.Pundo.recover t.mach ~count_addr:t.log_base)

(* Regions embed a private undo log right after the header so the
   structure is self-contained and crash-consistent on its own. *)
let create mach ~base ~size =
  if size < 65536 + bucket_area_off + (4 * bucket_size) then
    invalid_arg "Exthash.create: region too small";
  (* region layout: [64 KiB private log][exthash] *)
  let hash_base = base + 65536 in
  let t =
    { mach;
      base = hash_base;
      size = size - 65536;
      log_base = base;
      log = Persist.Pundo.create mach ~count_addr:base ~cap:log_cap }
  in
  Machine.write_u64 mach (hash_base + off_depth) 1;
  Machine.write_u64 mach (hash_base + off_bump) (hash_base + bucket_area_off);
  Machine.persist mach hash_base 16;
  with_op t (fun ctx ->
      let b0 = alloc_bucket ctx t ~local_depth:1 in
      let b1 = alloc_bucket ctx t ~local_depth:1 in
      Persist.Pundo.write ctx (dir_slot t 0) b0;
      Persist.Pundo.write ctx (dir_slot t 1) b1);
  t

let bucket_of t key =
  Machine.read_u64 t.mach (dir_slot t (hash_bits t key))

let lookup t key =
  if key = 0 then invalid_arg "Exthash: key must be non-zero";
  let b = bucket_of t key in
  let n = b_count t.mach b in
  let rec scan i =
    if i >= n then None
    else if Machine.read_u64 t.mach (slot_addr b i) = key then
      Some (Machine.read_u64 t.mach (slot_addr b i + 8))
    else scan (i + 1)
  in
  scan 0

let rec insert ctx t key value =
  if key = 0 then invalid_arg "Exthash: key must be non-zero";
  let b = bucket_of t key in
  let n = b_count t.mach b in
  (* update in place if present *)
  let rec find i =
    if i >= n then None
    else if Machine.read_u64 t.mach (slot_addr b i) = key then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> Persist.Pundo.write ctx (slot_addr b i + 8) value
  | None ->
    if n < slots_per_bucket then begin
      Persist.Pundo.write ctx (slot_addr b n) key;
      Persist.Pundo.write ctx (slot_addr b n + 8) value;
      Persist.Pundo.write ctx (b + 8) (n + 1)
    end
    else begin
      split ctx t b;
      insert ctx t key value
    end

(* split bucket [b]: allocate a sibling one local-depth deeper,
   redistribute, fix the directory (doubling it if needed) *)
and split ctx t b =
  let mach = t.mach in
  let ld = b_depth mach b in
  let gd = depth t in
  if ld = gd then begin
    (* double the directory: the upper half mirrors the lower.  The
       mirror itself needs no undo entries — it is dead until the
       (logged) depth word flips, and a rollback of the depth kills
       it — so doubling costs O(1) log entries. *)
    if gd + 1 > max_depth then failwith "Exthash: max depth reached";
    let half = 1 lsl gd in
    for i = 0 to half - 1 do
      Machine.write_u64 mach (dir_slot t (half + i))
        (Machine.read_u64 mach (dir_slot t i));
      Persist.Pundo.mark_dirty ctx (dir_slot t (half + i))
    done;
    Persist.Pundo.write ctx (t.base + off_depth) (gd + 1)
  end;
  let gd = depth t in
  let new_ld = ld + 1 in
  let sibling = alloc_bucket ctx t ~local_depth:new_ld in
  Persist.Pundo.write ctx b new_ld;
  (* redistribute: entries whose (ld)'th hash bit is 1 move *)
  let bit = 1 lsl ld in
  let keep = ref 0 and moved = ref 0 in
  let n = b_count mach b in
  for i = 0 to n - 1 do
    let k = Machine.read_u64 mach (slot_addr b i) in
    let v = Machine.read_u64 mach (slot_addr b i + 8) in
    if mix k land bit <> 0 then begin
      Persist.Pundo.write ctx (slot_addr sibling !moved) k;
      Persist.Pundo.write ctx (slot_addr sibling !moved + 8) v;
      incr moved
    end
    else begin
      if !keep <> i then begin
        Persist.Pundo.write ctx (slot_addr b !keep) k;
        Persist.Pundo.write ctx (slot_addr b !keep + 8) v
      end;
      incr keep
    end
  done;
  Persist.Pundo.write ctx (b + 8) !keep;
  Persist.Pundo.write ctx (sibling + 8) !moved;
  (* re-point the directory entries of the sibling's pattern *)
  for i = 0 to (1 lsl gd) - 1 do
    if Machine.read_u64 mach (dir_slot t i) = b && i land bit <> 0 then
      Persist.Pundo.write ctx (dir_slot t i) sibling
  done

let delete ctx t key =
  let b = bucket_of t key in
  let n = b_count t.mach b in
  let rec find i =
    if i >= n then false
    else if Machine.read_u64 t.mach (slot_addr b i) = key then begin
      (* swap in the last entry *)
      if i <> n - 1 then begin
        Persist.Pundo.write ctx (slot_addr b i)
          (Machine.read_u64 t.mach (slot_addr b (n - 1)));
        Persist.Pundo.write ctx (slot_addr b i + 8)
          (Machine.read_u64 t.mach (slot_addr b (n - 1) + 8))
      end;
      Persist.Pundo.write ctx (b + 8) (n - 1);
      true
    end
    else find (i + 1)
  in
  find 0

let count t =
  let seen = Hashtbl.create 64 in
  let total = ref 0 in
  for i = 0 to (1 lsl depth t) - 1 do
    let b = Machine.read_u64 t.mach (dir_slot t i) in
    if not (Hashtbl.mem seen b) then begin
      Hashtbl.replace seen b ();
      total := !total + b_count t.mach b
    end
  done;
  !total

(** Structural check: every key in a bucket hashes to that bucket's
    directory pattern; directory entries respect local depths. *)
let check t =
  let mach = t.mach in
  let gd = depth t in
  for i = 0 to (1 lsl gd) - 1 do
    let b = Machine.read_u64 mach (dir_slot t i) in
    let ld = b_depth mach b in
    if ld > gd then failwith "Exthash.check: local depth exceeds global";
    let n = b_count mach b in
    if n > slots_per_bucket then failwith "Exthash.check: overfull bucket";
    for s = 0 to n - 1 do
      let k = Machine.read_u64 mach (slot_addr b s) in
      if mix k land ((1 lsl ld) - 1) <> i land ((1 lsl ld) - 1) then
        failwith "Exthash.check: key in wrong bucket"
    done
  done
