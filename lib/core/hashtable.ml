(** Multi-level hash table of memblock records (paper §4.4, §5.2).

    Buckets store the 64-byte records inline; the key is the block's
    offset in the sub-heap data region.  Lookup and insertion probe a
    fixed window of [Layout.probe_window] slots per level, so both are
    constant-time in the heap size.  When every window is full the
    caller first defragments within the windows (merging a free block
    into its left neighbour releases the block's slot) and finally the
    table grows a new level twice the size of the previous one
    (dynamic re-sizing, F2FS-style).  Empty top levels are released
    back to the filesystem by hole punching (§5.6). *)

type t = {
  mach : Machine.t;
  meta_base : int;
  base_buckets : int;
}

let make mach ~meta_base ~base_buckets =
  if base_buckets <= 0 then invalid_arg "Hashtable.make";
  { mach; meta_base; base_buckets }

let levels_addr t = t.meta_base + Layout.sh_off_hash_levels
let live_addr t level = t.meta_base + Layout.sh_off_level_live + (level * Layout.word)

let levels t = Machine.read_u64 t.mach (levels_addr t)

let level_live t level = Machine.read_u64 t.mach (live_addr t level)

let live_incr t level = (live_addr t level, level_live t level + 1)

let live_decr t level =
  let v = level_live t level in
  assert (v > 0);
  (live_addr t level, v - 1)

let level_base t level =
  t.meta_base + Layout.level_area_off ~base_buckets:t.base_buckets level

let level_buckets t level = Layout.level_buckets ~base_buckets:t.base_buckets level

let bucket_addr t ~level ~idx = level_base t level + (idx * Layout.record_size)

(** Level of the record stored at [rec_addr]. *)
let level_of_rec t rec_addr =
  let rel = rec_addr - (t.meta_base + Layout.sh_header_size) in
  assert (rel >= 0);
  let rec go level =
    if rel < Layout.record_size * t.base_buckets * ((1 lsl (level + 1)) - 1) then level
    else go (level + 1)
  in
  go 0

let mix x =
  let x = x * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xBF58476D1CE4E5 in
  (x lxor (x lsr 32)) land max_int

let hash t ~level ~off =
  mix ((off / Layout.min_block) + (level * 0x5DEECE66D)) mod level_buckets t level

(** Applies [f] to each bucket address of the probe window for [off]
    at [level]; stops early if [f] returns [Some]. *)
let find_in_window t ~level ~off f =
  let buckets = level_buckets t level in
  let h = hash t ~level ~off in
  let rec go i =
    if i >= Layout.probe_window then None
    else
      let idx = (h + i) mod buckets in
      match f (bucket_addr t ~level ~idx) with
      | Some _ as r -> r
      | None -> go (i + 1)
  in
  go 0

(** Bucket addresses of the probe window for [off] at [level], in
    probe order. *)
let window t ~level ~off =
  let buckets = level_buckets t level in
  let h = hash t ~level ~off in
  List.init Layout.probe_window (fun i ->
      bucket_addr t ~level ~idx:((h + i) mod buckets))

(** Record address of the live block with this exact offset. *)
let lookup t off =
  let nlevels = levels t in
  let rec per_level level =
    if level >= nlevels then None
    else
      match
        find_in_window t ~level ~off (fun rec_addr ->
            if Record.is_live t.mach rec_addr
               && Record.get_offset t.mach rec_addr = off
            then Some rec_addr
            else None)
      with
      | Some _ as r -> r
      | None -> per_level (level + 1)
  in
  per_level 0

(** Whether [rec_addr] is the record of the live block at [off]: a
    bucket of one of the table's current levels holding a live record
    with that offset.  Blocks tile the data region, so an offset has at
    most one live record and a hint that passes is exactly the record
    {!lookup} would find — one line read instead of a probe.  Stale,
    misaligned, out-of-table or foreign addresses fail.  (With today's
    record layout no misaligned read inside the table passes the
    status check either; the alignment test keeps validation from
    depending on that.) *)
let hint_valid t ~off rec_addr =
  let first = level_base t 0 in
  rec_addr >= first
  && rec_addr < level_base t (levels t)
  && (rec_addr - first) mod Layout.record_size = 0
  && Record.is_live t.mach rec_addr
  && Record.get_offset t.mach rec_addr = off

(** Whether every bucket of [level] holds a live record.  The level's
    live counter is kept equal to its count of live records (checked
    by [Subheap.check_invariants]), so a full level has no empty or
    tombstone slot in any window. *)
let level_full t level = level_live t level = level_buckets t level

(** Levels that are exactly full. *)
let full_levels t =
  let n = ref 0 in
  for level = 0 to levels t - 1 do
    if level_full t level then incr n
  done;
  !n

(** First reusable slot (empty or tombstone) in any level's window;
    returns [(level, record address)].  Full levels are skipped
    without reading their window: the slot found is the one a probe
    of every window would find. *)
let find_insert_slot t off =
  let nlevels = levels t in
  let rec per_level level =
    if level >= nlevels then None
    else if level_full t level then per_level (level + 1)
    else
      match
        find_in_window t ~level ~off (fun rec_addr ->
            let st = Record.get_status t.mach rec_addr in
            if st = Layout.st_empty || st = Layout.st_tombstone then Some rec_addr
            else None)
      with
      | Some rec_addr -> Some (level, rec_addr)
      | None -> per_level (level + 1)
  in
  per_level 0

(** Applies [f] to every live record in the probe windows for [off]
    across all levels (used by window defragmentation). *)
let iter_windows t off f =
  for level = 0 to levels t - 1 do
    List.iter
      (fun rec_addr -> if Record.is_live t.mach rec_addr then f rec_addr)
      (window t ~level ~off)
  done

(** Grows the table by one level; false when [Layout.max_levels] is
    reached.  New levels need no initialisation: slots are either
    virgin zeroes or tombstones from a previously shrunk level, and
    both are valid insertion targets. *)
let extend ctx t =
  let n = levels t in
  if n >= Layout.max_levels then false
  else begin
    Undolog.write ctx (levels_addr t) (n + 1);
    true
  end

(** Releases empty top levels (hole punching, §5.6).  Runs inside an
    operation of its own; the caller punches the areas after commit. *)
let shrink ctx t =
  let rec top n =
    if n > 1 && level_live t (n - 1) = 0 then top (n - 1) else n
  in
  let n = levels t in
  let n' = top n in
  if n' < n then begin
    Undolog.write ctx (levels_addr t) n';
    Some (n', n) (* caller punches level areas n'..n-1 after commit *)
  end
  else None

let punch_levels t ~from_level ~to_level =
  for level = from_level to to_level - 1 do
    Machine.punch t.mach (level_base t level)
      (Layout.record_size * level_buckets t level)
  done
