(** Multi-level hash table of memblock records (paper §4.4, §5.2).

    Buckets store the 64-byte records inline; the key is the block's
    offset in the sub-heap data region.  Lookup and insertion probe a
    fixed window of [Layout.probe_window] slots per level, so both are
    constant-time in the heap size.  When every window is full the
    caller first defragments within the windows (merging a free block
    into its left neighbour releases the block's slot) and finally the
    table grows a new level twice the size of the previous one
    (dynamic re-sizing, F2FS-style).  Empty top levels are released
    back to the filesystem by hole punching (§5.6).

    Slot searches consult a DRAM summary of bucket occupancy first
    (below), so a bucket already seen live costs no NVMM read. *)

type t = {
  mach : Machine.t;
  meta_base : int;
  base_buckets : int;
  summary : int; (* base of the DRAM occupancy summary *)
  mutable tag : int; (* the summary epoch of this handle *)
  mutable slot_reads : int; (* NVMM bucket reads of slot searches *)
}

(* ---------- occupancy summary (volatile) ---------- *)

(* A DRAM region per table at its metadata address plus
   [summary_space], on its CPU's NUMA node like the record-hint table,
   so every access pays the machine's cache model.  It starts one
   header length in, so in a direct-mapped cache its first lines do
   not evict the header's hot ones (log, class lists, level
   counters), which lie at the same address bits.  Each 64-byte line
   holds an 8-byte epoch tag and one byte for each of 56 consecutive
   buckets (numbered across levels); a byte of 1 in a line whose tag
   is the handle's epoch says "this bucket holds a live record".
   Anything else says "unknown", and the slot search then reads the
   bucket's NVMM status, filling the byte in when it finds a record.

   The summary is advice about persistent state and never part of it:
   it must never call a reusable bucket live (so the first reusable
   slot of a search is the one a full probe finds), and it may forget
   anything.  Epochs come from one process-wide counter and never
   repeat, and each handle and each punch takes a fresh one, so no
   byte written before the current attach — a DRAM line an
   adversarial crash kept, a table an earlier handle filled — can read
   as live.  Hence no logging, fences or MPK key. *)
let summary_space = 1 lsl 57

let epochs = Atomic.make 1

let fresh_epoch () = Atomic.fetch_and_add epochs 1

let per_line = Layout.cache_line - Layout.word

let summary_bytes ~base_buckets =
  let buckets = base_buckets * ((1 lsl Layout.max_levels) - 1) in
  (buckets + per_line - 1) / per_line * Layout.cache_line

let make mach ~meta_base ~base_buckets ~numa =
  if base_buckets <= 0 then invalid_arg "Hashtable.make";
  let summary = summary_space + meta_base + Layout.sh_header_size in
  if not (Machine.has_region mach summary) then
    Machine.add_region mach ~base:summary ~size:(summary_bytes ~base_buckets)
      ~kind:Nvmm.Memdev.Dram ~numa;
  { mach;
    meta_base;
    base_buckets;
    summary;
    tag = fresh_epoch ();
    slot_reads = 0 }

let slot_reads t = t.slot_reads

let levels_addr t = t.meta_base + Layout.sh_off_hash_levels
let live_addr t level = t.meta_base + Layout.sh_off_level_live + (level * Layout.word)

let levels t = Machine.read_u64 t.mach (levels_addr t)

let level_live t level = Machine.read_u64 t.mach (live_addr t level)

let live_add t level n = (live_addr t level, level_live t level + n)

let live_decr t level =
  let v = level_live t level in
  assert (v > 0);
  (live_addr t level, v - 1)

let level_base t level =
  t.meta_base + Layout.level_area_off ~base_buckets:t.base_buckets level

let level_buckets t level = Layout.level_buckets ~base_buckets:t.base_buckets level

let bucket_addr t ~level ~idx = level_base t level + (idx * Layout.record_size)

(* Summary line and byte of the bucket at [rec_addr]. *)
let summary_slot t rec_addr =
  let g = (rec_addr - level_base t 0) / Layout.record_size in
  let line = t.summary + (g / per_line * Layout.cache_line) in
  (line, line + Layout.word + (g mod per_line))

let known_live t rec_addr =
  let line, byte = summary_slot t rec_addr in
  Machine.read_u64 t.mach line = t.tag && Machine.read_u8 t.mach byte = 1

(* A line of an older epoch is claimed whole: its bytes are cleared
   before the tag makes them count. *)
let note_live t rec_addr =
  let line, byte = summary_slot t rec_addr in
  if Machine.read_u64 t.mach line <> t.tag then begin
    Machine.fill t.mach (line + Layout.word) per_line '\000';
    Machine.write_u64 t.mach line t.tag
  end;
  Machine.write_u8 t.mach byte 1

(* No tag check: a byte cleared in a line of another epoch still reads
   as unknown. *)
let note_dead t rec_addr = Machine.write_u8 t.mach (snd (summary_slot t rec_addr)) 0

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
    without reading their window, and so is every bucket the summary
    knows live; the others are confirmed by their NVMM status, and a
    live one is noted in the summary.  So the slot found is the one a
    probe of every window would find. *)
let find_insert_slot t off =
  let nlevels = levels t in
  let rec per_level level =
    if level >= nlevels then None
    else if level_full t level then per_level (level + 1)
    else
      match
        find_in_window t ~level ~off (fun rec_addr ->
            if known_live t rec_addr then None
            else begin
              t.slot_reads <- t.slot_reads + 1;
              let st = Record.get_status t.mach rec_addr in
              if st = Layout.st_empty || st = Layout.st_tombstone then
                Some rec_addr
              else begin
                note_live t rec_addr;
                None
              end
            end)
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
    Persist.Pundo.write ctx (levels_addr t) (n + 1);
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
    Persist.Pundo.write ctx (levels_addr t) n';
    Some (n', n) (* caller punches level areas n'..n-1 after commit *)
  end
  else None

let punch_levels t ~from_level ~to_level =
  for level = from_level to to_level - 1 do
    Machine.punch t.mach (level_base t level)
      (Layout.record_size * level_buckets t level)
  done;
  t.tag <- fresh_epoch ()
