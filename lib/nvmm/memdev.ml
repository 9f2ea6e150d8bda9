module Bitset = Repro_util.Bitset
module Prng = Repro_util.Prng

type addr = int
type kind = Dram | Nvmm

type crash_mode = [ `Strict | `Adversarial of Prng.t ]

exception Invalid_address of addr

let cache_line = 64
let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits (* 64 KiB *)
let lines_per_chunk = chunk_size / cache_line

type chunk = {
  vol : Bytes.t;  (* what loads observe (CPU caches + media) *)
  pers : Bytes.t; (* what survives a crash *)
  dirty : Bitset.t; (* per-line: vol may differ from pers *)
  staged_lines : Bitset.t; (* per-line: holds a live staging slot *)
}

(* Never-written chunks read as this one; compared with [==]. *)
let no_chunk =
  { vol = Bytes.empty; pers = Bytes.empty; dirty = Bitset.create 0;
    staged_lines = Bitset.create 0 }

(* Int-keyed tables with the generic table's hash, so their bucket
   layout, and with it their iteration order, is exactly [Hashtbl]'s:
   [crash] draws its random bits in the order of [chunks] and of the
   staged lines' table. *)
module Itbl = Hashtbl.Make (Int)

type region = { base : addr; size : int; info : kind * int (* kind, NUMA node *) }

(* Matches no address. *)
let no_region = { base = 0; size = 0; info = (Dram, 0) }

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable lines_flushed : int;
  mutable fences : int;
}

type fence_info = {
  fence_no : int;
  lines_committed : int;
  dirty_residue : int;
}

let cache_slots = 1024

type t = {
  chunks : chunk Itbl.t;
  (* The lines staged since the last fence, one slot each in staging
     order, so a fence visits only them: slot [i] is line [st_base.(i)]
     of chunk [st_chunk.(i)] ([no_chunk] once a punch dropped it), its
     snapshot at bytes [64 i] of [stage_buf]. *)
  mutable st_base : int array;
  mutable st_chunk : chunk array;
  mutable stage_buf : Bytes.t;
  mutable n_staged : int; (* slots in use *)
  (* Since the last fence, slot [i] staged ([i]) or dropped ([-1 - i]),
     in order: replaying it into a fresh table rebuilds the line base
     -> slot table a crash iterates (see [staged_table]). *)
  mutable st_log : int array;
  mutable n_log : int;
  (* direct-mapped chunk cache in front of [chunks]: slot [idx land
     (cache_slots - 1)] holds chunk [idx], or [no_chunk] if it has none *)
  cache_idx : int array;
  cache_chunk : chunk array;
  mutable regions : region array; (* sorted by base *)
  mutable last_region : region;   (* lookup memo *)
  ctrs : counters;
  mutable fence_hook : (fence_info -> unit) option;
}

let create () =
  { chunks = Itbl.create 1024;
    st_base = Array.make 64 0;
    st_chunk = Array.make 64 no_chunk;
    stage_buf = Bytes.create (64 * cache_line);
    n_staged = 0;
    st_log = Array.make 64 0;
    n_log = 0;
    cache_idx = Array.make cache_slots (-1);
    cache_chunk = Array.make cache_slots no_chunk;
    regions = [||];
    last_region = no_region;
    ctrs = { loads = 0; stores = 0; lines_flushed = 0; fences = 0 };
    fence_hook = None }

let set_persistence_hook t hook = t.fence_hook <- hook

(* ---------- regions ---------- *)

let add_region t ~base ~size ~kind ~numa =
  if base < 0 || size <= 0 then invalid_arg "Memdev.add_region";
  let overlaps r = base < r.base + r.size && r.base < base + size in
  if Array.exists overlaps t.regions then
    invalid_arg "Memdev.add_region: overlapping region";
  let regions =
    Array.append t.regions [| { base; size; info = (kind, numa) } |]
  in
  Array.sort (fun a b -> compare a.base b.base) regions;
  t.regions <- regions

let find_region t a =
  let r = t.last_region in
  if a >= r.base && a < r.base + r.size then r
  else
    let rec search lo hi =
      if lo > hi then raise (Invalid_address a)
      else
        let mid = (lo + hi) / 2 in
        let r = t.regions.(mid) in
        if a < r.base then search lo (mid - 1)
        else if a >= r.base + r.size then search (mid + 1) hi
        else begin
          t.last_region <- r;
          r
        end
    in
    search 0 (Array.length t.regions - 1)

let region_info t a = (find_region t a).info

(* ---------- chunk management ---------- *)

(* The chunk of index [idx], or [no_chunk] if it was never written:
   reads of such chunks return zeros without allocating.  A cache hit
   neither hashes nor allocates. *)
let peek_chunk t idx =
  let s = idx land (cache_slots - 1) in
  if t.cache_idx.(s) = idx then t.cache_chunk.(s)
  else begin
    let c = match Itbl.find t.chunks idx with c -> c | exception Not_found -> no_chunk in
    t.cache_idx.(s) <- idx;
    t.cache_chunk.(s) <- c;
    c
  end

let get_chunk t idx =
  let c = peek_chunk t idx in
  if c != no_chunk then c
  else begin
    let c =
      { vol = Bytes.make chunk_size '\000';
        pers = Bytes.make chunk_size '\000';
        dirty = Bitset.create lines_per_chunk;
        staged_lines = Bitset.create lines_per_chunk }
    in
    Itbl.replace t.chunks idx c;
    (* [peek_chunk] left [idx] in its cache slot *)
    t.cache_chunk.(idx land (cache_slots - 1)) <- c;
    c
  end

let check t a len =
  let r = find_region t a in
  if a + len > r.base + r.size then raise (Invalid_address (a + len - 1))

let mark_dirty c off len =
  let first = off / cache_line and last = (off + len - 1) / cache_line in
  for line = first to last do
    Bitset.set c.dirty line
  done

(* ---------- scalar access ---------- *)

let in_chunk a len = a land (chunk_size - 1) <= chunk_size - len

let read_u8 t a =
  check t a 1;
  t.ctrs.loads <- t.ctrs.loads + 1;
  let c = peek_chunk t (a lsr chunk_bits) in
  if c == no_chunk then 0 else Bytes.get_uint8 c.vol (a land (chunk_size - 1))

let write_u8 t a v =
  check t a 1;
  t.ctrs.stores <- t.ctrs.stores + 1;
  let c = get_chunk t (a lsr chunk_bits) in
  let off = a land (chunk_size - 1) in
  Bytes.set_uint8 c.vol off (v land 0xff);
  mark_dirty c off 1

(* 2- and 4-byte accesses, and any access that straddles a chunk
   boundary; an in-chunk word takes [read_u64] / [write_u64]. *)
let read_scalar t a len =
  if in_chunk a len then begin
    check t a len;
    t.ctrs.loads <- t.ctrs.loads + 1;
    let c = peek_chunk t (a lsr chunk_bits) in
    if c == no_chunk then 0L
    else
      let off = a land (chunk_size - 1) in
      match len with
      | 2 -> Int64.of_int (Bytes.get_uint16_le c.vol off)
      | 4 -> Int64.of_int32 (Bytes.get_int32_le c.vol off)
      | _ -> assert false
  end
  else begin
    (* straddles a chunk boundary: assemble byte by byte *)
    let v = ref 0L in
    for i = len - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_u8 t (a + i)))
    done;
    t.ctrs.loads <- t.ctrs.loads - len + 1;
    !v
  end

let write_scalar t a len v =
  if in_chunk a len then begin
    check t a len;
    t.ctrs.stores <- t.ctrs.stores + 1;
    let c = get_chunk t (a lsr chunk_bits) in
    let off = a land (chunk_size - 1) in
    (match len with
     | 2 -> Bytes.set_uint16_le c.vol off (Int64.to_int v land 0xffff)
     | 4 -> Bytes.set_int32_le c.vol off (Int64.to_int32 v)
     | _ -> assert false);
    mark_dirty c off len
  end
  else begin
    for i = 0 to len - 1 do
      write_u8 t (a + i)
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done;
    t.ctrs.stores <- t.ctrs.stores - len + 1
  end

let read_u16 t a = Int64.to_int (read_scalar t a 2)
let read_u32 t a = Int64.to_int (Int64.logand (read_scalar t a 4) 0xFFFFFFFFL)

(* The in-chunk word, the common case, boxes no [int64]. *)
let read_u64 t a =
  if in_chunk a 8 then begin
    check t a 8;
    t.ctrs.loads <- t.ctrs.loads + 1;
    let c = peek_chunk t (a lsr chunk_bits) in
    if c == no_chunk then 0
    else Int64.to_int (Bytes.get_int64_le c.vol (a land (chunk_size - 1)))
  end
  else Int64.to_int (read_scalar t a 8)

let write_u16 t a v = write_scalar t a 2 (Int64.of_int v)
let write_u32 t a v = write_scalar t a 4 (Int64.of_int v)

let write_u64 t a v =
  if in_chunk a 8 then begin
    check t a 8;
    t.ctrs.stores <- t.ctrs.stores + 1;
    let c = get_chunk t (a lsr chunk_bits) in
    let off = a land (chunk_size - 1) in
    Bytes.set_int64_le c.vol off (Int64.of_int v);
    mark_dirty c off 8
  end
  else write_scalar t a 8 (Int64.of_int v)

(* ---------- bulk access ---------- *)

let read_bytes t a len =
  if len < 0 then invalid_arg "Memdev.read_bytes";
  check t a len;
  t.ctrs.loads <- t.ctrs.loads + ((len + 7) / 8);
  let out = Bytes.make len '\000' in
  let pos = ref 0 in
  while !pos < len do
    let addr = a + !pos in
    let off = addr land (chunk_size - 1) in
    let n = min (len - !pos) (chunk_size - off) in
    let c = peek_chunk t (addr lsr chunk_bits) in
    if c != no_chunk then Bytes.blit c.vol off out !pos n;
    pos := !pos + n
  done;
  out

let write_bytes t a b =
  let len = Bytes.length b in
  check t a len;
  t.ctrs.stores <- t.ctrs.stores + ((len + 7) / 8);
  let pos = ref 0 in
  while !pos < len do
    let addr = a + !pos in
    let off = addr land (chunk_size - 1) in
    let n = min (len - !pos) (chunk_size - off) in
    let c = get_chunk t (addr lsr chunk_bits) in
    Bytes.blit b !pos c.vol off n;
    mark_dirty c off n;
    pos := !pos + n
  done

let fill t a len ch =
  if len < 0 then invalid_arg "Memdev.fill";
  check t a len;
  t.ctrs.stores <- t.ctrs.stores + ((len + 7) / 8);
  let pos = ref 0 in
  while !pos < len do
    let addr = a + !pos in
    let off = addr land (chunk_size - 1) in
    let n = min (len - !pos) (chunk_size - off) in
    let c = get_chunk t (addr lsr chunk_bits) in
    Bytes.fill c.vol off n ch;
    mark_dirty c off n;
    pos := !pos + n
  done

(* ---------- persistence ---------- *)

let line_base a = a land lnot (cache_line - 1)

let line_of_base base = (base land (chunk_size - 1)) / cache_line

let grow a fill = Array.append a (Array.make (Array.length a) fill)

let log_staging t e =
  if t.n_log = Array.length t.st_log then t.st_log <- grow t.st_log 0;
  t.st_log.(t.n_log) <- e;
  t.n_log <- t.n_log + 1

(* A new staging slot for line [base] of chunk [c]. *)
let push_staged t base c =
  let i = t.n_staged in
  if i = Array.length t.st_base then begin
    t.st_base <- grow t.st_base 0;
    t.st_chunk <- grow t.st_chunk no_chunk;
    t.stage_buf <- Bytes.extend t.stage_buf 0 (Bytes.length t.stage_buf)
  end;
  t.st_base.(i) <- base;
  t.st_chunk.(i) <- c;
  t.n_staged <- i + 1;
  log_staging t i;
  i

(* The live slot of a staged line: the newest slot of its base. *)
let staged_slot t base =
  let rec back i = if t.st_base.(i) = base then i else back (i - 1) in
  back (t.n_staged - 1)

let clwb t a =
  check t a 1;
  let base = line_base a in
  let c = peek_chunk t (base lsr chunk_bits) in
  let line = line_of_base base in
  if c != no_chunk && Bitset.mem c.dirty line then begin
    let slot =
      if Bitset.mem c.staged_lines line then staged_slot t base
      else begin
        Bitset.set c.staged_lines line;
        push_staged t base c
      end
    in
    Bytes.blit c.vol (base land (chunk_size - 1)) t.stage_buf (slot * cache_line)
      cache_line
  end

(* Bytes [aoff, aoff+64) of [a] equal bytes [boff, boff+64) of [b]. *)
let rec same_line a aoff b boff i =
  i >= cache_line
  || ((Bytes.get_int64_ne a (aoff + i) : int64) = Bytes.get_int64_ne b (boff + i)
      && same_line a aoff b boff (i + 8))

(* Writes staging slot [slot] back to line [base] of chunk [c]. *)
let commit_line t c base slot =
  let off = base land (chunk_size - 1) and src = slot * cache_line in
  Bytes.blit t.stage_buf src c.pers off cache_line;
  t.ctrs.lines_flushed <- t.ctrs.lines_flushed + 1;
  let line = off / cache_line in
  Bitset.clear c.staged_lines line;
  (* Line stays dirty iff further stores hit it after the snapshot. *)
  if same_line c.vol off t.stage_buf src 0 then Bitset.clear c.dirty line
  else Bitset.set c.dirty line

(* A crash draws the staged lines in the order of a [Hashtbl] from line
   base to slot that is created with 64 buckets at each fence, gains a
   binding per staged line and loses the punched ones.  Its layout
   depends only on that sequence, so replaying the log rebuilds it
   exactly. *)
let staged_table t =
  let tbl = Itbl.create 64 in
  for k = 0 to t.n_log - 1 do
    let e = t.st_log.(k) in
    if e >= 0 then Itbl.replace tbl t.st_base.(e) e
    else Itbl.remove tbl t.st_base.(-1 - e)
  done;
  tbl

let count_dirty t =
  Itbl.fold (fun _ c acc -> acc + Bitset.count c.dirty) t.chunks 0

(* Empties the staging area, committing each live slot when [commit];
   returns how many slots were live. *)
let unstage t ~commit =
  let live = ref 0 in
  for i = 0 to t.n_staged - 1 do
    let c = t.st_chunk.(i) in
    if c != no_chunk then begin
      if commit then commit_line t c t.st_base.(i) i
      else Bitset.clear c.staged_lines (line_of_base t.st_base.(i));
      t.st_chunk.(i) <- no_chunk;
      incr live
    end
  done;
  t.n_staged <- 0;
  t.n_log <- 0;
  !live

let sfence t =
  t.ctrs.fences <- t.ctrs.fences + 1;
  let committed = unstage t ~commit:true in
  match t.fence_hook with
  | Some hook ->
    hook
      { fence_no = t.ctrs.fences;
        lines_committed = committed;
        dirty_residue = count_dirty t }
  | None -> ()

let persist t a len =
  if len > 0 then begin
    let first = line_base a and last = line_base (a + len - 1) in
    let line = ref first in
    while !line <= last do
      clwb t !line;
      line := !line + cache_line
    done;
    sfence t
  end

let drain t =
  sfence t;
  Itbl.iter
    (fun _idx c ->
      Bitset.iter_set c.dirty (fun line ->
          let off = line * cache_line in
          Bytes.blit c.vol off c.pers off cache_line;
          t.ctrs.lines_flushed <- t.ctrs.lines_flushed + 1);
      Bitset.clear_all c.dirty)
    t.chunks;
  t.ctrs.fences <- t.ctrs.fences + 1

let punch t a len =
  if len < 0 then invalid_arg "Memdev.punch";
  check t a len;
  let pos = ref 0 in
  while !pos < len do
    let addr = a + !pos in
    let idx = addr lsr chunk_bits in
    let off = addr land (chunk_size - 1) in
    let n = min (len - !pos) (chunk_size - off) in
    if off = 0 && n = chunk_size then begin
      (* whole chunk: release the backing *)
      Itbl.remove t.chunks idx;
      let s = idx land (cache_slots - 1) in
      if t.cache_idx.(s) = idx then t.cache_chunk.(s) <- no_chunk
    end
    else begin
      let c = peek_chunk t idx in
      if c != no_chunk then begin
        Bytes.fill c.vol off n '\000';
        Bytes.fill c.pers off n '\000';
        (* a line the range covers only in part stays dirty while its
           other bytes hold unflushed stores *)
        let first = off / cache_line and last = (off + n - 1) / cache_line in
        for line = first to last do
          let loff = line * cache_line in
          if same_line c.vol loff c.pers loff 0 then Bitset.clear c.dirty line
        done
      end
    end;
    pos := !pos + n
  done;
  (* drop the staged lines the range covers whole; zero the punched
     bytes in the snapshot of a line it covers in part *)
  if len > 0 then begin
    let lo = line_base a and hi = a + len in
    for i = 0 to t.n_staged - 1 do
      let base = t.st_base.(i) and c = t.st_chunk.(i) in
      if c != no_chunk && base >= lo && base < hi then begin
        if base >= a && base + cache_line <= hi then begin
          Bitset.clear c.staged_lines (line_of_base base);
          t.st_chunk.(i) <- no_chunk;
          log_staging t (-1 - i)
        end
        else begin
          let from = max a base in
          Bytes.fill t.stage_buf ((i * cache_line) + from - base)
            (min hi (base + cache_line) - from) '\000'
        end
      end
    done
  end

let has_region t a =
  match find_region t a with _ -> true | exception Invalid_address _ -> false

let crash t mode =
  let staged = staged_table t in
  let at_risk = count_dirty t + Itbl.length staged in
  let persisted = ref 0 in
  (match mode with
   | `Strict -> ()
   | `Adversarial rng ->
     (* Cache evictions may persist any unflushed dirty line. *)
     Itbl.iter
       (fun _idx c ->
         Bitset.iter_set c.dirty (fun line ->
             if Prng.bool rng then begin
               let off = line * cache_line in
               Bytes.blit c.vol off c.pers off cache_line;
               incr persisted
             end))
       t.chunks;
     (* Staged-but-unfenced lines likewise may or may not land. *)
     Itbl.iter
       (fun base slot ->
         if Prng.bool rng then begin
           let c = t.st_chunk.(slot) in
           Bytes.blit t.stage_buf (slot * cache_line) c.pers
             (base land (chunk_size - 1)) cache_line;
           incr persisted
         end)
       staged);
  ignore (unstage t ~commit:false);
  Itbl.iter
    (fun _idx c ->
      Bytes.blit c.pers 0 c.vol 0 chunk_size;
      Bitset.clear_all c.dirty)
    t.chunks;
  Obs.Trace.emit2 Obs.Event.Crash !persisted (at_risk - !persisted)

let dirty_lines t = count_dirty t

let counters t = t.ctrs

let reset_counters t =
  t.ctrs.loads <- 0;
  t.ctrs.stores <- 0;
  t.ctrs.lines_flushed <- 0;
  t.ctrs.fences <- 0
