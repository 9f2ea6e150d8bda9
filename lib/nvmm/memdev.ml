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
}

type region = { base : addr; size : int; rkind : kind; numa : int }

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

type t = {
  chunks : (int, chunk) Hashtbl.t;
  staged : (addr, Bytes.t) Hashtbl.t; (* line base addr -> snapshot *)
  mutable regions : region array;      (* sorted by base *)
  mutable last_region : region option; (* lookup memo *)
  ctrs : counters;
  mutable fence_hook : (fence_info -> unit) option;
}

let create () =
  { chunks = Hashtbl.create 1024;
    staged = Hashtbl.create 64;
    regions = [||];
    last_region = None;
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
    Array.append t.regions [| { base; size; rkind = kind; numa } |]
  in
  Array.sort (fun a b -> compare a.base b.base) regions;
  t.regions <- regions

let find_region t a =
  match t.last_region with
  | Some r when a >= r.base && a < r.base + r.size -> r
  | _ ->
    let rec search lo hi =
      if lo > hi then raise (Invalid_address a)
      else
        let mid = (lo + hi) / 2 in
        let r = t.regions.(mid) in
        if a < r.base then search lo (mid - 1)
        else if a >= r.base + r.size then search (mid + 1) hi
        else begin
          t.last_region <- Some r;
          r
        end
    in
    search 0 (Array.length t.regions - 1)

let region_info t a =
  let r = find_region t a in
  (r.rkind, r.numa)

(* ---------- chunk management ---------- *)

let get_chunk t idx =
  match Hashtbl.find_opt t.chunks idx with
  | Some c -> c
  | None ->
    let c =
      { vol = Bytes.make chunk_size '\000';
        pers = Bytes.make chunk_size '\000';
        dirty = Bitset.create lines_per_chunk }
    in
    Hashtbl.replace t.chunks idx c;
    c

(* Reads of never-written chunks return zeros without allocating. *)
let peek_chunk t idx = Hashtbl.find_opt t.chunks idx

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
  match peek_chunk t (a lsr chunk_bits) with
  | None -> 0
  | Some c -> Bytes.get_uint8 c.vol (a land (chunk_size - 1))

let write_u8 t a v =
  check t a 1;
  t.ctrs.stores <- t.ctrs.stores + 1;
  let c = get_chunk t (a lsr chunk_bits) in
  let off = a land (chunk_size - 1) in
  Bytes.set_uint8 c.vol off (v land 0xff);
  mark_dirty c off 1

let read_scalar t a len =
  if in_chunk a len then begin
    check t a len;
    t.ctrs.loads <- t.ctrs.loads + 1;
    match peek_chunk t (a lsr chunk_bits) with
    | None -> 0L
    | Some c ->
      let off = a land (chunk_size - 1) in
      (match len with
       | 2 -> Int64.of_int (Bytes.get_uint16_le c.vol off)
       | 4 -> Int64.of_int32 (Bytes.get_int32_le c.vol off)
       | 8 -> Bytes.get_int64_le c.vol off
       | _ -> assert false)
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
     | 8 -> Bytes.set_int64_le c.vol off v
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
let read_u64 t a = Int64.to_int (read_scalar t a 8)

let write_u16 t a v = write_scalar t a 2 (Int64.of_int v)
let write_u32 t a v = write_scalar t a 4 (Int64.of_int v)
let write_u64 t a v = write_scalar t a 8 (Int64.of_int v)

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
    (match peek_chunk t (addr lsr chunk_bits) with
     | None -> () (* zeros *)
     | Some c -> Bytes.blit c.vol off out !pos n);
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

let clwb t a =
  check t a 1;
  let base = line_base a in
  match peek_chunk t (base lsr chunk_bits) with
  | None -> ()
  | Some c ->
    let line = (base land (chunk_size - 1)) / cache_line in
    if Bitset.mem c.dirty line then begin
      let snapshot = Bytes.sub c.vol (base land (chunk_size - 1)) cache_line in
      Hashtbl.replace t.staged base snapshot
    end

let commit_line t base data =
  let c = get_chunk t (base lsr chunk_bits) in
  let off = base land (chunk_size - 1) in
  Bytes.blit data 0 c.pers off cache_line;
  t.ctrs.lines_flushed <- t.ctrs.lines_flushed + 1;
  (* Line stays dirty iff further stores hit it after the snapshot. *)
  let line = off / cache_line in
  if Bytes.sub c.vol off cache_line = data then Bitset.clear c.dirty line
  else Bitset.set c.dirty line

let count_dirty t =
  Hashtbl.fold (fun _ c acc -> acc + Bitset.count c.dirty) t.chunks 0

let sfence t =
  t.ctrs.fences <- t.ctrs.fences + 1;
  let staged = Hashtbl.fold (fun base data acc -> (base, data) :: acc) t.staged [] in
  Hashtbl.reset t.staged;
  List.iter (fun (base, data) -> commit_line t base data) staged;
  match t.fence_hook with
  | Some hook ->
    hook
      { fence_no = t.ctrs.fences;
        lines_committed = List.length staged;
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
  Hashtbl.iter
    (fun idx c ->
      Bitset.iter_set c.dirty (fun line ->
          let off = line * cache_line in
          Bytes.blit c.vol off c.pers off cache_line;
          t.ctrs.lines_flushed <- t.ctrs.lines_flushed + 1);
      ignore idx;
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
    if off = 0 && n = chunk_size then
      (* whole chunk: release the backing *)
      Hashtbl.remove t.chunks idx
    else begin
      match peek_chunk t idx with
      | None -> ()
      | Some c ->
        Bytes.fill c.vol off n '\000';
        Bytes.fill c.pers off n '\000';
        let first = off / cache_line and last = (off + n - 1) / cache_line in
        for line = first to last do
          Bitset.clear c.dirty line
        done
    end;
    (* drop any staged lines in the punched range *)
    let line = ref (line_base addr) in
    while !line < addr + n do
      Hashtbl.remove t.staged !line;
      line := !line + cache_line
    done;
    pos := !pos + n
  done

let has_region t a =
  match find_region t a with _ -> true | exception Invalid_address _ -> false

let crash t mode =
  let at_risk =
    Hashtbl.fold (fun _ c acc -> acc + Bitset.count c.dirty) t.chunks 0
    + Hashtbl.length t.staged
  in
  let persisted = ref 0 in
  (match mode with
   | `Strict -> ()
   | `Adversarial rng ->
     (* Cache evictions may persist any unflushed dirty line. *)
     Hashtbl.iter
       (fun _idx c ->
         Bitset.iter_set c.dirty (fun line ->
             if Prng.bool rng then begin
               let off = line * cache_line in
               Bytes.blit c.vol off c.pers off cache_line;
               incr persisted
             end))
       t.chunks;
     (* Staged-but-unfenced lines likewise may or may not land. *)
     Hashtbl.iter
       (fun base data ->
         if Prng.bool rng then begin
           let c = get_chunk t (base lsr chunk_bits) in
           Bytes.blit data 0 c.pers (base land (chunk_size - 1)) cache_line;
           incr persisted
         end)
       t.staged);
  Hashtbl.reset t.staged;
  Hashtbl.iter
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
