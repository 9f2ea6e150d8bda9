(** Volatile index of chunks by address — the DRAM-side lookup PMDK
    performs with address arithmetic on its uniformly-aligned zones;
    our chunks are variable-sized, so the index is a sorted array with
    binary search.  Rebuilt from NVMM by walking the chunk chain at
    attach time. *)

type entry = { base : int; mutable size : int }

type t = {
  mutable entries : entry array;
  mutable count : int;
  mutable memo : entry option;
}

let create () = { entries = [||]; count = 0; memo = None }

(* position of the first entry with base > a *)
let upper_bound t a =
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.entries.(mid).base <= a then lo := mid + 1 else hi := mid
  done;
  !lo

let add t ~base ~size =
  if t.count = Array.length t.entries then begin
    let cap = max 16 (2 * Array.length t.entries) in
    let fresh = Array.make cap { base = 0; size = 0 } in
    Array.blit t.entries 0 fresh 0 t.count;
    t.entries <- fresh
  end;
  let pos = upper_bound t base in
  Array.blit t.entries pos t.entries (pos + 1) (t.count - pos);
  t.entries.(pos) <- { base; size };
  t.count <- t.count + 1;
  t.memo <- None

(** Entry containing address [a], if any. *)
let find t a =
  match t.memo with
  | Some e when a >= e.base && a < e.base + e.size -> Some e
  | _ ->
    let pos = upper_bound t a in
    if pos = 0 then None
    else
      let e = t.entries.(pos - 1) in
      if a >= e.base && a < e.base + e.size then begin
        t.memo <- Some e;
        Some e
      end
      else None

(** Shrinks the entry starting at [base] (chunk split). *)
let resize t ~base ~size =
  let pos = upper_bound t base in
  if pos > 0 && t.entries.(pos - 1).base = base then begin
    t.entries.(pos - 1).size <- size;
    t.memo <- None
  end

let count t = t.count
